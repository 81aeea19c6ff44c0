// Package state implements the world state: accounts with balances, nonces,
// contract code and storage, journaled for transactional revert (the EVM's
// snapshot/revert semantics) and committed into a Merkle Patricia Trie for
// a verifiable state root.
package state

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rlp"
	"onoffchain/internal/trie"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// Account is the canonical four-field Ethereum account.
type Account struct {
	Nonce    uint64
	Balance  *uint256.Int
	Root     types.Hash // storage trie root
	CodeHash types.Hash
}

// EncodeRLP encodes the account for the state trie.
func (a *Account) EncodeRLP() []byte {
	return rlp.EncodeList(
		rlp.Uint(a.Nonce),
		rlp.Bytes(a.Balance.Bytes()),
		rlp.Bytes(a.Root.Bytes()),
		rlp.Bytes(a.CodeHash.Bytes()),
	)
}

func decodeAccount(enc []byte) (*Account, error) {
	item, err := rlp.Decode(enc)
	if err != nil {
		return nil, err
	}
	if item.Kind != rlp.KindList || len(item.Items) != 4 {
		return nil, fmt.Errorf("state: malformed account encoding")
	}
	nonce, err := item.Items[0].Uint64()
	if err != nil {
		return nil, err
	}
	bal := new(uint256.Int).SetBytes(item.Items[1].Bytes)
	return &Account{
		Nonce:    nonce,
		Balance:  bal,
		Root:     types.BytesToHash(item.Items[2].Bytes),
		CodeHash: types.BytesToHash(item.Items[3].Bytes),
	}, nil
}

// stateObject is an account under modification in one block. Commit folds
// it into the trie and drops it, so the account trie, the storage tries and
// the code store hold the only copies of committed state.
type stateObject struct {
	address        types.Address
	account        Account
	storage        map[types.Hash]types.Hash // dirty view
	originStorage  map[types.Hash]types.Hash // committed slots read this block
	selfDestructed bool
	deleted        bool // removed at commit
	dirty          bool // written this block: Commit re-encodes it
}

func newObject(addr types.Address) *stateObject {
	return &stateObject{
		address:       addr,
		account:       Account{Balance: new(uint256.Int), Root: trie.EmptyRoot, CodeHash: types.EmptyCodeHash},
		storage:       make(map[types.Hash]types.Hash),
		originStorage: make(map[types.Hash]types.Hash),
	}
}

func (o *stateObject) empty() bool {
	return o.account.Nonce == 0 && o.account.Balance.IsZero() && o.account.CodeHash == types.EmptyCodeHash
}

// StateDB is the mutable world state with snapshot/revert support.
type StateDB struct {
	tr trie.SecureTrie // the account trie as of the last Commit

	// codes holds one copy of each contract code, keyed by its hash.
	codes map[types.Hash][]byte

	// objects are the accounts this block has read or written; Commit
	// empties it, so per-transaction and per-block work is bounded by
	// what the block touched.
	objects map[types.Address]*stateObject

	// tries holds the storage trie of every account whose storage this
	// state has committed. A fork reads the rest through parent, the
	// state it was forked from.
	tries  map[types.Address]trie.Trie
	parent *StateDB

	// fallbackCodes is a read-only parent code store consulted on misses
	// (set by ForkRecording so concurrent forks never write the shared
	// map); rec, when non-nil, captures the read/write footprint of the
	// running transaction (see access.go).
	fallbackCodes map[types.Hash][]byte
	rec           *Access

	journal []func() // each entry undoes one mutation
	refund  uint64
	logs    []*types.Log

	// The block number emitted logs are stamped with.
	block uint64
}

// New creates an empty state.
func New() *StateDB {
	return &StateDB{
		codes:   make(map[types.Hash][]byte),
		objects: make(map[types.Address]*stateObject),
		tries:   make(map[types.Address]trie.Trie),
	}
}

// SetTxContext sets the block number recorded on emitted logs.
func (s *StateDB) SetTxContext(block uint64) {
	s.block = block
}

func (s *StateDB) getObject(addr types.Address) *stateObject {
	if obj, ok := s.objects[addr]; ok {
		if obj.deleted {
			return nil
		}
		return obj
	}
	// Load from trie if committed earlier.
	enc := s.tr.Get(addr.Bytes())
	if enc == nil {
		return nil
	}
	acct, err := decodeAccount(enc)
	if err != nil {
		panic("state: corrupt account: " + err.Error())
	}
	obj := newObject(addr)
	obj.account = *acct
	obj.account.Balance = acct.Balance.Clone()
	s.objects[addr] = obj
	return obj
}

func (s *StateDB) getOrCreateObject(addr types.Address) *stateObject {
	if obj := s.getObject(addr); obj != nil {
		return obj
	}
	obj := newObject(addr)
	prev, hadPrev := s.objects[addr]
	s.objects[addr] = obj
	s.change(obj, func() {
		if hadPrev {
			s.objects[addr] = prev
		} else {
			delete(s.objects, addr)
		}
	})
	return obj
}

// change marks obj written in this block and journals how to undo the write.
func (s *StateDB) change(obj *stateObject, revert func()) {
	obj.dirty = true
	s.journal = append(s.journal, revert)
}

// Exist reports whether the account exists (even if empty).
func (s *StateDB) Exist(addr types.Address) bool {
	s.recordAccountRead(addr)
	return s.getObject(addr) != nil
}

// Empty reports whether the account is non-existent or empty per EIP-161.
func (s *StateDB) Empty(addr types.Address) bool {
	s.recordAccountRead(addr)
	obj := s.getObject(addr)
	return obj == nil || obj.empty()
}

// CreateAccount explicitly creates an account (contract deployment target).
func (s *StateDB) CreateAccount(addr types.Address) {
	s.recordAccountWrite(addr, wCreated)
	s.getOrCreateObject(addr)
}

// GetBalance returns the account balance (zero for missing accounts).
func (s *StateDB) GetBalance(addr types.Address) *uint256.Int {
	s.recordAccountRead(addr)
	if obj := s.getObject(addr); obj != nil {
		return obj.account.Balance.Clone()
	}
	return new(uint256.Int)
}

// AddBalance credits the account.
func (s *StateDB) AddBalance(addr types.Address, amount *uint256.Int) {
	s.recordAccountWrite(addr, wBalance)
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Balance.Clone()
	s.change(obj, func() { obj.account.Balance = prev })
	obj.account.Balance = new(uint256.Int).Add(obj.account.Balance, amount)
}

// SubBalance debits the account (caller must check sufficiency).
func (s *StateDB) SubBalance(addr types.Address, amount *uint256.Int) {
	s.recordAccountWrite(addr, wBalance)
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Balance.Clone()
	s.change(obj, func() { obj.account.Balance = prev })
	obj.account.Balance = new(uint256.Int).Sub(obj.account.Balance, amount)
}

// SetBalance forces a balance (used by genesis allocation and tests).
func (s *StateDB) SetBalance(addr types.Address, amount *uint256.Int) {
	s.recordAccountWrite(addr, wBalance)
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Balance.Clone()
	s.change(obj, func() { obj.account.Balance = prev })
	obj.account.Balance = amount.Clone()
}

// GetNonce returns the account nonce.
func (s *StateDB) GetNonce(addr types.Address) uint64 {
	s.recordAccountRead(addr)
	if obj := s.getObject(addr); obj != nil {
		return obj.account.Nonce
	}
	return 0
}

// SetNonce sets the account nonce.
func (s *StateDB) SetNonce(addr types.Address, nonce uint64) {
	s.recordAccountWrite(addr, wNonce)
	obj := s.getOrCreateObject(addr)
	prev := obj.account.Nonce
	s.change(obj, func() { obj.account.Nonce = prev })
	obj.account.Nonce = nonce
}

// GetCode returns the contract code.
func (s *StateDB) GetCode(addr types.Address) []byte {
	s.recordAccountRead(addr)
	obj := s.getObject(addr)
	if obj == nil || obj.account.CodeHash == types.EmptyCodeHash {
		return nil
	}
	return s.code(obj.account.CodeHash)
}

// code returns the code stored under hash h. A recording fork reads its
// parent's store through fallbackCodes.
func (s *StateDB) code(h types.Hash) []byte {
	if code, ok := s.codes[h]; ok {
		return code
	}
	return s.fallbackCodes[h]
}

// GetCodeHash returns the code hash (zero hash for missing accounts).
func (s *StateDB) GetCodeHash(addr types.Address) types.Hash {
	s.recordAccountRead(addr)
	obj := s.getObject(addr)
	if obj == nil {
		return types.Hash{}
	}
	return obj.account.CodeHash
}

// GetCodeSize returns len(code).
func (s *StateDB) GetCodeSize(addr types.Address) int {
	return len(s.GetCode(addr))
}

// SetCode installs contract code. The code store keeps one copy per hash
// and is append-only, so a revert restores the account's hash alone.
func (s *StateDB) SetCode(addr types.Address, code []byte) {
	s.recordAccountWrite(addr, wCode)
	obj := s.getOrCreateObject(addr)
	prev := obj.account.CodeHash
	s.change(obj, func() { obj.account.CodeHash = prev })
	h := types.Hash(keccak.Sum256(code))
	obj.account.CodeHash = h
	if s.code(h) == nil {
		s.codes[h] = bytes.Clone(code)
	}
}

// GetState reads a storage slot.
func (s *StateDB) GetState(addr types.Address, key types.Hash) types.Hash {
	s.recordSlotRead(addr, key)
	obj := s.getObject(addr)
	if obj == nil {
		return types.Hash{}
	}
	if v, ok := obj.storage[key]; ok {
		return v
	}
	return s.committedState(obj, key)
}

func (s *StateDB) committedState(obj *stateObject, key types.Hash) types.Hash {
	if v, ok := obj.originStorage[key]; ok {
		return v
	}
	var v types.Hash
	if obj.account.Root != trie.EmptyRoot {
		st := s.storageTrie(obj.address)
		if enc := st.Get(keccak.Sum256Bytes(key.Bytes())); enc != nil {
			item, err := rlp.Decode(enc)
			if err == nil {
				v = types.BytesToHash(item.Bytes)
			}
		}
	}
	obj.originStorage[key] = v
	return v
}

// storageTrie returns addr's storage trie as of the last Commit. It is
// consulted only for an account whose storage root is not empty, which a
// Commit gives only together with the trie.
func (s *StateDB) storageTrie(addr types.Address) trie.Trie {
	for ; s != nil; s = s.parent {
		if t, ok := s.tries[addr]; ok {
			return t
		}
	}
	return trie.Trie{}
}

// SetState writes a storage slot.
func (s *StateDB) SetState(addr types.Address, key, value types.Hash) {
	s.recordSlotWrite(addr, key)
	obj := s.getOrCreateObject(addr)
	prev, hadPrev := obj.storage[key]
	s.change(obj, func() {
		if hadPrev {
			obj.storage[key] = prev
		} else {
			delete(obj.storage, key)
		}
	})
	obj.storage[key] = value
}

// SelfDestruct marks the contract for deletion and zeroes its balance.
func (s *StateDB) SelfDestruct(addr types.Address) {
	s.recordAccountWrite(addr, wDestroyed|wBalance)
	obj := s.getObject(addr)
	if obj == nil {
		return
	}
	prevBalance := obj.account.Balance.Clone()
	prevFlag := obj.selfDestructed
	s.change(obj, func() {
		obj.selfDestructed = prevFlag
		obj.account.Balance = prevBalance
	})
	obj.selfDestructed = true
	obj.account.Balance = new(uint256.Int)
}

// HasSelfDestructed reports whether the account is marked for deletion.
func (s *StateDB) HasSelfDestructed(addr types.Address) bool {
	s.recordAccountRead(addr)
	obj := s.getObject(addr)
	return obj != nil && obj.selfDestructed
}

// AddRefund accumulates gas refund (SSTORE clears, selfdestruct).
func (s *StateDB) AddRefund(gas uint64) {
	prev := s.refund
	s.journal = append(s.journal, func() { s.refund = prev })
	s.refund += gas
}

// GetRefund returns the accumulated refund.
func (s *StateDB) GetRefund() uint64 { return s.refund }

// AddLog records an emitted log, stamped with its block number.
func (s *StateDB) AddLog(log *types.Log) {
	log.BlockNumber = s.block
	prevLen := len(s.logs)
	s.journal = append(s.journal, func() { s.logs = s.logs[:prevLen] })
	s.logs = append(s.logs, log)
}

// TakeLogs returns and clears the recorded logs (end of transaction).
func (s *StateDB) TakeLogs() []*types.Log {
	logs := s.logs
	s.logs = nil
	return logs
}

// Snapshot returns an identifier for the current journal position.
func (s *StateDB) Snapshot() int { return len(s.journal) }

// RevertToSnapshot undoes every mutation after the snapshot.
func (s *StateDB) RevertToSnapshot(id int) {
	if id < 0 || id > len(s.journal) {
		panic(fmt.Sprintf("state: invalid snapshot id %d (journal %d)", id, len(s.journal)))
	}
	for i := len(s.journal) - 1; i >= id; i-- {
		s.journal[i]()
	}
	s.journal = s.journal[:id]
}

// Finalise clears self-destructed and empty-touched accounts at transaction
// end and resets the journal (mutations become permanent).
func (s *StateDB) Finalise() {
	for _, obj := range s.objects {
		if obj.selfDestructed {
			obj.deleted = true
		}
	}
	s.journal = s.journal[:0]
	s.refund = 0
}

// Commit folds the accounts written since the last Commit into the trie,
// drops every cached object and returns the new state root. Objects that
// were only read are not re-encoded.
//
// The per-account storage flush is embarrassingly parallel — each account
// owns a disjoint storage trie, and an update copies the path it changes
// rather than writing a node another trie shares — so on multi-core hosts
// the storage tries are flushed across a worker pool before the (serial,
// deterministic) account-trie update.
func (s *StateDB) Commit() types.Hash {
	s.Finalise()
	// Deterministic iteration order for reproducible tries.
	var written []*stateObject
	for _, obj := range s.objects {
		if obj.dirty {
			written = append(written, obj)
		}
	}
	sort.Slice(written, func(i, j int) bool {
		return string(written[i].address.Bytes()) < string(written[j].address.Bytes())
	})
	// Phase 1: flush every live account's dirty storage into its own
	// storage trie, in parallel when it pays.
	var flush []*stateObject
	for _, obj := range written {
		if !obj.deleted && len(obj.storage) > 0 {
			flush = append(flush, obj)
		}
	}
	for i, st := range s.flushStorage(flush, runtime.GOMAXPROCS(0)) {
		s.tries[flush[i].address] = st
	}
	// Phase 2: fold the accounts into the state trie serially.
	for _, obj := range written {
		if obj.deleted {
			s.tr.Delete(obj.address.Bytes())
			delete(s.tries, obj.address)
			continue
		}
		s.tr.Update(obj.address.Bytes(), obj.account.EncodeRLP())
	}
	s.objects = make(map[types.Address]*stateObject)
	return s.tr.Hash()
}

// flushStorage commits the dirty storage of every object across at most
// workers goroutines and returns each object's new storage trie. Each
// object's flush touches only that object and its own copy of its
// storage trie, so the resulting storage roots are identical to a serial
// flush.
func (s *StateDB) flushStorage(objs []*stateObject, workers int) []trie.Trie {
	tries := make([]trie.Trie, len(objs))
	if workers > len(objs) {
		workers = len(objs)
	}
	if workers <= 1 {
		for i, obj := range objs {
			tries[i] = s.flushOneStorage(obj)
		}
		return tries
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(objs) {
					return
				}
				tries[i] = s.flushOneStorage(objs[i])
			}
		}()
	}
	wg.Wait()
	return tries
}

// flushOneStorage writes one account's dirty storage slots into a copy of
// its storage trie, records the new root on the account and returns the
// trie. The object ends at Commit, so its storage maps are left as they are.
func (s *StateDB) flushOneStorage(obj *stateObject) trie.Trie {
	var st trie.Trie
	if obj.account.Root != trie.EmptyRoot {
		st = s.storageTrie(obj.address)
	}
	keys := make([]types.Hash, 0, len(obj.storage))
	for k := range obj.storage {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		return string(keys[i].Bytes()) < string(keys[j].Bytes())
	})
	for _, k := range keys {
		v := obj.storage[k]
		hashedKey := keccak.Sum256Bytes(k.Bytes())
		if v.IsZero() {
			st.Delete(hashedKey)
		} else {
			// Store values RLP-encoded with leading zeros trimmed,
			// matching Ethereum's storage encoding.
			st.Update(hashedKey, rlp.EncodeBytes(trimLeftZeros(v.Bytes())))
		}
	}
	obj.account.Root = st.Hash()
	return st
}

func trimLeftZeros(b []byte) []byte {
	i := 0
	for i < len(b) && b[i] == 0 {
		i++
	}
	return b[i:]
}

// Fork returns a view of the last committed state that loads accounts
// lazily from the trie, for eth_call-style speculative execution. It is
// O(1): the fork copies the account-trie handle, reads storage tries
// through this state, and shares the code store, which is
// content-addressed and append-only, so entries a fork adds are harmless.
// The fork stays valid until this state's next Commit; the caller must
// ensure the canonical state is not mutated concurrently (Chain.Call holds
// the chain lock).
func (s *StateDB) Fork() *StateDB {
	return &StateDB{
		tr:      s.tr,
		parent:  s,
		codes:   s.codes,
		objects: make(map[types.Address]*stateObject),
		tries:   make(map[types.Address]trie.Trie),
	}
}

// CommitFork folds f, a Fork of s, into s and commits the result: every
// account f wrote replaces s's copy, and Commit writes it into s's tries,
// so the root is the one executing f's transactions on s would give. s must
// hold no uncommitted writes and must not have committed since f was
// forked; f is spent afterwards.
func (s *StateDB) CommitFork(f *StateDB) types.Hash {
	if f.parent != s {
		panic("state: CommitFork of a state not forked from this one")
	}
	f.Finalise()
	for addr, obj := range f.objects {
		if obj.dirty {
			s.objects[addr] = obj
		}
	}
	return s.Commit()
}
