// Read/write-set instrumentation for optimistic parallel transaction
// execution (chain's exec=parallel engine). A recording StateDB tracks the
// footprint of one speculative transaction run on a forked state:
//
//   - reads at account granularity (balance, nonce, code, existence — any
//     field: per-field tracking buys nothing because the write half is
//     replayed per field anyway, and the common conflicts are whole-account)
//     and at slot granularity for storage;
//   - writes at the same granularity, with the FINAL values extracted from
//     the fork afterwards (ExtractWrites) so a non-conflicting transaction
//     can be replayed onto the canonical state (ApplyWrites) without
//     re-running the EVM.
//
// Two transactions conflict when one's footprint (reads OR writes) overlaps
// the other's WRITES. Reads must see earlier writes (serial semantics), and
// writes must not clobber earlier writes (replay applies final values
// computed against block-start state, so a later write over an earlier one
// would silently discard it). Account reads do NOT conflict with storage
// writes of the same account and vice versa: calling a contract reads its
// code, not the slots another transaction is writing.
package state

import (
	"sort"

	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// SlotKey identifies one storage slot of one account.
type SlotKey struct {
	Addr types.Address
	Slot types.Hash
}

// Access is the recorded read/write footprint of one transaction.
type Access struct {
	ReadAccount  map[types.Address]struct{}
	ReadSlot     map[SlotKey]struct{}
	WriteAccount map[types.Address]writeFlags
	WriteSlot    map[SlotKey]struct{}
}

type writeFlags uint8

const (
	wBalance writeFlags = 1 << iota
	wNonce
	wCode
	wCreated
	wDestroyed
)

func newAccess() *Access {
	return &Access{
		ReadAccount:  make(map[types.Address]struct{}),
		ReadSlot:     make(map[SlotKey]struct{}),
		WriteAccount: make(map[types.Address]writeFlags),
		WriteSlot:    make(map[SlotKey]struct{}),
	}
}

// Touches reports whether the footprint involves addr at all — reads,
// account-field writes, or storage access. The parallel executor uses it to
// force serial re-execution of any transaction that touches the coinbase
// account, whose fee credits are applied commutatively outside the recorded
// footprint.
func (a *Access) Touches(addr types.Address) bool {
	if _, ok := a.ReadAccount[addr]; ok {
		return true
	}
	if _, ok := a.WriteAccount[addr]; ok {
		return true
	}
	for k := range a.ReadSlot {
		if k.Addr == addr {
			return true
		}
	}
	for k := range a.WriteSlot {
		if k.Addr == addr {
			return true
		}
	}
	return false
}

// AccessIndex aggregates the write sets of already-committed transactions
// in a block, so each candidate's conflict check is O(its own footprint).
type AccessIndex struct {
	accounts  map[types.Address]struct{}
	slots     map[SlotKey]struct{}
	destroyed map[types.Address]struct{} // whole-account wildcard: slot reads of a destroyed account conflict
}

// NewAccessIndex returns an empty index.
func NewAccessIndex() *AccessIndex {
	return &AccessIndex{
		accounts:  make(map[types.Address]struct{}),
		slots:     make(map[SlotKey]struct{}),
		destroyed: make(map[types.Address]struct{}),
	}
}

// Add merges a committed transaction's write half into the index.
func (ix *AccessIndex) Add(a *Access) {
	for addr, flags := range a.WriteAccount {
		ix.accounts[addr] = struct{}{}
		if flags&wDestroyed != 0 {
			ix.destroyed[addr] = struct{}{}
		}
	}
	for k := range a.WriteSlot {
		ix.slots[k] = struct{}{}
	}
}

// Conflicts reports whether a's footprint (reads and writes) intersects
// the writes committed so far.
func (ix *AccessIndex) Conflicts(a *Access) bool {
	for addr := range a.ReadAccount {
		if _, ok := ix.accounts[addr]; ok {
			return true
		}
	}
	for addr := range a.WriteAccount {
		if _, ok := ix.accounts[addr]; ok {
			return true
		}
	}
	for k := range a.ReadSlot {
		if _, ok := ix.slots[k]; ok {
			return true
		}
		if _, ok := ix.destroyed[k.Addr]; ok {
			return true
		}
	}
	for k := range a.WriteSlot {
		if _, ok := ix.slots[k]; ok {
			return true
		}
		if _, ok := ix.destroyed[k.Addr]; ok {
			return true
		}
	}
	return false
}

// SlotWrite is one storage write with its final value.
type SlotWrite struct {
	Slot  types.Hash
	Value types.Hash
}

// AccountWrite carries the final post-transaction values of every written
// field of one account.
type AccountWrite struct {
	Addr      types.Address
	Flags     writeFlags
	Balance   *uint256.Int
	Nonce     uint64
	Code      []byte
	Destroyed bool
	Slots     []SlotWrite
}

// WriteSet is the value-carrying form of an Access's write half, extracted
// from the fork that executed the transaction and replayable onto the
// canonical state. Accounts and slots are sorted so replay is deterministic
// regardless of map iteration order.
type WriteSet struct {
	Accounts []AccountWrite
}

// StartRecording begins read/write-set capture on s. Footprints of
// mutations already applied are not reconstructed — start recording before
// executing the transaction.
func (s *StateDB) StartRecording() {
	s.rec = newAccess()
}

// TakeAccess stops recording and returns the captured footprint (nil if
// recording was never started).
func (s *StateDB) TakeAccess() *Access {
	a := s.rec
	s.rec = nil
	return a
}

// ForkRecording is Fork with read/write-set capture enabled — the
// speculative execution substrate of the parallel block executor. Unlike
// plain Fork the returned state also gets a PRIVATE code store layered over
// the parent's, so concurrent forks can SetCode without racing on the
// shared content-addressed map. The parent must not mutate its code store
// while forks are live (the chain executes forks strictly between commits,
// with the chain lock held).
func (s *StateDB) ForkRecording() *StateDB {
	f := s.Fork()
	f.codes = make(map[types.Hash][]byte)
	f.fallbackCodes = s.codes
	f.StartRecording()
	return f
}

func (s *StateDB) recordAccountRead(addr types.Address) {
	if s.rec != nil {
		s.rec.ReadAccount[addr] = struct{}{}
	}
}

func (s *StateDB) recordSlotRead(addr types.Address, slot types.Hash) {
	if s.rec != nil {
		s.rec.ReadSlot[SlotKey{addr, slot}] = struct{}{}
	}
}

func (s *StateDB) recordAccountWrite(addr types.Address, f writeFlags) {
	if s.rec != nil {
		s.rec.WriteAccount[addr] |= f
	}
}

func (s *StateDB) recordSlotWrite(addr types.Address, slot types.Hash) {
	if s.rec != nil {
		s.rec.WriteSlot[SlotKey{addr, slot}] = struct{}{}
	}
}

// ExtractWrites reads the final values of every write in a's footprint out
// of s (the fork that executed the transaction, after Finalise). Writes
// that were reverted leave their key recorded but their value unchanged;
// extraction simply reads whatever the fork ended up with, which for a
// fully reverted account equals the block-start value — replaying it is a
// no-op by value. Accounts recorded as written but absent from the object
// cache (created then reverted away) are skipped entirely. Code is read
// from the code store by hash; the store never changes an entry.
func (s *StateDB) ExtractWrites(a *Access) *WriteSet {
	perAddr := make(map[types.Address]*AccountWrite)
	get := func(addr types.Address) *AccountWrite {
		if w, ok := perAddr[addr]; ok {
			return w
		}
		w := &AccountWrite{Addr: addr}
		perAddr[addr] = w
		return w
	}
	for addr, flags := range a.WriteAccount {
		obj, ok := s.objects[addr]
		if !ok {
			continue // created then reverted: nothing survives
		}
		w := get(addr)
		if obj.deleted || obj.selfDestructed {
			w.Destroyed = true
			w.Flags |= wDestroyed
			continue
		}
		if flags&wBalance != 0 {
			w.Flags |= wBalance
			w.Balance = obj.account.Balance.Clone()
		}
		if flags&wNonce != 0 {
			w.Flags |= wNonce
			w.Nonce = obj.account.Nonce
		}
		if flags&wCode != 0 {
			w.Flags |= wCode
			w.Code = s.code(obj.account.CodeHash)
		}
		if flags&wCreated != 0 {
			w.Flags |= wCreated
		}
	}
	for k := range a.WriteSlot {
		obj, ok := s.objects[k.Addr]
		if !ok || obj.deleted || obj.selfDestructed {
			continue // account gone: the destroy (recorded above) subsumes slot writes
		}
		v, ok := obj.storage[k.Slot]
		if !ok {
			continue // write reverted: the slot still holds its committed value
		}
		w := get(k.Addr)
		w.Slots = append(w.Slots, SlotWrite{Slot: k.Slot, Value: v})
	}
	ws := &WriteSet{Accounts: make([]AccountWrite, 0, len(perAddr))}
	for _, w := range perAddr {
		sort.Slice(w.Slots, func(i, j int) bool {
			return string(w.Slots[i].Slot.Bytes()) < string(w.Slots[j].Slot.Bytes())
		})
		ws.Accounts = append(ws.Accounts, *w)
	}
	sort.Slice(ws.Accounts, func(i, j int) bool {
		return string(ws.Accounts[i].Addr.Bytes()) < string(ws.Accounts[j].Addr.Bytes())
	})
	return ws
}

// ApplyWrites replays a write set onto s through the ordinary mutation API,
// so journaling, dirty tracking and the eventual Commit behave exactly as
// if the values had been written by in-place execution. The caller is
// responsible for Finalise at the transaction boundary (self-destructs
// become deletions there, as usual).
func (s *StateDB) ApplyWrites(w *WriteSet) {
	for i := range w.Accounts {
		aw := &w.Accounts[i]
		if aw.Destroyed {
			s.SelfDestruct(aw.Addr)
			continue
		}
		if aw.Flags&wCreated != 0 {
			s.CreateAccount(aw.Addr)
		}
		if aw.Flags&wBalance != 0 {
			s.SetBalance(aw.Addr, aw.Balance)
		}
		if aw.Flags&wNonce != 0 {
			s.SetNonce(aw.Addr, aw.Nonce)
		}
		if aw.Flags&wCode != 0 {
			s.SetCode(aw.Addr, aw.Code)
		}
		for _, sw := range aw.Slots {
			s.SetState(aw.Addr, sw.Slot, sw.Value)
		}
	}
}
