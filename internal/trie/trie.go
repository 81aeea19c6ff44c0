// Package trie implements Ethereum's Merkle Patricia Trie: a radix trie
// over hex nibbles with three node kinds (short/extension, full/branch,
// value), hex-prefix compact key encoding, RLP node encoding, and the
// standard commitment rule (nodes whose encoding is >= 32 bytes are
// referenced by their keccak256 hash; smaller nodes embed inline).
//
// It backs the state and storage commitments of the chain and provides
// Merkle proofs.
package trie

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rlp"
	"onoffchain/internal/types"
)

// EmptyRoot is the root hash of an empty trie: keccak256(rlp("")).
var EmptyRoot = types.Hash(keccak.Sum256([]byte{0x80}))

// node is one of: *shortNode, *fullNode, valueNode, hashNode, or nil.
type node interface{}

type (
	// shortNode covers both leaves (key has terminator, val is valueNode)
	// and extensions (no terminator, val is a child node).
	shortNode struct {
		Key []byte // hex nibbles, possibly ending in the 0x10 terminator
		Val node
	}
	// fullNode is a 17-ary branch: 16 nibble children plus a value slot.
	fullNode struct {
		Children [17]node
	}
	valueNode []byte
	hashNode  []byte
)

// Database is the node store for hashed trie nodes. It is safe for
// concurrent use: state forks and the parallel storage-trie flush share
// one store and persist nodes from many goroutines.
// Stored encodings are immutable once put, so readers may retain the
// returned slices without copying.
type Database struct {
	mu    sync.RWMutex
	nodes map[types.Hash][]byte
}

// NewDatabase returns an empty in-memory node store.
func NewDatabase() *Database {
	return &Database{nodes: make(map[types.Hash][]byte)}
}

func (db *Database) put(h types.Hash, enc []byte) {
	db.mu.Lock()
	db.nodes[h] = enc
	db.mu.Unlock()
}

// Node returns the encoding of a stored node.
func (db *Database) Node(h types.Hash) ([]byte, bool) {
	db.mu.RLock()
	enc, ok := db.nodes[h]
	db.mu.RUnlock()
	return enc, ok
}

// Len returns the number of stored nodes.
func (db *Database) Len() int {
	db.mu.RLock()
	n := len(db.nodes)
	db.mu.RUnlock()
	return n
}

// Trie is a mutable Merkle Patricia Trie.
type Trie struct {
	root node
	db   *Database
}

// New creates an empty trie backed by db (a fresh store if nil).
func New(db *Database) *Trie {
	if db == nil {
		db = NewDatabase()
	}
	return &Trie{db: db}
}

// keybytesToHex expands key bytes into nibbles and appends the terminator.
func keybytesToHex(key []byte) []byte {
	out := make([]byte, len(key)*2+1)
	for i, b := range key {
		out[i*2] = b >> 4
		out[i*2+1] = b & 0x0f
	}
	out[len(out)-1] = 16
	return out
}

func hasTerminator(hexKey []byte) bool {
	return len(hexKey) > 0 && hexKey[len(hexKey)-1] == 16
}

// hexToCompact applies the hex-prefix encoding.
func hexToCompact(hexKey []byte) []byte {
	terminator := byte(0)
	if hasTerminator(hexKey) {
		terminator = 1
		hexKey = hexKey[:len(hexKey)-1]
	}
	buf := make([]byte, len(hexKey)/2+1)
	buf[0] = terminator << 5 // flag byte
	if len(hexKey)&1 == 1 {
		buf[0] |= 1 << 4 // odd flag
		buf[0] |= hexKey[0]
		hexKey = hexKey[1:]
	}
	for i := 0; i < len(hexKey); i += 2 {
		buf[i/2+1] = hexKey[i]<<4 | hexKey[i+1]
	}
	return buf
}

// compactToHex inverts hexToCompact.
func compactToHex(compact []byte) []byte {
	if len(compact) == 0 {
		return nil
	}
	base := make([]byte, 0, len(compact)*2)
	if compact[0]&0x10 != 0 { // odd
		base = append(base, compact[0]&0x0f)
	}
	for _, b := range compact[1:] {
		base = append(base, b>>4, b&0x0f)
	}
	if compact[0]&0x20 != 0 { // terminator flag
		base = append(base, 16)
	}
	return base
}

func prefixLen(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Get returns the value for key, or nil if absent.
func (t *Trie) Get(key []byte) []byte {
	v := t.get(t.root, keybytesToHex(key))
	if v == nil {
		return nil
	}
	return append([]byte{}, v...)
}

func (t *Trie) get(n node, key []byte) valueNode {
	switch n := n.(type) {
	case nil:
		return nil
	case valueNode:
		if len(key) == 0 {
			return n
		}
		return nil
	case *shortNode:
		if len(key) < len(n.Key) || !bytes.Equal(n.Key, key[:len(n.Key)]) {
			return nil
		}
		return t.get(n.Val, key[len(n.Key):])
	case *fullNode:
		if len(key) == 0 {
			if v, ok := n.Children[16].(valueNode); ok {
				return v
			}
			return nil
		}
		return t.get(n.Children[key[0]], key[1:])
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			return nil
		}
		return t.get(resolved, key)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// Update inserts or replaces the value for key; an empty value deletes.
func (t *Trie) Update(key, value []byte) {
	if len(value) == 0 {
		t.Delete(key)
		return
	}
	t.root = t.insert(t.root, keybytesToHex(key), valueNode(append([]byte{}, value...)))
}

func (t *Trie) insert(n node, key []byte, value valueNode) node {
	if len(key) == 0 {
		return value
	}
	switch n := n.(type) {
	case nil:
		return &shortNode{Key: append([]byte{}, key...), Val: value}
	case *shortNode:
		match := prefixLen(key, n.Key)
		if match == len(n.Key) {
			return &shortNode{Key: n.Key, Val: t.insert(n.Val, key[match:], value)}
		}
		// Split: create a branch at the divergence point.
		branch := &fullNode{}
		t.attach(branch, n.Key[match:], n.Val)
		t.attach(branch, key[match:], value)
		if match == 0 {
			return branch
		}
		return &shortNode{Key: append([]byte{}, key[:match]...), Val: branch}
	case *fullNode:
		idx := key[0]
		n.Children[idx] = t.insert(n.Children[idx], key[1:], value)
		return n
	case valueNode:
		// Existing value at this exact position being extended: move it
		// into a branch's value slot.
		branch := &fullNode{}
		branch.Children[16] = n
		t.attach(branch, key, value)
		return branch
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			panic("trie: missing node during insert: " + err.Error())
		}
		return t.insert(resolved, key, value)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// attach places (key, val) under a branch node; key may be empty, a single
// terminator, or longer.
func (t *Trie) attach(branch *fullNode, key []byte, val node) {
	if len(key) == 0 || key[0] == 16 {
		branch.Children[16] = val
		return
	}
	idx := key[0]
	rest := key[1:]
	if len(rest) == 0 {
		branch.Children[idx] = val
		return
	}
	branch.Children[idx] = &shortNode{Key: append([]byte{}, rest...), Val: val}
}

// Delete removes key from the trie (no-op if absent).
func (t *Trie) Delete(key []byte) {
	t.root = t.remove(t.root, keybytesToHex(key))
}

func (t *Trie) remove(n node, key []byte) node {
	switch n := n.(type) {
	case nil:
		return nil
	case valueNode:
		if len(key) == 0 {
			return nil
		}
		return n
	case *shortNode:
		match := prefixLen(key, n.Key)
		if match < len(n.Key) {
			return n // not found
		}
		if match == len(key) {
			return nil // exact leaf removal
		}
		child := t.remove(n.Val, key[match:])
		if child == nil {
			return nil
		}
		// Merge chained short nodes.
		if sn, ok := child.(*shortNode); ok {
			merged := append(append([]byte{}, n.Key...), sn.Key...)
			return &shortNode{Key: merged, Val: sn.Val}
		}
		return &shortNode{Key: n.Key, Val: child}
	case *fullNode:
		if len(key) == 0 {
			n.Children[16] = nil
		} else {
			n.Children[key[0]] = t.remove(n.Children[key[0]], key[1:])
		}
		return t.collapse(n)
	case hashNode:
		resolved, err := t.resolve(n)
		if err != nil {
			panic("trie: missing node during delete: " + err.Error())
		}
		return t.remove(resolved, key)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// collapse reduces a branch with fewer than two occupied slots back into a
// short node, preserving canonical structure.
func (t *Trie) collapse(n *fullNode) node {
	pos := -1
	count := 0
	for i, child := range n.Children {
		if child != nil {
			count++
			pos = i
		}
	}
	if count > 1 {
		return n
	}
	if count == 0 {
		return nil
	}
	if pos == 16 {
		return &shortNode{Key: []byte{16}, Val: n.Children[16]}
	}
	child := n.Children[pos]
	if hn, ok := child.(hashNode); ok {
		resolved, err := t.resolve(hn)
		if err != nil {
			panic("trie: missing node during collapse: " + err.Error())
		}
		child = resolved
	}
	if sn, ok := child.(*shortNode); ok {
		merged := append([]byte{byte(pos)}, sn.Key...)
		return &shortNode{Key: merged, Val: sn.Val}
	}
	return &shortNode{Key: []byte{byte(pos)}, Val: child}
}

func (t *Trie) resolve(h hashNode) (node, error) {
	enc, ok := t.db.Node(types.BytesToHash(h))
	if !ok {
		return nil, fmt.Errorf("trie: missing node %x", []byte(h))
	}
	item, err := rlp.Decode(enc)
	if err != nil {
		return nil, err
	}
	return decodeNode(item)
}

func decodeNode(item *rlp.Item) (node, error) {
	if item.Kind == rlp.KindBytes {
		if len(item.Bytes) == 0 {
			return nil, nil
		}
		if len(item.Bytes) == 32 {
			return hashNode(item.Bytes), nil
		}
		return nil, errors.New("trie: unexpected byte node")
	}
	switch len(item.Items) {
	case 2:
		key := compactToHex(item.Items[0].Bytes)
		if hasTerminator(key) {
			return &shortNode{Key: key, Val: valueNode(item.Items[1].Bytes)}, nil
		}
		child, err := decodeRef(item.Items[1])
		if err != nil {
			return nil, err
		}
		return &shortNode{Key: key, Val: child}, nil
	case 17:
		fn := &fullNode{}
		for i := 0; i < 16; i++ {
			child, err := decodeRef(item.Items[i])
			if err != nil {
				return nil, err
			}
			fn.Children[i] = child
		}
		if len(item.Items[16].Bytes) > 0 {
			fn.Children[16] = valueNode(item.Items[16].Bytes)
		}
		return fn, nil
	default:
		return nil, fmt.Errorf("trie: invalid node arity %d", len(item.Items))
	}
}

func decodeRef(item *rlp.Item) (node, error) {
	if item.Kind == rlp.KindList {
		return decodeNode(item)
	}
	if len(item.Bytes) == 0 {
		return nil, nil
	}
	if len(item.Bytes) == 32 {
		return hashNode(item.Bytes), nil
	}
	return nil, fmt.Errorf("trie: invalid node reference of %d bytes", len(item.Bytes))
}

// encodeNode builds the RLP item tree for a node.
func (t *Trie) encodeNode(n node) *rlp.Item {
	switch n := n.(type) {
	case nil:
		return rlp.Bytes(nil)
	case valueNode:
		return rlp.Bytes(n)
	case hashNode:
		return rlp.Bytes(n)
	case *shortNode:
		return rlp.List(rlp.Bytes(hexToCompact(n.Key)), t.encodeRef(n.Val))
	case *fullNode:
		items := make([]*rlp.Item, 17)
		for i := 0; i < 16; i++ {
			items[i] = t.encodeRef(n.Children[i])
		}
		if v, ok := n.Children[16].(valueNode); ok {
			items[16] = rlp.Bytes(v)
		} else {
			items[16] = rlp.Bytes(nil)
		}
		return rlp.List(items...)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// encodeRef returns the reference encoding of a child: inline if its
// encoding is under 32 bytes, otherwise the keccak hash (persisting the
// node to the database).
func (t *Trie) encodeRef(n node) *rlp.Item {
	switch n := n.(type) {
	case nil:
		return rlp.Bytes(nil)
	case valueNode:
		return rlp.Bytes(n)
	case hashNode:
		return rlp.Bytes(n)
	}
	item := t.encodeNode(n)
	enc := rlp.Encode(item)
	if len(enc) < 32 {
		return item
	}
	h := types.Hash(keccak.Sum256(enc))
	t.db.put(h, enc)
	return rlp.Bytes(h.Bytes())
}

// Hash computes the root commitment, persisting hashed nodes to the
// database, and collapses the in-memory tree to its root hash. Without
// the collapse, every node ever expanded by an Update would be re-encoded
// and re-keccak'd by every later Hash call, making a long-lived trie's
// commits O(trie size) instead of O(touched paths): subsequent operations
// re-resolve just the paths they walk from the node store.
//
// The walk is serial: fanning the top-level branch's subtrees across
// goroutines read slower at every size tried (DESIGN §8 "Verdicts").
func (t *Trie) Hash() types.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	// Already collapsed and unchanged since: the stored hash IS the root.
	// Re-encoding the 32-byte reference would hash the reference itself
	// and return a bogus root.
	if h, ok := t.root.(hashNode); ok {
		return types.BytesToHash(h)
	}
	enc := rlp.Encode(t.encodeNode(t.root))
	h := types.Hash(keccak.Sum256(enc))
	t.db.put(h, enc)
	t.root = hashNode(h.Bytes())
	return h
}

// FromRoot rebuilds a trie handle from a previously committed root.
func FromRoot(db *Database, root types.Hash) (*Trie, error) {
	t := New(db)
	if root == EmptyRoot || root.IsZero() {
		return t, nil
	}
	if _, ok := db.Node(root); !ok {
		return nil, fmt.Errorf("trie: unknown root %s", root.Hex())
	}
	t.root = hashNode(root.Bytes())
	return t, nil
}

// Prove returns the Merkle proof for key: the ordered list of RLP node
// encodings from the root towards the key.
func (t *Trie) Prove(key []byte) [][]byte {
	t.Hash() // ensure hashes are current and nodes persisted
	var proof [][]byte
	n := t.root
	nibbles := keybytesToHex(key)
	for {
		switch cur := n.(type) {
		case nil:
			return proof
		case valueNode:
			return proof
		case hashNode:
			resolved, err := t.resolve(cur)
			if err != nil {
				return proof
			}
			n = resolved
			continue
		case *shortNode:
			enc := rlp.Encode(t.encodeNode(cur))
			if len(enc) >= 32 || len(proof) == 0 {
				proof = append(proof, enc)
			}
			if len(nibbles) < len(cur.Key) || !bytes.Equal(cur.Key, nibbles[:len(cur.Key)]) {
				return proof
			}
			nibbles = nibbles[len(cur.Key):]
			n = cur.Val
		case *fullNode:
			enc := rlp.Encode(t.encodeNode(cur))
			if len(enc) >= 32 || len(proof) == 0 {
				proof = append(proof, enc)
			}
			if len(nibbles) == 0 {
				n = cur.Children[16]
			} else {
				n = cur.Children[nibbles[0]]
				nibbles = nibbles[1:]
			}
		default:
			return proof
		}
	}
}

// VerifyProof checks a Merkle proof against a root and returns the proven
// value (nil for a proven absence).
func VerifyProof(root types.Hash, key []byte, proof [][]byte) ([]byte, error) {
	if len(proof) == 0 {
		if root == EmptyRoot {
			return nil, nil
		}
		return nil, errors.New("trie: empty proof for non-empty root")
	}
	nibbles := keybytesToHex(key)
	expected := root.Bytes()
	idx := 0
	var current node
	for {
		if idx >= len(proof) {
			return nil, errors.New("trie: proof exhausted")
		}
		enc := proof[idx]
		if !bytes.Equal(keccak.Sum256Bytes(enc), expected) {
			return nil, errors.New("trie: proof node hash mismatch")
		}
		item, err := rlp.Decode(enc)
		if err != nil {
			return nil, err
		}
		current, err = decodeNode(item)
		if err != nil {
			return nil, err
		}
		idx++
		// Walk within this (possibly inline-nested) node until we hit a
		// hash reference or a conclusion.
		for {
			switch n := current.(type) {
			case nil:
				return nil, nil // proven absent
			case valueNode:
				if len(nibbles) == 0 || (len(nibbles) == 1 && nibbles[0] == 16) {
					return []byte(n), nil
				}
				return nil, nil
			case *shortNode:
				if len(nibbles) < len(n.Key) || !bytes.Equal(n.Key, nibbles[:len(n.Key)]) {
					return nil, nil // divergence proves absence
				}
				nibbles = nibbles[len(n.Key):]
				current = n.Val
			case *fullNode:
				if len(nibbles) == 0 {
					current = n.Children[16]
				} else {
					current = n.Children[nibbles[0]]
					nibbles = nibbles[1:]
				}
			case hashNode:
				expected = []byte(n)
				goto nextProofNode
			default:
				return nil, fmt.Errorf("trie: unexpected node %T in proof", n)
			}
		}
	nextProofNode:
	}
}

// SecureTrie wraps Trie with keccak-hashed keys, preventing key-length
// attacks (this is what Ethereum's state and storage tries use).
type SecureTrie struct {
	inner *Trie
}

// NewSecure creates an empty secure trie.
func NewSecure(db *Database) *SecureTrie {
	return &SecureTrie{inner: New(db)}
}

// NewSecureFromRoot opens a secure trie at a previously committed root.
func NewSecureFromRoot(db *Database, root types.Hash) (*SecureTrie, error) {
	inner, err := FromRoot(db, root)
	if err != nil {
		return nil, err
	}
	return &SecureTrie{inner: inner}, nil
}

// Database exposes the underlying node store.
func (s *SecureTrie) Database() *Database { return s.inner.db }

// Get fetches the value for the (pre-hash) key.
func (s *SecureTrie) Get(key []byte) []byte {
	return s.inner.Get(keccak.Sum256Bytes(key))
}

// Update sets the value for the (pre-hash) key.
func (s *SecureTrie) Update(key, value []byte) {
	s.inner.Update(keccak.Sum256Bytes(key), value)
}

// Delete removes the (pre-hash) key.
func (s *SecureTrie) Delete(key []byte) {
	s.inner.Delete(keccak.Sum256Bytes(key))
}

// Hash returns the root commitment.
func (s *SecureTrie) Hash() types.Hash { return s.inner.Hash() }
