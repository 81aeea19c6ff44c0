// Package trie implements Ethereum's Merkle Patricia Trie: a radix trie
// over hex nibbles with three node kinds (short/extension, full/branch,
// value), hex-prefix compact key encoding, RLP node encoding, and the
// standard commitment rule (nodes whose encoding is >= 32 bytes are
// referenced by their keccak256 hash; smaller nodes embed inline).
//
// It backs the state and storage commitments of the chain.
package trie

import (
	"bytes"
	"fmt"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rlp"
	"onoffchain/internal/types"
)

// EmptyRoot is the root hash of an empty trie: keccak256(rlp("")).
var EmptyRoot = types.Hash(keccak.Sum256([]byte{0x80}))

// node is one of: *shortNode, *fullNode, valueNode, or nil. A node never
// changes once linked into a trie: an update copies the path it changes,
// so a copied Trie value is a snapshot that later updates to either copy
// leave alone. The one write is a node's ref, set once by the first Hash
// that reaches it. A node with a ref has refs all the way down, so a Hash
// after an update encodes only the copied path, and concurrent readers of
// a hashed trie never write to it.
type node interface{}

type (
	// shortNode covers both leaves (key has terminator, val is valueNode)
	// and extensions (no terminator, val is a child node).
	shortNode struct {
		Key []byte // hex nibbles, possibly ending in the 0x10 terminator
		Val node
		ref *rlp.Item // see refOf; nil until a Hash computes it
	}
	// fullNode is a 17-ary branch: 16 nibble children plus a value slot.
	fullNode struct {
		Children [17]node
		ref      *rlp.Item
	}
	valueNode []byte
)

// Database holds nothing: a trie keeps its nodes in memory and no reader
// opens an older root. The type remains because benchmark/probes.go
// passes one to New.
type Database struct{}

// NewDatabase returns a Database.
func NewDatabase() *Database { return &Database{} }

// Trie is a Merkle Patricia Trie. The zero value is an empty trie, and
// copying a Trie value takes a snapshot.
type Trie struct {
	root node
}

// New returns an empty trie; db is ignored.
func New(db *Database) *Trie { return &Trie{} }

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

func prefixLen(a, b []byte) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// Get returns the value for key, or nil if absent.
func (t *Trie) Get(key []byte) []byte {
	v := get(t.root, keybytesToHex(key))
	if v == nil {
		return nil
	}
	return append([]byte{}, v...)
}

func get(n node, key []byte) valueNode {
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
		return get(n.Val, key[len(n.Key):])
	case *fullNode:
		if len(key) == 0 {
			if v, ok := n.Children[16].(valueNode); ok {
				return v
			}
			return nil
		}
		return get(n.Children[key[0]], key[1:])
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
	t.root = insert(t.root, keybytesToHex(key), valueNode(append([]byte{}, value...)))
}

func insert(n node, key []byte, value valueNode) node {
	if len(key) == 0 {
		return value
	}
	switch n := n.(type) {
	case nil:
		return &shortNode{Key: append([]byte{}, key...), Val: value}
	case *shortNode:
		match := prefixLen(key, n.Key)
		if match == len(n.Key) {
			return &shortNode{Key: n.Key, Val: insert(n.Val, key[match:], value)}
		}
		// Split: create a branch at the divergence point.
		branch := &fullNode{}
		attach(branch, n.Key[match:], n.Val)
		attach(branch, key[match:], value)
		if match == 0 {
			return branch
		}
		return &shortNode{Key: append([]byte{}, key[:match]...), Val: branch}
	case *fullNode:
		cp := &fullNode{Children: n.Children}
		cp.Children[key[0]] = insert(n.Children[key[0]], key[1:], value)
		return cp
	case valueNode:
		// Existing value at this exact position being extended: move it
		// into a branch's value slot.
		branch := &fullNode{}
		branch.Children[16] = n
		attach(branch, key, value)
		return branch
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// attach places (key, val) under a branch node; key may be empty, a single
// terminator, or longer.
func attach(branch *fullNode, key []byte, val node) {
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
	hexKey := keybytesToHex(key)
	if get(t.root, hexKey) != nil {
		t.root = remove(t.root, hexKey)
	}
}

// remove deletes key, which must be present, copying the path to it.
func remove(n node, key []byte) node {
	switch n := n.(type) {
	case valueNode:
		return nil
	case *shortNode:
		match := prefixLen(key, n.Key)
		if match == len(key) {
			return nil // exact leaf removal
		}
		child := remove(n.Val, key[match:])
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
		cp := &fullNode{Children: n.Children}
		if len(key) == 0 {
			cp.Children[16] = nil
		} else {
			cp.Children[key[0]] = remove(n.Children[key[0]], key[1:])
		}
		return collapse(cp)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// collapse reduces a branch with fewer than two occupied slots back into a
// short node, preserving canonical structure.
func collapse(n *fullNode) node {
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
	if sn, ok := child.(*shortNode); ok {
		merged := append([]byte{byte(pos)}, sn.Key...)
		return &shortNode{Key: merged, Val: sn.Val}
	}
	return &shortNode{Key: []byte{byte(pos)}, Val: child}
}

var emptyRef = rlp.Bytes(nil)

// encodeNode builds the RLP item tree for a short or full node.
func encodeNode(n node) *rlp.Item {
	switch n := n.(type) {
	case *shortNode:
		return rlp.List(rlp.Bytes(hexToCompact(n.Key)), encodeRef(n.Val))
	case *fullNode:
		items := make([]*rlp.Item, 17)
		for i := 0; i < 16; i++ {
			items[i] = encodeRef(n.Children[i])
		}
		if v, ok := n.Children[16].(valueNode); ok {
			items[16] = rlp.Bytes(v)
		} else {
			items[16] = emptyRef
		}
		return rlp.List(items...)
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// encodeRef returns the reference encoding of a child, computing and
// caching it on the node if no earlier Hash has.
func encodeRef(n node) *rlp.Item {
	switch n := n.(type) {
	case nil:
		return emptyRef
	case valueNode:
		return rlp.Bytes(n)
	case *shortNode:
		if n.ref == nil {
			n.ref = refOf(encodeNode(n))
		}
		return n.ref
	case *fullNode:
		if n.ref == nil {
			n.ref = refOf(encodeNode(n))
		}
		return n.ref
	default:
		panic(fmt.Sprintf("trie: unknown node type %T", n))
	}
}

// refOf turns a node's item into its reference: the item itself when its
// encoding is under 32 bytes, else the keccak hash of the encoding.
func refOf(item *rlp.Item) *rlp.Item {
	if enc := rlp.Encode(item); len(enc) >= 32 {
		return rlp.Bytes(keccak.Sum256Bytes(enc))
	}
	return item
}

// Hash returns the root commitment. Only the nodes changed since the last
// Hash are encoded; every other subtree answers from its cached ref.
//
// The walk is serial: fanning the top-level branch's subtrees across
// goroutines read slower at every size tried (DESIGN §8 "Verdicts").
func (t *Trie) Hash() types.Hash {
	if t.root == nil {
		return EmptyRoot
	}
	ref := encodeRef(t.root)
	if ref.Kind == rlp.KindBytes {
		return types.BytesToHash(ref.Bytes)
	}
	// The root is hashed even when its encoding is short enough to embed.
	return types.Hash(keccak.Sum256(rlp.Encode(ref)))
}

// SecureTrie wraps Trie with keccak-hashed keys, preventing key-length
// attacks (this is what Ethereum's state and storage tries use). The zero
// value is an empty trie, and copying a SecureTrie value takes a snapshot.
type SecureTrie struct {
	inner Trie
}

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
