// Package rollup amortizes on-chain settlement cost across many
// sessions: a sequencer collects finished-session outcomes into epochs,
// builds a Merkle root over per-session (sid, contract, outcome) leaves,
// and posts ONE transaction per epoch to a generated rollup-registry
// contract — replacing N individual submit/finalize transactions. The
// challenge window moves to the batch: disputing means opening one leaf
// against the posted root (Merkle proof + the existing signed-copy fraud
// evidence), so watchtowers guard the rollup root instead of per-session
// settlements and the whole dispute stack downstream of the leaf-open is
// unchanged.
package rollup

import (
	"fmt"

	"onoffchain/internal/keccak"
	"onoffchain/internal/types"
)

// Leaf is one settled session inside an epoch: the session, the on-chain
// contract it would otherwise have settled, and the claimed outcome.
type Leaf struct {
	SID      uint64
	Contract types.Address
	Outcome  uint64
}

// Hash is the leaf commitment the registry contract recomputes on a
// leaf-open: keccak256 over three 32-byte words — sid, the contract
// address left-padded to a word, and the outcome. Word-aligned so the
// generated Solo contract can mirror it with a single keccak256(sid,
// uint(who), outcome) over its scalar arguments.
func (l Leaf) Hash() types.Hash {
	var buf [96]byte
	putWord(buf[0:32], l.SID)
	copy(buf[44:64], l.Contract[:])
	putWord(buf[64:96], l.Outcome)
	return types.Hash(keccak.Sum256(buf[:]))
}

func putWord(dst []byte, v uint64) {
	for i := 0; i < 8; i++ {
		dst[31-i] = byte(v >> (8 * i))
	}
}

// Tree is a fixed-depth binary Merkle tree over an epoch's leaves,
// zero-padded on the right with precomputed empty-subtree hashes, so
// every proof is exactly Depth siblings — which is what lets the
// generated registry contract verify proofs with an unrolled scalar
// argument list (the Solo language has no array parameters).
type Tree struct {
	depth  int
	leaves []Leaf
	// levels[0] = leaf hashes (only the occupied prefix), levels[d] the
	// occupied prefix of level d; absent right siblings are zeroSub[d].
	levels [][]types.Hash
	root   types.Hash
}

// zeroSubtrees returns the empty-subtree hash chain: z[0] is the
// all-zero word (an unoccupied leaf slot — distinct from any real leaf
// hash, which is a keccak output of structured input), z[d+1] =
// keccak(z[d] ‖ z[d]).
func zeroSubtrees(depth int) []types.Hash {
	z := make([]types.Hash, depth+1)
	for d := 0; d < depth; d++ {
		z[d+1] = types.Hash(keccak.Sum256(z[d][:], z[d][:]))
	}
	return z
}

// NewTree builds the tree for one epoch. len(leaves) must be in
// [1, 2^depth].
func NewTree(depth int, leaves []Leaf) (*Tree, error) {
	if depth < 1 || depth > 16 {
		return nil, fmt.Errorf("rollup: tree depth %d out of range [1,16]", depth)
	}
	if len(leaves) == 0 || len(leaves) > 1<<depth {
		return nil, fmt.Errorf("rollup: %d leaves does not fit depth-%d tree", len(leaves), depth)
	}
	zero := zeroSubtrees(depth)
	t := &Tree{depth: depth, leaves: leaves, levels: make([][]types.Hash, depth+1)}
	level := make([]types.Hash, len(leaves))
	for i, l := range leaves {
		level[i] = l.Hash()
	}
	t.levels[0] = level
	for d := 0; d < depth; d++ {
		next := make([]types.Hash, (len(level)+1)/2)
		for i := range next {
			left := level[2*i]
			right := zero[d]
			if 2*i+1 < len(level) {
				right = level[2*i+1]
			}
			next[i] = types.Hash(keccak.Sum256(left[:], right[:]))
		}
		t.levels[d+1] = next
		level = next
	}
	t.root = level[0]
	return t, nil
}

// Root returns the epoch commitment posted on chain.
func (t *Tree) Root() types.Hash { return t.root }

// Proof returns the Merkle proof for leaf index i: exactly Depth sibling
// hashes, leaf level first.
func (t *Tree) Proof(i int) ([]types.Hash, error) {
	if i < 0 || i >= len(t.leaves) {
		return nil, fmt.Errorf("rollup: proof index %d out of range [0,%d)", i, len(t.leaves))
	}
	zero := zeroSubtrees(t.depth)
	proof := make([]types.Hash, t.depth)
	idx := i
	for d := 0; d < t.depth; d++ {
		sib := idx ^ 1
		if sib < len(t.levels[d]) {
			proof[d] = t.levels[d][sib]
		} else {
			proof[d] = zero[d]
		}
		idx >>= 1
	}
	return proof, nil
}

// VerifyProof folds a leaf and its proof back to a root — the exact
// computation the generated registry contract performs on openLeaf.
// Standalone so federation towers can check a gossiped epoch's
// consistency without rebuilding the full tree.
func VerifyProof(leaf Leaf, index int, proof []types.Hash, root types.Hash) bool {
	h := leaf.Hash()
	idx := index
	for _, sib := range proof {
		if idx&1 == 1 {
			h = types.Hash(keccak.Sum256(sib[:], h[:]))
		} else {
			h = types.Hash(keccak.Sum256(h[:], sib[:]))
		}
		idx >>= 1
	}
	return idx == 0 && h == root
}
