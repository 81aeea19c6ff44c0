package rollup

import (
	"testing"

	"onoffchain/internal/types"
)

func mkLeaves(n int) []Leaf {
	out := make([]Leaf, n)
	for i := range out {
		var a types.Address
		a[0] = 0xAA
		a[19] = byte(i + 1)
		out[i] = Leaf{SID: uint64(i + 1), Contract: a, Outcome: uint64(i % 2)}
	}
	return out
}

func TestTreeProofsVerify(t *testing.T) {
	for _, n := range []int{1, 2, 3, 7, 8, 100, 256} {
		leaves := mkLeaves(n)
		tree, err := NewTree(8, leaves)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, l := range leaves {
			proof, err := tree.Proof(i)
			if err != nil {
				t.Fatalf("n=%d proof(%d): %v", n, i, err)
			}
			if len(proof) != 8 {
				t.Fatalf("n=%d: proof length %d, want 8", n, len(proof))
			}
			if !VerifyProof(l, i, proof, tree.Root()) {
				t.Fatalf("n=%d: proof %d does not verify", n, i)
			}
		}
	}
}

func TestProofRejectsTampering(t *testing.T) {
	leaves := mkLeaves(5)
	tree, err := NewTree(4, leaves)
	if err != nil {
		t.Fatal(err)
	}
	proof, _ := tree.Proof(2)
	// Wrong outcome in an otherwise-valid leaf: the lie the dispute path
	// must be able to refute.
	lie := leaves[2]
	lie.Outcome = 1 - lie.Outcome
	if VerifyProof(lie, 2, proof, tree.Root()) {
		t.Fatal("tampered outcome verified")
	}
	// Wrong index.
	if VerifyProof(leaves[2], 3, proof, tree.Root()) {
		t.Fatal("wrong index verified")
	}
	// Proof against a different tree's root (the stale-root case).
	other, _ := NewTree(4, mkLeaves(6))
	if VerifyProof(leaves[2], 2, proof, other.Root()) {
		t.Fatal("stale root verified")
	}
	// Out-of-range index folds past the root.
	if VerifyProof(leaves[2], 2+(1<<4), proof, tree.Root()) {
		t.Fatal("out-of-range index verified")
	}
}

func TestTreeDeterminism(t *testing.T) {
	a, _ := NewTree(6, mkLeaves(33))
	b, _ := NewTree(6, mkLeaves(33))
	if a.Root() != b.Root() {
		t.Fatal("same leaves, different roots")
	}
	c, _ := NewTree(6, mkLeaves(34))
	if a.Root() == c.Root() {
		t.Fatal("different leaves, same root")
	}
}

func TestTreeBounds(t *testing.T) {
	if _, err := NewTree(3, mkLeaves(9)); err == nil {
		t.Fatal("9 leaves fit depth-3 tree")
	}
	if _, err := NewTree(3, nil); err == nil {
		t.Fatal("empty tree built")
	}
	if _, err := NewTree(0, mkLeaves(1)); err == nil {
		t.Fatal("depth-0 tree built")
	}
	tree, err := NewTree(3, mkLeaves(8))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Proof(8); err == nil {
		t.Fatal("proof past leaf count")
	}
}
