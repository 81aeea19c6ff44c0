package rollup

import (
	"testing"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

func eth(n uint64) *uint256.Int {
	return new(uint256.Int).Mul(uint256.NewInt(n), uint256.NewInt(1e18))
}

func newParty(t *testing.T, scalar uint64, c *chain.Chain) *hybrid.Participant {
	t.Helper()
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(scalar))
	if err != nil {
		t.Fatal(err)
	}
	return hybrid.NewParticipant(key, c, nil)
}

// registryFixture deploys a depth-4 registry with seq as sequencer.
func registryFixture(t *testing.T) (*chain.Chain, *hybrid.Participant, *hybrid.Participant, *Registry) {
	t.Helper()
	keySeq, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x5EC))
	keyOther, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x07E6))
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		types.Address(keySeq.EthereumAddress()):   eth(100),
		types.Address(keyOther.EthereumAddress()): eth(100),
	})
	seq := hybrid.NewParticipant(keySeq, c, nil)
	other := hybrid.NewParticipant(keyOther, c, nil)
	bind, err := DeployRegistryAsync(seq, 4, seq.Addr, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := bind()
	if err != nil {
		t.Fatal(err)
	}
	return c, seq, other, reg
}

// landed waits for the receipt of a transaction one of the registry's
// …Async calls pooled from p; a send error comes back as is.
func landed(p *hybrid.Participant) func(types.Hash, error) (*types.Receipt, error) {
	return func(hash types.Hash, err error) (*types.Receipt, error) {
		if err != nil {
			return nil, err
		}
		return p.WaitReceipt(hash)
	}
}

// postedEvents decodes the registry's EpochPosted logs, in chain order.
func postedEvents(t *testing.T, c *chain.Chain, reg *Registry) []*EpochPostedEvent {
	t.Helper()
	var out []*EpochPostedEvent
	for _, l := range c.FilterLogs(chain.FilterQuery{Address: &reg.Addr, Topic: &TopicEpochPosted}) {
		ev, err := DecodeEpochPosted(l)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ev)
	}
	return out
}

func TestRegistryPostAndOpen(t *testing.T) {
	c, seq, other, reg := registryFixture(t)

	leaves := mkLeaves(5)
	tree, err := NewTree(4, leaves)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := landed(seq)(reg.PostEpochAsync(seq, tree.Root(), uint64(len(leaves)), 500_000))
	if err != nil || !rec.Succeeded() {
		t.Fatalf("postEpoch: %v", err)
	}
	if rec.GasUsed == 0 {
		t.Fatal("postEpoch gas not accounted")
	}
	evs := postedEvents(t, c, reg)
	if len(evs) != 1 {
		t.Fatalf("%d EpochPosted logs, want 1", len(evs))
	}
	if ev := evs[0]; ev.Epoch != 0 || ev.Root != tree.Root() || ev.Count != 5 {
		t.Fatalf("EpochPosted = epoch %d root %x count %d, want epoch 0 root %x count 5", ev.Epoch, ev.Root, ev.Count, tree.Root())
	}
	b, err := c.BlockByNumber(rec.BlockNumber)
	if err != nil {
		t.Fatal(err)
	}
	posts := reg.Posts(c)
	if p, ok := posts[0]; !ok || p.Root != tree.Root() || p.At != b.Time() {
		t.Fatalf("Posts()[0] = %x, %d, %t; want %x at the post's block time %d", p.Root, p.At, ok, tree.Root(), b.Time())
	}
	if _, ok := posts[1]; ok || len(posts) != 1 {
		t.Fatalf("Posts() = %v: an epoch nobody posted", posts)
	}

	// Anyone (not just the sequencer) can open a committed leaf within
	// the window — the honest party files the dispute.
	proof, _ := tree.Proof(3)
	r, err := landed(other)(reg.OpenLeafAsync(other, 0, leaves[3], 3, proof, 500_000))
	if err != nil || !r.Succeeded() {
		t.Fatalf("openLeaf: %v (receipt %+v)", err, r)
	}
	if got := len(r.Logs); got != 1 {
		t.Fatalf("openLeaf emitted %d logs", got)
	}
	if r.Logs[0].Topics[0] != TopicLeafOpened {
		t.Fatal("wrong topic on LeafOpened")
	}
	// The registry remembers the leaf as opened: a second open of it
	// reverts, and the chain carries exactly one LeafOpened log.
	if r, err := landed(seq)(reg.OpenLeafAsync(seq, 0, leaves[3], 3, proof, 500_000)); err == nil && r.Succeeded() {
		t.Fatal("second open of an opened leaf succeeded")
	}
	if opened := c.FilterLogs(chain.FilterQuery{Address: &reg.Addr, Topic: &TopicLeafOpened}); len(opened) != 1 {
		t.Fatalf("%d LeafOpened logs, want 1", len(opened))
	}
}

func TestRegistryRejectsFraudulentOpens(t *testing.T) {
	c, seq, other, reg := registryFixture(t)

	leaves := mkLeaves(6)
	tree, _ := NewTree(4, leaves)
	if r, err := landed(seq)(reg.PostEpochAsync(seq, tree.Root(), 6, 500_000)); err != nil || !r.Succeeded() {
		t.Fatalf("postEpoch: %v", err)
	}

	proof, _ := tree.Proof(1)

	// A leaf with a lied-about outcome must not open: the proof will not
	// fold back to the root.
	lie := leaves[1]
	lie.Outcome = 1 - lie.Outcome
	if r, err := landed(other)(reg.OpenLeafAsync(other, 0, lie, 1, proof, 500_000)); err == nil && r.Succeeded() {
		t.Fatal("lied outcome opened against the root")
	}

	// Unposted epoch.
	if r, err := landed(other)(reg.OpenLeafAsync(other, 7, leaves[1], 1, proof, 500_000)); err == nil && r.Succeeded() {
		t.Fatal("open against unposted epoch succeeded")
	}

	// Honest open succeeds once…
	if r, err := landed(other)(reg.OpenLeafAsync(other, 0, leaves[1], 1, proof, 500_000)); err != nil || !r.Succeeded() {
		t.Fatalf("honest open: %v", err)
	}
	// …and the second open of the SAME leaf reverts: the on-chain
	// exactly-once veto for batched disputes.
	if r, err := landed(seq)(reg.OpenLeafAsync(seq, 0, leaves[1], 1, proof, 500_000)); err == nil && r.Succeeded() {
		t.Fatal("double open succeeded")
	}

	// Stale root: a proof computed against a DIFFERENT epoch's tree must
	// not open a leaf of this one.
	tree2, _ := NewTree(4, mkLeaves(9))
	if r, err := landed(seq)(reg.PostEpochAsync(seq, tree2.Root(), 9, 500_000)); err != nil || !r.Succeeded() {
		t.Fatalf("postEpoch: %v", err)
	}
	staleProof, _ := tree.Proof(2) // epoch-0 proof…
	if r, err := landed(other)(reg.OpenLeafAsync(other, 1, leaves[2], 2, staleProof, 500_000)); err == nil && r.Succeeded() {
		t.Fatal("stale-root proof opened a leaf of epoch 1")
	}

	// Window expiry: past the batch challenge window the leaf can no
	// longer be opened (mirror of per-session finalize semantics).
	c.AdvanceTime(700)
	p2, _ := tree2.Proof(0)
	nine := mkLeaves(9)
	if r, err := landed(other)(reg.OpenLeafAsync(other, 1, nine[0], 0, p2, 500_000)); err == nil && r.Succeeded() {
		t.Fatal("open succeeded after window expiry")
	}
}

func TestRegistryOnlySequencerPosts(t *testing.T) {
	_, _, other, reg := registryFixture(t)
	tree, _ := NewTree(4, mkLeaves(2))
	if r, err := landed(other)(reg.PostEpochAsync(other, tree.Root(), 2, 500_000)); err == nil && r.Succeeded() {
		t.Fatal("non-sequencer posted an epoch")
	}
}
