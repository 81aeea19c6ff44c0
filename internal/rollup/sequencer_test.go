package rollup

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
)

// recordLog is a thread-safe WAL stand-in capturing sequencer records.
type recordLog struct {
	mu   sync.Mutex
	recs []*store.Record
}

func (r *recordLog) log(rec *store.Record) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := *rec
	r.recs = append(r.recs, &cp)
	return nil
}

func (r *recordLog) all() []*store.Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*store.Record{}, r.recs...)
}

func seqFixture(t *testing.T) (*chain.Chain, *hybrid.Participant) {
	t.Helper()
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x5EC0))
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		types.Address(key.EthereumAddress()): eth(1000),
	})
	return c, hybrid.NewParticipant(key, c, nil)
}

func newSeq(t *testing.T, party *hybrid.Participant, cfg Config, wal *recordLog) *Sequencer {
	t.Helper()
	cfg.Party = party
	if wal != nil {
		cfg.Journal = wal.log
	}
	if cfg.Window == 0 {
		cfg.Window = 600
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSequencerBatchesLeaves(t *testing.T) {
	_, party := seqFixture(t)
	wal := &recordLog{}
	reg := telemetry.NewRegistry()
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 30 * time.Millisecond, Telemetry: reg}, wal)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()

	leaves := mkLeaves(10)
	futs := make([]*Future, len(leaves))
	for i, l := range leaves {
		f, err := s.Enqueue(l, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	seen := map[uint64]bool{}
	for i, f := range futs {
		e, idx, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("leaf %d: %v", i, err)
		}
		if e.Leaves[idx].SID != leaves[i].SID {
			t.Fatalf("leaf %d resolved at wrong index", i)
		}
		proof, err := e.Tree.Proof(idx)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyProof(leaves[i], idx, proof, e.Root) {
			t.Fatalf("leaf %d: epoch proof does not verify", i)
		}
		seen[e.Number] = true
	}
	// All 10 arrived before the first age deadline: they must have been
	// batched into very few epochs (usually one), not one tx per session.
	if len(seen) > 3 {
		t.Fatalf("10 leaves spread over %d epochs — batching is broken", len(seen))
	}
	snap := reg.Snapshot()
	if snap["rollup_leaves_total"] != 10 {
		t.Fatalf("rollup_leaves_total = %v, want 10", snap["rollup_leaves_total"])
	}
	if snap["rollup_epochs_total"] == 0 || snap["rollup_post_gas_total"] == 0 {
		t.Fatalf("epoch/gas series not populated: %v", snap)
	}
	// Idempotent re-enqueue of an already-posted leaf resolves instantly.
	f, err := s.Enqueue(leaves[3], telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if e, _, err := f.Wait(ctx); err != nil || !seen[e.Number] {
		t.Fatalf("re-enqueue: %v", err)
	}
}

func TestSequencerSealsAtCap(t *testing.T) {
	_, party := seqFixture(t)
	s := newSeq(t, party, Config{Depth: 3, EpochCap: 4, EpochAge: time.Hour}, nil)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	var futs []*Future
	for _, l := range mkLeaves(8) {
		f, err := s.Enqueue(l, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	epochs := map[uint64]int{}
	for _, f := range futs {
		e, _, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		epochs[e.Number]++
	}
	// EpochAge is an hour, so only the cap can have sealed: 8 leaves in
	// exactly 2 full epochs of 4.
	if len(epochs) != 2 {
		t.Fatalf("got %d epochs, want 2 (cap-sealed): %v", len(epochs), epochs)
	}
	for n, c := range epochs {
		if c != 4 {
			t.Fatalf("epoch %d has %d leaves, want 4", n, c)
		}
	}
}

// TestSequencerRecoversTornEpoch is the crash-consistency core: a WAL
// that says "sealed" but not "posted" must be reconciled against the
// chain — re-posted when the transaction never landed, NOT re-posted
// when it did (the double-post hazard).
func TestSequencerRecoversTornEpoch(t *testing.T) {
	_, party := seqFixture(t)
	wal := &recordLog{}
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, wal)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	leaves := mkLeaves(3)
	var futs []*Future
	for _, l := range leaves {
		f, _ := s.Enqueue(l, telemetry.TraceContext{})
		futs = append(futs, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, f := range futs {
		if _, _, err := f.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	s.Halt()

	// Case 1 — "posted landed, crash before KindEpochPosted": drop the
	// posted record from the WAL. The recovered sequencer probes the
	// registry, sees epoch 0's root on chain, and must NOT post again.
	var torn []*store.Record
	for _, r := range wal.all() {
		if r.Kind == store.KindEpochPosted {
			continue
		}
		torn = append(torn, r)
	}
	s2 := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, &recordLog{})
	if err := s2.Seed(Fold(torn)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Start(); err != nil {
		t.Fatal(err)
	}
	if n, err := s2.Registry().Epochs(party); err != nil || n != 1 {
		t.Fatalf("after recovery, on-chain epochs = %d (%v), want 1 — double-post!", n, err)
	}
	// The recovered cache still serves the epoch for open batch windows.
	if e, ok := s2.EpochByNumber(0); !ok || len(e.Leaves) != 3 {
		t.Fatal("recovered sequencer lost epoch 0")
	}
	s2.Stop()

	// Case 2 — "crash between seal and post": append a sealed record the
	// chain never saw. Recovery must post exactly it, once.
	extra := mkLeaves(6)[3:]
	tree2, err := NewTree(4, extra)
	if err != nil {
		t.Fatal(err)
	}
	root2 := tree2.Root()
	blobs := make([][]byte, len(extra))
	for i, l := range extra {
		blobs[i] = encodeLeaf(l)
	}
	torn2 := append(wal.all(), &store.Record{
		Kind: store.KindEpochSealed, U1: 1, U2: uint64(len(extra)),
		Blob: root2[:], Blobs: blobs,
	})
	s3 := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, &recordLog{})
	if err := s3.Seed(Fold(torn2)); err != nil {
		t.Fatal(err)
	}
	if err := s3.Start(); err != nil {
		t.Fatal(err)
	}
	defer s3.Stop()
	if n, err := s3.Registry().Epochs(party); err != nil || n != 2 {
		t.Fatalf("torn epoch not re-posted: on-chain epochs = %d (%v), want 2", n, err)
	}
	if root, err := s3.Registry().RootOf(party, 1); err != nil || root != root2 {
		t.Fatalf("re-posted epoch root mismatch: %x", root)
	}
}

// TestSequencerReenqueuesPendingLeaves: leaves enqueued (KindEpochLeaf)
// but never sealed before the crash must flow into the next incarnation's
// first epoch.
func TestSequencerReenqueuesPendingLeaves(t *testing.T) {
	_, party := seqFixture(t)
	// Hand-craft a WAL: registry deployed by a live run, plus two orphan
	// leaves.
	wal := &recordLog{}
	boot := newSeq(t, party, Config{Depth: 4, EpochAge: time.Hour}, wal)
	if err := boot.Start(); err != nil { // deploys + journals the registry
		t.Fatal(err)
	}
	boot.Halt()
	leaves := mkLeaves(2)
	recs := wal.all()
	for _, l := range leaves {
		recs = append(recs, &store.Record{Kind: store.KindEpochLeaf, SID: l.SID, U1: l.Outcome, Blob: l.Contract[:]})
	}
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, &recordLog{})
	if err := s.Seed(Fold(recs)); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	// The re-enqueued leaves post without anyone calling Enqueue; their
	// sessions re-attach by enqueueing again and resolve instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n, _ := s.Registry().Epochs(party); n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("pending leaves never posted")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	f, err := s.Enqueue(leaves[0], telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	if e, idx, err := f.Wait(ctx); err != nil || e.Leaves[idx].SID != leaves[0].SID {
		t.Fatalf("re-attach: %v", err)
	}
}

func TestFoldStateRoundTrip(t *testing.T) {
	c, party := seqFixture(t)
	wal := &recordLog{}
	s := newSeq(t, party, Config{Depth: 4, EpochAge: 20 * time.Millisecond}, wal)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var futs []*Future
	for _, l := range mkLeaves(3) {
		f, _ := s.Enqueue(l, telemetry.TraceContext{})
		futs = append(futs, f)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var first *Epoch
	for _, f := range futs {
		e, _, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		first = e
	}
	// StateRecords (the compaction snapshot contribution) must fold back
	// to the same durable state as the full WAL.
	fromWAL := Fold(wal.all())
	fromSnap := Fold(s.StateRecords())
	defer s.Stop()
	if fromWAL.Registry != fromSnap.Registry || fromWAL.PostedThru != fromSnap.PostedThru {
		t.Fatalf("snapshot fold diverges: %+v vs %+v", fromWAL, fromSnap)
	}
	if len(fromSnap.Pending) != 0 || len(fromSnap.Sealed) != 0 {
		t.Fatalf("clean shutdown left pending/sealed state: %+v", fromSnap)
	}
	if len(fromSnap.postedEpochs) != len(fromWAL.postedEpochs) {
		t.Fatalf("posted epochs lost in snapshot: %d vs %d", len(fromSnap.postedEpochs), len(fromWAL.postedEpochs))
	}
	// A post evicts every epoch whose window closed before it: once chain
	// time is past the first epoch's window, the next post drops it from the
	// proof cache and from the snapshot.
	c.AdvanceTime(600 + 1)
	f, err := s.Enqueue(Leaf{SID: 99, Contract: types.BytesToAddress([]byte{0x99}), Outcome: 1}, telemetry.TraceContext{})
	if err != nil {
		t.Fatal(err)
	}
	next, _, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cached := s.CachedEpochs(); len(cached) != 1 || cached[0].Number != next.Number {
		t.Fatalf("proof cache holds %d epochs after epoch %d, want it alone (epoch %d's window closed)", len(cached), next.Number, first.Number)
	}
	if got := Fold(s.StateRecords()); len(got.postedEpochs) != 1 || got.postedEpochs[next.Number] == nil {
		t.Fatalf("snapshot after epoch %d carries %d posted epochs, want it alone", next.Number, len(got.postedEpochs))
	}
}

// manualSeqFixture is seqFixture on a chain that seals a block only when the
// test says so: which block a post lands in is then a fact of the run.
func manualSeqFixture(t *testing.T) (*chain.Chain, *hybrid.Participant) {
	t.Helper()
	key, _ := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0x5EC0))
	cfg := chain.DefaultConfig()
	cfg.AutoMine = false
	c := chain.New(cfg, map[types.Address]*uint256.Int{
		types.Address(key.EthereumAddress()): eth(1000),
	})
	return c, hybrid.NewParticipant(key, c, nil)
}

// awaitPool waits until exactly n transactions are pooled.
func awaitPool(t *testing.T, c *chain.Chain, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for c.PendingCount() != n {
		if time.Now().After(deadline) {
			t.Fatalf("pool holds %d transactions, want %d", c.PendingCount(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// startManual runs Start on the manual chain, sealing one block for each
// entry of pools once the pool holds that many transactions.
func startManual(t *testing.T, c *chain.Chain, s *Sequencer, pools ...int) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- s.Start() }()
	for _, n := range pools {
		awaitPool(t, c, n)
		c.MineBlock()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("Start still running after %d blocks (pool holds %d)", len(pools), c.PendingCount())
	}
}

// enqueueAll hands the leaves to the sequencer in order.
func enqueueAll(t *testing.T, s *Sequencer, leaves []Leaf) []*Future {
	t.Helper()
	futs := make([]*Future, len(leaves))
	for i, l := range leaves {
		f, err := s.Enqueue(l, telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	return futs
}

// requireEpochsInSealOrder asserts the registry's EpochPosted events are
// exactly epochs 0..want-1, each once and in chain order, each carrying the
// root the sequencer sealed under that number, with no leaf in two epochs.
func requireEpochsInSealOrder(t *testing.T, c *chain.Chain, s *Sequencer, want int) {
	t.Helper()
	logs := c.FilterLogs(chain.FilterQuery{Address: &s.Registry().Addr, Topic: &TopicEpochPosted})
	if len(logs) != want {
		t.Fatalf("%d epochs on chain, want %d", len(logs), want)
	}
	inEpoch := map[uint64]int{}
	for n, l := range logs {
		ev, err := DecodeEpochPosted(l)
		if err != nil {
			t.Fatal(err)
		}
		ep, ok := s.EpochByNumber(uint64(n))
		if !ok || ev.Epoch != uint64(n) || ev.Root != ep.Root {
			t.Fatalf("post %d is epoch %d, want epoch %d with the root sealed under it", n, ev.Epoch, n)
		}
		for _, l := range ep.Leaves {
			if prev, dup := inEpoch[l.SID]; dup {
				t.Errorf("leaf %d is in epochs %d and %d", l.SID, prev, n)
			}
			inEpoch[l.SID] = n
		}
	}
}

// sealedOf hand-writes the record of an epoch that was sealed and never sent.
func sealedOf(t *testing.T, depth int, number uint64, leaves []Leaf) *store.Record {
	t.Helper()
	tree, err := NewTree(depth, leaves)
	if err != nil {
		t.Fatal(err)
	}
	return sealedRecord(&Epoch{Number: number, Root: tree.Root(), Leaves: leaves})
}

// requireSameFold asserts two folds describe the same durable state.
func requireSameFold(t *testing.T, what string, got, want *Folded) {
	t.Helper()
	if got.Registry != want.Registry || got.Window != want.Window || got.Depth != want.Depth || got.PostedThru != want.PostedThru {
		t.Fatalf("%s: registry/window/depth/posted-thru %s/%d/%d/%d, want %s/%d/%d/%d", what,
			got.Registry.Hex(), got.Window, got.Depth, got.PostedThru, want.Registry.Hex(), want.Window, want.Depth, want.PostedThru)
	}
	if len(got.Pending) != len(want.Pending) || len(got.Sealed) != len(want.Sealed) || len(got.postedEpochs) != len(want.postedEpochs) {
		t.Fatalf("%s: %d pending / %d sealed / %d posted, want %d / %d / %d", what,
			len(got.Pending), len(got.Sealed), len(got.postedEpochs), len(want.Pending), len(want.Sealed), len(want.postedEpochs))
	}
	for sid, l := range want.Pending {
		if got.Pending[sid] != l {
			t.Fatalf("%s: pending leaf %d is %+v, want %+v", what, sid, got.Pending[sid], l)
		}
	}
	for i, ss := range want.Sealed {
		if g := got.Sealed[i]; g.number != ss.number || g.root != ss.root || len(g.leaves) != len(ss.leaves) {
			t.Fatalf("%s: sealed[%d] is epoch %d, want epoch %d with the same root and leaves", what, i, g.number, ss.number)
		}
	}
}

// Posts pipeline: with one leaf per epoch, k leaves are k sealed epochs whose
// posts all sit in the pool before any receipt exists, and one block carries
// them numbered in seal order. A kill at that point leaves k posts pooled; the
// sequencer recovered before the next block must wait for them to mine before
// it probes, or it would find every root absent, post each epoch again and
// shift every later number.
func TestSequencerRecoversWithPostsPooled(t *testing.T) {
	const k = 3
	c, party := manualSeqFixture(t)
	wal := &recordLog{}
	cfg := Config{Depth: 2, EpochCap: 1, EpochAge: time.Hour}
	s := newSeq(t, party, cfg, wal)
	startManual(t, c, s, 1) // the registry's creation
	leaves := mkLeaves(k + 1)
	enqueueAll(t, s, leaves[:k])
	awaitPool(t, c, k)
	s.Halt()

	s2 := newSeq(t, party, cfg, wal)
	if err := s2.Seed(Fold(wal.all())); err != nil {
		t.Fatal(err)
	}
	started := make(chan error, 1)
	go func() { started <- s2.Start() }()
	select {
	case err := <-started:
		t.Fatalf("Start returned (%v) with the dead generation's posts still pooled", err)
	case <-time.After(100 * time.Millisecond):
	}
	if n := c.PendingCount(); n != k {
		t.Fatalf("pool holds %d transactions, want the dead generation's %d posts and no re-post", n, k)
	}
	posts := c.MineBlock()
	if err := <-started; err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()
	if n := c.PendingCount(); n != 0 {
		t.Fatalf("%d transactions pooled after reconciliation: a landed epoch was re-posted", n)
	}
	// The recovered generation's next epoch continues the count.
	fut := enqueueAll(t, s2, leaves[k:])[0]
	awaitPool(t, c, 1)
	c.MineBlock()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if e, _, err := fut.Wait(ctx); err != nil || e.Number != k {
		t.Fatalf("epoch after recovery: %+v, %v; want epoch %d", e, err, k)
	}

	requireEpochsInSealOrder(t, c, s2, k+1)
	if len(posts.Transactions) != k {
		t.Errorf("the dead generation's posts took a block of %d transactions, want all %d in one", len(posts.Transactions), k)
	}
}

// A crash with several epochs in flight: two sealed and sent (their posts are
// pooled at the kill and mine post-mortem) and two sealed with nothing sent.
// The snapshot taken while they are in flight folds to what the WAL folds to;
// recovery re-posts exactly the two that never reached the chain, in order, in
// one block, and journals the four landings in order.
func TestSequencerRecoversEpochsInFlight(t *testing.T) {
	c, party := manualSeqFixture(t)
	wal := &recordLog{}
	cfg := Config{Depth: 2, EpochCap: 1, EpochAge: time.Hour}
	s := newSeq(t, party, cfg, wal)
	startManual(t, c, s, 1)
	leaves := mkLeaves(4)
	enqueueAll(t, s, leaves[:2])
	awaitPool(t, c, 2)

	fromWAL := Fold(wal.all())
	if len(fromWAL.Sealed) != 2 {
		t.Fatalf("fixture: %d epochs in flight, want 2", len(fromWAL.Sealed))
	}
	snap := s.StateRecords()
	requireSameFold(t, "fold(snapshot)", Fold(snap), fromWAL)
	requireSameFold(t, "fold(records ++ replay)", Fold(append(wal.all(), snap...)), fromWAL)
	s.Halt()

	recs := append(wal.all(), sealedOf(t, cfg.Depth, 2, leaves[2:3]), sealedOf(t, cfg.Depth, 3, leaves[3:4]))
	wal2 := &recordLog{}
	s2 := newSeq(t, party, cfg, wal2)
	if err := s2.Seed(Fold(recs)); err != nil {
		t.Fatal(err)
	}
	startManual(t, c, s2, 2, 2) // the dead generation's two posts, then the two re-posts
	defer s2.Stop()
	reposts := c.Latest()

	requireEpochsInSealOrder(t, c, s2, 4)
	for n := range leaves {
		if ep, _ := s2.EpochByNumber(uint64(n)); len(ep.Leaves) != 1 || ep.Leaves[0] != leaves[n] {
			t.Fatalf("epoch %d holds %+v, want leaf %d alone", n, ep.Leaves, n)
		}
	}
	if len(reposts.Transactions) != 2 || len(reposts.Receipts[0].Logs) != 1 || len(reposts.Receipts[1].Logs) != 1 {
		t.Fatalf("block %d holds %d transactions, want exactly the two re-posts", reposts.Number(), len(reposts.Transactions))
	}
	var landed []uint64
	for _, r := range wal2.all() {
		if r.Kind == store.KindEpochPosted {
			landed = append(landed, r.U1)
		}
	}
	if len(landed) != 4 || landed[0] != 0 || landed[1] != 1 || landed[2] != 2 || landed[3] != 3 {
		t.Errorf("landings journaled as %v, want 0 1 2 3", landed)
	}
}

// The landing-order check. The sequencer's key posts an epoch the sequencer
// did not send, so the registry's count runs one ahead: the next sealed epoch
// lands under the wrong number. The sequencer must halt — every open ticket
// fails with ErrHalted, later enqueues are refused — and write no
// KindEpochPosted for the epoch that did not land where it was sealed.
func TestSequencerHaltsOnLandingMismatch(t *testing.T) {
	c, party := manualSeqFixture(t)
	wal := &recordLog{}
	s := newSeq(t, party, Config{Depth: 2, EpochCap: 1, EpochAge: time.Hour}, wal)
	startManual(t, c, s, 1)
	defer s.Stop()
	leaves := mkLeaves(4)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	first := enqueueAll(t, s, leaves[:1])[0]
	awaitPool(t, c, 1)
	c.MineBlock()
	if e, _, err := first.Wait(ctx); err != nil || e.Number != 0 {
		t.Fatalf("epoch 0: %+v, %v", e, err)
	}

	// Out of band, and pooled ahead of the sequencer's own next post.
	rogue, err := NewTree(2, leaves[3:])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Registry().PostEpochAsync(party, rogue.Root(), 1, 500_000); err != nil {
		t.Fatal(err)
	}
	futs := enqueueAll(t, s, leaves[1:3]) // sealed as epochs 1 and 2, landing as 2 and 3
	awaitPool(t, c, 3)
	c.MineBlock()
	for i, f := range futs {
		if _, _, err := f.Wait(ctx); !errors.Is(err, ErrHalted) {
			t.Errorf("ticket of leaf %d resolved with %v, want ErrHalted", i+1, err)
		}
	}
	if _, err := s.Enqueue(leaves[3], telemetry.TraceContext{}); !errors.Is(err, ErrHalted) {
		t.Errorf("enqueue after the halt: %v, want ErrHalted", err)
	}
	for _, r := range wal.all() {
		if r.Kind == store.KindEpochPosted && r.U1 != 0 {
			t.Errorf("KindEpochPosted(%d) journaled for an epoch that landed under another number", r.U1)
		}
	}
}

func TestLeafCodec(t *testing.T) {
	for _, l := range mkLeaves(5) {
		got, ok := decodeLeaf(encodeLeaf(l))
		if !ok || got != l {
			t.Fatalf("leaf round-trip: %+v -> %+v", l, got)
		}
	}
	if _, ok := decodeLeaf([]byte{1, 2, 3}); ok {
		t.Fatal("short leaf decoded")
	}
}
