package hub

import (
	"encoding/binary"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/whisper"
)

// newRollupHub builds a hub in batched-settlement mode on a fresh world.
func newRollupHub(tb testing.TB, mode string, workers int, rc *RollupConfig) (*Hub, *chain.Chain, *telemetry.Registry) {
	tb.Helper()
	c, net, faucetKey := miningWorld(tb, mode)
	reg := telemetry.NewRegistry()
	h := New(c, net, faucetKey, Config{Workers: workers, Telemetry: reg, Rollup: rc})
	tb.Cleanup(h.Stop)
	return h, c, reg
}

// countRollupEvents tallies the registry's lifecycle events on chain —
// the ground truth for "one post per epoch" and "each leaf opened at most
// once".
func countRollupEvents(c *chain.Chain) (posted, opened int) {
	for _, l := range c.FilterLogs(chain.FilterQuery{}) {
		if len(l.Topics) == 0 {
			continue
		}
		switch l.Topics[0] {
		case rollup.TopicEpochPosted:
			posted++
		case rollup.TopicLeafOpened:
			opened++
		}
	}
	return posted, opened
}

// requireEpochsInSealOrder asserts the registry's EpochPosted logs are exactly
// epochs 0..epochs-1, each once and in chain order, each carrying the root the
// sequencer sealed under that number, and that those epochs hold the given
// number of leaves with no session in two of them. It returns the logs.
func requireEpochsInSealOrder(t *testing.T, c *chain.Chain, h *Hub, epochs, leaves int) []*types.Log {
	t.Helper()
	reg, src := h.RollupHandles()
	logs := c.FilterLogs(chain.FilterQuery{Address: &reg.Addr, Topic: &rollup.TopicEpochPosted})
	if len(logs) != epochs {
		t.Fatalf("%d EpochPosted logs, want %d", len(logs), epochs)
	}
	inEpoch := map[uint64]int{}
	for n, l := range logs {
		ev, err := rollup.DecodeEpochPosted(l)
		if err != nil {
			t.Fatal(err)
		}
		ep, ok := src.EpochByNumber(uint64(n))
		if !ok || ev.Epoch != uint64(n) || ev.Root != ep.Root {
			t.Fatalf("post %d is epoch %d, want epoch %d with the root sealed under it", n, ev.Epoch, n)
		}
		for _, leaf := range ep.Leaves {
			if prev, dup := inEpoch[leaf.SID]; dup {
				t.Errorf("session %d has a leaf in epochs %d and %d", leaf.SID, prev, n)
			}
			inEpoch[leaf.SID] = n
		}
	}
	if len(inEpoch) != leaves {
		t.Errorf("%d sessions posted, want %d", len(inEpoch), leaves)
	}
	return logs
}

// TestRollupHonestBatch: N honest sessions settle through epochs — far
// fewer settlement transactions than sessions, every session terminal at
// rolled-up, no per-session submit or finalize transactions at all.
func TestRollupHonestBatch(t *testing.T) {
	const n = 12
	h, c, reg := newRollupHub(t, "auto", 4, &RollupConfig{Depth: 4, EpochAge: 50 * time.Millisecond})
	specs := make([]*Spec, n)
	for i := range specs {
		specs[i] = BettingSpec(4, 600, false)
	}
	reports := h.Run(specs)
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("session %d failed: %v", rep.ID, rep.Err)
		}
		if rep.Stage != StageRolledUp {
			t.Errorf("session %d terminal stage = %s, want rolled-up", rep.ID, rep.Stage)
		}
		if rep.Disputed {
			t.Errorf("honest session %d disputed", rep.ID)
		}
	}
	m := h.Metrics()
	if m.SessionsCompleted != n {
		t.Fatalf("completed = %d, want %d", m.SessionsCompleted, n)
	}
	// The point of the whole exercise: settlement commits are epochs, not
	// sessions. Per-session mode would have spent 2n transactions here.
	posted, openedOnChain := countRollupEvents(c)
	if posted == 0 || posted >= n {
		t.Errorf("epoch posts = %d, want in [1, %d)", posted, n)
	}
	if openedOnChain != 0 {
		t.Errorf("%d leaves opened for an honest fleet, want 0", openedOnChain)
	}
	if got := int(m.SettleTxs); got != posted {
		t.Errorf("SettleTxs = %d, epoch posts on chain = %d", got, posted)
	}
	if m.SettleGas == 0 {
		t.Error("SettleGas = 0, want the posts' gas")
	}
	// No per-session lifecycle events exist: nothing was submitted on any
	// session contract.
	ec := countEvents(c)
	if len(ec.submitted) != 0 || len(ec.finalized) != 0 {
		t.Errorf("per-session settle events present (submitted=%d finalized=%d contracts), want none", len(ec.submitted), len(ec.finalized))
	}
	// The sequencer's own series agree.
	if v := reg.Counter("rollup_epochs_total").Value(); int(v) != posted {
		t.Errorf("rollup_epochs_total = %d, posts = %d", int(v), posted)
	}
	if v := reg.Counter("rollup_leaves_total").Value(); v != n {
		t.Errorf("rollup_leaves_total = %d, want %d", int(v), n)
	}
}

// TestRollupDisputesFraudulentLeaf: an adversarial session's lie rides an
// epoch; the tower opens exactly that leaf against the posted root and
// enforces the true result through the unchanged dispute machinery.
func TestRollupDisputesFraudulentLeaf(t *testing.T) {
	h, c, _ := newRollupHub(t, "auto", 2, &RollupConfig{Depth: 4, EpochAge: 30 * time.Millisecond})
	rep := h.Submit(BettingSpec(4, 600, true)).Report()
	if rep.Err != nil {
		t.Fatalf("session failed: %v", rep.Err)
	}
	if rep.Stage != StageResolved {
		t.Fatalf("terminal stage = %s, want resolved", rep.Stage)
	}
	if !rep.Disputed {
		t.Fatal("fraudulent leaf was not disputed")
	}
	if rep.Submitted == rep.Result {
		t.Fatal("fixture bug: adversary enqueued the true result")
	}
	// The dispute deployed the verified instance and paid the true winner.
	requireWinnerPaid(t, rep)
	posted, opened := countRollupEvents(c)
	if posted < 1 {
		t.Fatal("no epoch was posted")
	}
	if opened != 1 {
		t.Errorf("leaves opened = %d, want exactly 1", opened)
	}
	// Exactly one dispute resolution on the session contract.
	ec := countEvents(c)
	if ec.resolved[rep.OnChainAddr] != 1 {
		t.Errorf("dispute resolutions = %d, want exactly 1", ec.resolved[rep.OnChainAddr])
	}
	// The registry remembers the leaf as opened (the on-chain
	// exactly-once veto for any later opener).
	regi, src := h.RollupHandles()
	if regi == nil {
		t.Fatal("rollup handles absent")
	}
	ep, ok := src.EpochByNumber(0)
	if !ok {
		t.Fatal("epoch 0 not cached")
	}
	seqParty := rep.Session.Parties[0]
	isOpen, err := regi.IsOpened(seqParty, ep.Number, rep.ID, rep.OnChainAddr)
	if err != nil || !isOpen {
		t.Errorf("IsOpened(epoch=%d, sid=%d) = %v, %v; want true", ep.Number, rep.ID, isOpen, err)
	}
	m := h.Metrics()
	if m.DisputesRaised != 1 || m.DisputesWon != 1 || m.LeavesOpened != 1 {
		t.Errorf("disputes raised=%d won=%d leaves-opened=%d, want 1/1/1", m.DisputesRaised, m.DisputesWon, m.LeavesOpened)
	}
}

// TestRollupConcurrentMixed is the batched-settlement analogue of the
// hub's mixed-fleet suite: honest and adversarial sessions sharing
// epochs, under both mining policies. Honest leaves roll up, fraudulent
// leaves are each opened and disputed exactly once, and the settlement
// commit count stays a small fraction of the session count.
func TestRollupConcurrentMixed(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) {
			const n = 20
			h, c, _ := newRollupHub(t, mode, 8, &RollupConfig{Depth: 4, EpochAge: 60 * time.Millisecond})
			specs := make([]*Spec, n)
			for i := range specs {
				specs[i] = BettingSpec(4, 600, i%5 == 0)
			}
			reports := h.Run(specs)
			adversarial := 0
			for i, rep := range reports {
				if rep.Err != nil {
					t.Fatalf("session %d failed: %v", rep.ID, rep.Err)
				}
				if specs[i].Adversarial {
					adversarial++
					if rep.Stage != StageResolved || !rep.Disputed {
						t.Errorf("adversarial session %d: stage=%s disputed=%t, want resolved/true", rep.ID, rep.Stage, rep.Disputed)
					}
				} else if rep.Stage != StageRolledUp || rep.Disputed {
					t.Errorf("honest session %d: stage=%s disputed=%t, want rolled-up/false", rep.ID, rep.Stage, rep.Disputed)
				}
			}
			posted, opened := countRollupEvents(c)
			if opened != adversarial {
				t.Errorf("leaves opened = %d, adversarial sessions = %d", opened, adversarial)
			}
			if posted >= n/2 {
				t.Errorf("epoch posts = %d for %d sessions: batching is not amortizing", posted, n)
			}
			ec := countEvents(c)
			for _, rep := range reports {
				if got := ec.resolved[rep.OnChainAddr]; got > 1 {
					t.Errorf("session %d: %d dispute resolutions, want at most 1", rep.ID, got)
				}
			}
			m := h.Metrics()
			if int(m.DisputesWon) != adversarial {
				t.Errorf("disputes won = %d, want %d", m.DisputesWon, adversarial)
			}
		})
	}
}

// TestRollupCrashRecovery kills the hub right after the fraudulent
// session's leaf is handed to the sequencer (before its epoch can post),
// then recovers. The recovered sequencer must reconcile whatever the
// crash left — pending leaf, sealed-but-unposted epoch, or posted epoch —
// without double-posting, and the recovered tower must open and dispute
// the fraudulent leaf exactly once.
func TestRollupCrashRecovery(t *testing.T) {
	for _, mode := range miningModes {
		mode := mode
		t.Run("mining="+mode, func(t *testing.T) {
			rollupCrashRecoveryRun(t, mode)
		})
	}
}

func rollupCrashRecoveryRun(t *testing.T, mode string) {
	c, net, faucetKey := miningWorld(t, mode)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc := &RollupConfig{Depth: 4, EpochAge: 40 * time.Millisecond}

	var h1 *Hub
	cfg := Config{Workers: 2, Store: st, Rollup: rc, StageHook: func(sid uint64, s Stage) bool {
		if s == StageSubmitted {
			h1.Kill()
		}
		return !h1.Crashed()
	}}
	h1 = New(c, net, faucetKey, cfg)
	tk := h1.Submit(BettingSpec(4, 600, true))
	rep := tk.Report()
	h1.Stop()
	if !errors.Is(rep.Err, ErrCrashed) {
		t.Fatalf("setup: session should crash after enqueue, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	postedBefore, _ := countRollupEvents(c)

	st.Close()
	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	cfg2 := Config{Workers: 2, Store: st2, Rollup: rc}
	h2, rr, err := Recover(st2, c, net, faucetKey, cfg2, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()
	resumed := rr.Resumed()
	if len(resumed) != 1 {
		t.Fatalf("resumed %d sessions, want 1", len(resumed))
	}
	rep2 := resumed[0].Report()
	if rep2.Err != nil {
		t.Fatalf("recovered session failed: %v", rep2.Err)
	}
	if rep2.Stage != StageResolved || !rep2.Disputed {
		t.Fatalf("recovered session: stage=%s disputed=%t, want resolved/true", rep2.Stage, rep2.Disputed)
	}
	// Ground truth on chain: every epoch number posted exactly once (the
	// torn-epoch reconciliation must not re-post one that landed), and the
	// fraudulent leaf opened exactly once across both generations.
	seen := map[uint64]int{}
	for _, l := range c.FilterLogs(chain.FilterQuery{Topic: &rollup.TopicEpochPosted}) {
		ev, err := rollup.DecodeEpochPosted(l)
		if err != nil {
			t.Fatal(err)
		}
		seen[ev.Epoch]++
	}
	for n, cnt := range seen {
		if cnt != 1 {
			t.Errorf("epoch %d posted %d times, want exactly once", n, cnt)
		}
	}
	posted, opened := countRollupEvents(c)
	if posted < postedBefore || posted == 0 {
		t.Errorf("epoch posts went %d -> %d", postedBefore, posted)
	}
	if opened != 1 {
		t.Errorf("leaves opened = %d across crash+recovery, want exactly 1", opened)
	}
	ec := countEvents(c)
	if got := ec.resolved[rep2.OnChainAddr]; got != 1 {
		t.Errorf("dispute resolutions = %d, want exactly 1", got)
	}
	requireWinnerPaid(t, rep2)
}

// TestRollupCrashWithEpochsInFlight kills the hub with several epochs between
// seal and receipt, on a chain that seals a block only when the test says so:
// epochs 0 and 1 sealed and sent, their posts still pooled at the kill, and
// epoch 2 sealed in the WAL with nothing sent. The snapshot taken while they
// are in flight folds to what the WAL folds to. Recover, called before the
// next block, must wait for the pooled posts to mine before it probes the
// registry, then re-post exactly epoch 2; every epoch number is posted once,
// no leaf sits in two epochs, and all five sessions roll up.
func TestRollupCrashWithEpochsInFlight(t *testing.T) {
	const n = 5
	c, net, faucetKey := manualWorld(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc := &RollupConfig{Depth: 1, EpochCap: 2, EpochAge: time.Hour}
	var enqueued atomic.Int32
	h1 := startRollupHub(t, c, net, faucetKey, Config{Workers: n, Store: st, Rollup: rc,
		StageHook: func(sid uint64, s Stage) bool {
			if s == StageSubmitted {
				enqueued.Add(1)
			}
			return true
		}})
	tickets := make([]*Ticket, n)
	for i := range tickets {
		tickets[i] = h1.Submit(BettingSpec(4, 600, false))
	}
	mineAt(t, c, setupPhases(n)...)
	// Five leaves, two to an epoch: two posts go out, the fifth leaf waits for
	// a partner that never comes.
	waitFor(t, 10*time.Second, "two epoch posts pooled and the fifth leaf enqueued", func() bool {
		return enqueued.Load() == n && c.PendingCount() == 2
	})
	recs, err := st.Replay()
	if err != nil {
		t.Fatal(err)
	}
	fromWAL, fromSnap := rollup.Fold(recs), rollup.Fold(h1.seq.StateRecords())
	if len(fromWAL.Sealed) != 2 || len(fromWAL.Pending) != 1 {
		t.Fatalf("fixture: WAL folds to %d sealed / %d pending, want 2 / 1", len(fromWAL.Sealed), len(fromWAL.Pending))
	}
	if fromSnap.Registry != fromWAL.Registry || fromSnap.PostedThru != fromWAL.PostedThru ||
		len(fromSnap.Sealed) != 2 || len(fromSnap.Pending) != 1 {
		t.Fatalf("snapshot with two epochs in flight folds to %+v, the WAL to %+v", fromSnap, fromWAL)
	}
	h1.Kill()
	for _, tk := range tickets {
		if rep := tk.Report(); !errors.Is(rep.Err, ErrCrashed) {
			t.Fatalf("killed session %d: stage=%s err=%v, want a crash", rep.ID, rep.Stage, rep.Err)
		}
	}
	h1.Stop()

	// Epoch 2, sealed and never sent: the seal's WAL record is the last thing
	// the dead generation wrote.
	var last rollup.Leaf
	for _, l := range fromWAL.Pending {
		last = l
	}
	tree, err := rollup.NewTree(rc.Depth, []rollup.Leaf{last})
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	enc := make([]byte, 36) // sid ‖ contract ‖ outcome
	binary.BigEndian.PutUint64(enc[0:8], last.SID)
	copy(enc[8:28], last.Contract[:])
	binary.BigEndian.PutUint64(enc[28:36], last.Outcome)
	if err := st.Append(&store.Record{Kind: store.KindEpochSealed, U1: 2, U2: 1, Blob: root[:], Blobs: [][]byte{enc}}); err != nil {
		t.Fatal(err)
	}

	done := recoverAsync(st, c, net, faucetKey, Config{Workers: n, Rollup: rc})
	select {
	case r := <-done:
		t.Fatalf("Recover returned (%v) with the dead generation's posts still pooled", r.err)
	case <-time.After(100 * time.Millisecond):
	}
	mineAt(t, c, 2) // the dead generation's posts: no re-post has joined them
	mineAt(t, c, 1) // epoch 2, the one that never reached the chain
	reposted := c.Height()
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	stopAtCleanup(t, r.h)
	resumed := r.rr.Resumed()
	if len(resumed) != n {
		t.Fatalf("resumed %d sessions, want %d", len(resumed), n)
	}
	for _, tk := range resumed {
		if rep := tk.Report(); rep.Err != nil || rep.Stage != StageRolledUp || rep.Disputed {
			t.Fatalf("recovered session %d: stage=%s disputed=%v err=%v, want rolled-up", rep.ID, rep.Stage, rep.Disputed, rep.Err)
		}
	}
	if c.Height() != reposted || c.PendingCount() != 0 {
		t.Errorf("chain at block %d with %d pooled, want block %d and an empty pool: recovery sent more than the one re-post", c.Height(), c.PendingCount(), reposted)
	}
	logs := requireEpochsInSealOrder(t, c, r.h, 3, n)
	if logs[2].BlockNumber != reposted || logs[1].BlockNumber != reposted-1 {
		t.Errorf("epoch 1 in block %d, epoch 2 in block %d; want blocks %d and %d", logs[1].BlockNumber, logs[2].BlockNumber, reposted-1, reposted)
	}
}

// TestRollupRecoveryHonest crashes an honest fleet mid-settlement and
// checks the recovered hub rolls every survivor up without re-posting any
// epoch that already landed and without inventing disputes.
func TestRollupRecoveryHonest(t *testing.T) {
	c, net, faucetKey := durableWorld(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rc := &RollupConfig{Depth: 4, EpochAge: 40 * time.Millisecond}

	const n = 6
	var h1 *Hub
	var killed int32
	cfg := Config{Workers: 2, Store: st, Rollup: rc, StageHook: func(sid uint64, s Stage) bool {
		// Kill when the LAST session reaches the enqueue point: earlier
		// sessions are spread across every phase of the epoch pipeline.
		if s == StageSubmitted && sid == n && killed == 0 {
			killed = 1
			h1.Kill()
		}
		return !h1.Crashed()
	}}
	h1 = New(c, net, faucetKey, cfg)
	specs := make([]*Spec, n)
	for i := range specs {
		specs[i] = BettingSpec(4, 600, false)
	}
	h1.Run(specs)
	h1.Stop()

	st.Close()
	st2, err := store.Open(st.Dir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	h2, rr, err := Recover(st2, c, net, faucetKey, Config{Workers: 2, Store: st2, Rollup: rc}, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()
	for _, tk := range rr.Resumed() {
		rep := tk.Report()
		if rep.Err != nil {
			t.Fatalf("recovered session %d failed: %v", rep.ID, rep.Err)
		}
		if rep.Stage != StageRolledUp || rep.Disputed {
			t.Errorf("recovered session %d: stage=%s disputed=%t, want rolled-up/false", rep.ID, rep.Stage, rep.Disputed)
		}
	}
	seen := map[uint64]int{}
	for _, l := range c.FilterLogs(chain.FilterQuery{Topic: &rollup.TopicEpochPosted}) {
		ev, err := rollup.DecodeEpochPosted(l)
		if err != nil {
			t.Fatal(err)
		}
		seen[ev.Epoch]++
	}
	for num, cnt := range seen {
		if cnt != 1 {
			t.Errorf("epoch %d posted %d times, want exactly once", num, cnt)
		}
	}
	if _, opened := countRollupEvents(c); opened != 0 {
		t.Errorf("%d leaves opened for an honest fleet, want 0", opened)
	}
	if ec := countEvents(c); len(ec.submitted) != 0 {
		t.Errorf("per-session submissions appeared during recovery: %d contracts", len(ec.submitted))
	}
}

// TestRollupDifferentialOracle runs the same mixed fleet through both
// settlement modes on twin worlds and requires identical outcomes —
// results, dispute verdicts, payouts — with the rollup spending a
// fraction of the settlement transactions. Per-session mode is the
// oracle the batched path must agree with.
func TestRollupDifferentialOracle(t *testing.T) {
	const n = 10
	specAt := func(i int) *Spec { return BettingSpec(4, 600, i%5 == 0) }

	// Per-session world.
	hP, cP := newTestHub(t, 4)
	specsP := make([]*Spec, n)
	for i := range specsP {
		specsP[i] = specAt(i)
	}
	repP := hP.Run(specsP)

	// Rollup world (fresh chain, same fleet).
	hR, cR, _ := newRollupHub(t, "auto", 4, &RollupConfig{Depth: 4, EpochAge: 50 * time.Millisecond})
	specsR := make([]*Spec, n)
	for i := range specsR {
		specsR[i] = specAt(i)
	}
	repR := hR.Run(specsR)

	for i := 0; i < n; i++ {
		p, r := repP[i], repR[i]
		if p.Err != nil || r.Err != nil {
			t.Fatalf("session %d: per-session err=%v rollup err=%v", i, p.Err, r.Err)
		}
		if p.Result != r.Result {
			t.Errorf("session %d: result diverged per-session=%d rollup=%d", i, p.Result, r.Result)
		}
		if p.Disputed != r.Disputed {
			t.Errorf("session %d: disputed diverged per-session=%t rollup=%t", i, p.Disputed, r.Disputed)
		}
		if p.Disputed {
			requireWinnerPaid(t, p)
			requireWinnerPaid(t, r)
		}
	}
	// The cost axis: settlement commits collapse.
	mP, mR := hP.Metrics(), hR.Metrics()
	if mR.SettleTxs >= mP.SettleTxs {
		t.Errorf("settle txs: rollup %d vs per-session %d — no amortization", mR.SettleTxs, mP.SettleTxs)
	}
	if mR.SettleGas >= mP.SettleGas {
		t.Errorf("settle gas: rollup %d vs per-session %d — no amortization", mR.SettleGas, mP.SettleGas)
	}
	_ = cP
	_ = cR
}

// TestRollupWindowBookkeeping: after a mixed run nothing is left guarded
// or pending — rolled-up sessions were released, disputed ones settled.
func TestRollupWindowBookkeeping(t *testing.T) {
	h, _, _ := newRollupHub(t, "auto", 4, &RollupConfig{Depth: 3, EpochAge: 40 * time.Millisecond})
	specs := []*Spec{
		BettingSpec(4, 600, false), BettingSpec(4, 600, true),
		BettingSpec(4, 600, false), BettingSpec(4, 600, false),
	}
	for _, rep := range h.Run(specs) {
		if rep.Err != nil {
			t.Fatalf("session %d failed: %v", rep.ID, rep.Err)
		}
	}
	if w := h.Watchtower().OpenWindows(); w != 0 {
		t.Errorf("%d windows still open", w)
	}
	if p := h.Watchtower().PendingDisputes(); p != 0 {
		t.Errorf("%d dispute decisions still pending", p)
	}
	if n := len(h.Watchtower().Watches()); n != 0 {
		t.Errorf("%d sessions still guarded after all terminals", n)
	}
}

var _ = []interface{}{hybrid.TopicDisputeResolved, types.Address{}, whisper.NewNetwork}

// epochPosters returns, in chain order, who sent each postEpoch the hub's
// registry accepted.
func epochPosters(t *testing.T, c *chain.Chain, h *Hub) []types.Address {
	t.Helper()
	reg, _ := h.RollupHandles()
	var out []types.Address
	for _, l := range c.FilterLogs(chain.FilterQuery{Address: &reg.Addr, Topic: &rollup.TopicEpochPosted}) {
		b, err := c.BlockByNumber(l.BlockNumber)
		if err != nil {
			t.Fatal(err)
		}
		from, err := b.Transactions[l.TxIndex].Sender()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, from)
	}
	return out
}

// TestSequencerKeyDerivedFromHubSecret: the one address a registry lets post
// epochs is minted from the hub's secret like every other key, so hubs on
// different faucet keys do not share it — and it is generation-stable: a
// recovered hub posts, as the same sequencer, to the registry the dead
// generation deployed.
func TestSequencerKeyDerivedFromHubSecret(t *testing.T) {
	c, net, faucetKey := durableWorld(t)
	otherKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE8))
	if err != nil {
		t.Fatal(err)
	}
	otherAddr := types.Address(otherKey.EthereumAddress())
	if _, err := hybrid.NewParticipant(faucetKey, c, nil).SendTx(&otherAddr, eth(10_000), 21_000, nil); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rc := &RollupConfig{Depth: 2, EpochAge: 20 * time.Millisecond}
	cfg := Config{Workers: 1, Store: st, Rollup: rc}
	rollUp := func(h *Hub) {
		t.Helper()
		if rep := h.Submit(BettingSpec(4, 600, false)).Report(); rep.Err != nil || rep.Stage != StageRolledUp {
			t.Fatalf("stage=%s err=%v, want rolled up", rep.Stage, rep.Err)
		}
	}

	h1 := New(c, net, faucetKey, cfg)
	other := New(c, net, otherKey, Config{Workers: 1, Rollup: rc})
	defer other.Stop()
	rollUp(h1)
	rollUp(other)
	seq := epochPosters(t, c, h1)
	if otherSeq := epochPosters(t, c, other); len(seq) != 1 || len(otherSeq) != 1 || seq[0] == otherSeq[0] {
		t.Fatalf("sequencers %v and %v, want one post each from different addresses", seq, otherSeq)
	}

	reg1, _ := h1.RollupHandles()
	h1.Kill()
	h1.Stop()
	h2, _, err := Recover(st, c, net, faucetKey, cfg, testRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Stop()
	if reg2, _ := h2.RollupHandles(); reg2.Addr != reg1.Addr {
		t.Fatalf("recovered hub posts to registry %s, the dead generation deployed %s", reg2.Addr.Hex(), reg1.Addr.Hex())
	}
	rollUp(h2)
	if got := epochPosters(t, c, h2); len(got) != 2 || got[1] != seq[0] {
		t.Fatalf("posters across the crash: %v, want two posts from %s", got, seq[0].Hex())
	}
}
