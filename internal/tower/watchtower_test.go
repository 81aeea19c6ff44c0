package tower

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// world is a chain whose genesis funds every party key the tests use, and a
// whisper network on its clock. autoMine false leaves sealing to the test.
func world(t *testing.T, autoMine bool) (*chain.Chain, *whisper.Network) {
	t.Helper()
	cfg := chain.DefaultConfig()
	cfg.AutoMine = autoMine
	alloc := map[types.Address]*uint256.Int{}
	for i := range partyKeys {
		alloc[types.Address(partyKey(t, i).EthereumAddress())] = new(uint256.Int).Mul(uint256.NewInt(100), uint256.NewInt(1e18))
	}
	c := chain.New(cfg, alloc)
	return c, whisper.NewNetwork(c.Now)
}

// partyKeys are the scalars of the parties signedSession draws from, two per
// session, and last the rollup sequencer's.
var partyKeys = []uint64{0x7001, 0x7002, 0x7003, 0x7004, 0x7005}

func partyKey(t *testing.T, i int) *secp256k1.PrivateKey {
	t.Helper()
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(partyKeys[i]))
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// signedSession deploys the betting contract between parties 2n and 2n+1
// on an auto-mined chain, has both deposit and signs the off-chain copy: a
// session ready to guard, nothing submitted.
func signedSession(t *testing.T, c *chain.Chain, net *whisper.Network, n int) *hybrid.Session {
	t.Helper()
	pol := hybrid.BettingPolicy(600)
	pol.LifecycleEvents = true
	split, err := hybrid.Split(hybrid.BettingSource, "Betting", pol)
	if err != nil {
		t.Fatal(err)
	}
	parties := []*hybrid.Participant{
		hybrid.NewParticipant(partyKey(t, 2*n), c, net),
		hybrid.NewParticipant(partyKey(t, 2*n+1), c, net),
	}
	sess, err := hybrid.NewSession(split, parties)
	if err != nil {
		t.Fatal(err)
	}
	t1 := c.Now() + 1_000_000_000 // far past any clock move in these tests
	ctorArgs := []interface{}{parties[0].Addr, parties[1].Addr, t1, 2 * t1, 3 * t1, uint64(0x5ec4e7a), uint64(0x5ec4e7b), uint64(4)}
	if _, err := sess.DeployOnChain(3_000_000, ctorArgs...); err != nil {
		t.Fatal(err)
	}
	deposit := new(uint256.Int).Mul(uint256.NewInt(1), uint256.NewInt(1e18))
	for _, p := range parties {
		if r, err := p.Invoke(split.OnChain, sess.OnChainAddr, deposit, 300_000, "deposit"); err != nil || !r.Succeeded() {
			t.Fatalf("deposit: %v", err)
		}
	}
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		t.Fatal(err)
	}
	return sess
}

// submitLie has the session's last party submit the opposite of the
// off-chain outcome.
func submitLie(t *testing.T, sess *hybrid.Session) {
	t.Helper()
	out, err := hybrid.ExecuteOffChain(sess.Copy.Bytecode)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := sess.SubmitResult(len(sess.Parties)-1, 1-out.Result); err != nil || !r.Succeeded() {
		t.Fatalf("lie did not land: %v", err)
	}
}

// blockOf is the number of the one block carrying addr's log under topic.
func blockOf(t *testing.T, c *chain.Chain, addr types.Address, topic types.Hash) uint64 {
	t.Helper()
	logs := c.FilterLogs(chain.FilterQuery{Address: &addr, Topic: &topic})
	if len(logs) != 1 {
		t.Fatalf("%d logs with topic %s on %s, want exactly 1", len(logs), topic.Hex(), addr.Hex())
	}
	return logs[0].BlockNumber
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A tower's block loop reads the blocks sealed after it starts; a guard
// reads its own contract's older ones. On a tower created at height N, a
// lie mined at or below N is disputed when its contract is guarded, and a
// lie mined after the guard by the block loop.
func TestTowerStartsAtTheHead(t *testing.T) {
	c, net := world(t, true)
	early, late := signedSession(t, c, net, 0), signedSession(t, c, net, 1)

	submitLie(t, early)
	n := c.Height()
	tower := NewWatchtower(c, nil, nil, nil)
	defer tower.Stop()
	guard := func(sess *hybrid.Session) *Watch {
		t.Helper()
		e, err := tower.Guard(sess, 0, "", telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := guard(early)
	// The loop reads from N+1 on: the guard itself read the lie.
	if m := tower.Metrics(); m.SubmissionsSeen != 1 {
		t.Fatalf("after the guard, the tower saw %d submissions, want the lie at or below N", m.SubmissionsSeen)
	}
	tower.WaitVerdict(e, n)
	if _, won := hybrid.Settlement(c, e.Contract()); !e.Disputed() || !won {
		t.Fatalf("lie at or below N: raised=%v won=%v, want an enforced dispute", e.Disputed(), won)
	}

	e = guard(late)
	head := c.Height()
	submitLie(t, late)
	if got := blockOf(t, c, e.Contract(), hybrid.TopicResultSubmitted); got != head+1 {
		t.Fatalf("second lie in block %d, want %d", got, head+1)
	}
	tower.WaitVerdict(e, head+1)
	if _, won := hybrid.Settlement(c, e.Contract()); !e.Disputed() || !won {
		t.Fatalf("lie after the guard: raised=%v won=%v, want an enforced dispute", e.Disputed(), won)
	}
	if m := tower.Metrics(); m.SubmissionsSeen != 2 {
		t.Fatalf("tower saw %d submissions, want each lie once", m.SubmissionsSeen)
	}
}

// stopOnGuard stops its tower from another goroutine the moment a guard
// is taken — while that guard reads its contract's history — and reports
// how many windows were still pending when Stop returned.
type stopOnGuard struct {
	w       *Watchtower
	pending chan int
}

func (o stopOnGuard) Guarded(*Watch, types.Address) {
	go func() {
		o.w.Stop()
		o.pending <- o.w.PendingDisputes()
	}()
}

func (o stopOnGuard) WindowClosed(types.Address) {}

// A guard that reads a lie from its contract's history while another
// goroutine stops the tower either counts its dispute pacer before Stop
// waits for pacers, or starts none: once Stop returns no pacer runs and no
// window is pending. The gate defers every filing, so the lie stays open
// for the next round.
func TestStopWhileGuardingALie(t *testing.T) {
	c, net := world(t, true)
	sess := signedSession(t, c, net, 0)
	submitLie(t, sess)
	never := func(types.Address, time.Duration) time.Duration { return time.Hour }
	for i := 0; i < 500; i++ {
		tower := NewWatchtower(c, nil, nil, nil)
		o := stopOnGuard{w: tower, pending: make(chan int, 1)}
		tower.Federate(o, never)
		if _, err := tower.Guard(sess, 0, "", telemetry.TraceContext{}); err != nil {
			t.Fatal(err)
		}
		if n := <-o.pending; n != 0 {
			t.Fatalf("round %d: %d windows pending when Stop returned", i, n)
		}
		if n := tower.PendingDisputes(); n != 0 {
			t.Fatalf("round %d: a pacer started after Stop: %d windows pending", i, n)
		}
	}
	if settled, err := sess.IsSettled(); err != nil || settled {
		t.Fatalf("settled=%v err=%v: a stopped tower filed a dispute", settled, err)
	}
}

// A halted tower reads nothing more: blocks keep sealing, and its processed
// watermark stays where the halt found it while a live tower on the same
// chain reads them.
func TestHaltedTowerWatermarkFreezes(t *testing.T) {
	c, _ := world(t, false)
	processed := func(w *Watchtower) uint64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.processed
	}
	halted := NewWatchtower(c, nil, nil, nil)
	defer halted.Stop()
	c.MineBlock()
	halted.WaitCaughtUp(c.Height())
	frozen := processed(halted)
	halted.Halt()

	live := NewWatchtower(c, nil, nil, nil)
	defer live.Stop()
	for i := 0; i < 3; i++ {
		c.MineBlock()
	}
	waitFor(t, 5*time.Second, "the live tower to read every block", func() bool { return processed(live) == c.Height() })
	if got := processed(halted); got != frozen {
		t.Fatalf("halted tower's watermark moved from %d to %d", frozen, got)
	}
	halted.WaitCaughtUp(c.Height()) // a halted tower releases its barriers at once
}

// The clock step waits for every verdict: with a lie's filing deferred by
// the gate, AdvanceTime neither returns nor moves the clock; once the gate
// lets the filing through, the lie is enforced inside its window and the
// clock jumps after that. A stopped tower moves nothing.
func TestAdvanceTimeWaitsForEveryVerdict(t *testing.T) {
	c, net := world(t, true)
	sess := signedSession(t, c, net, 0)
	tw := NewWatchtower(c, nil, nil, nil)
	defer tw.Stop()
	var hold atomic.Bool
	hold.Store(true)
	tw.Federate(nil, func(types.Address, time.Duration) time.Duration {
		if hold.Load() {
			return time.Millisecond
		}
		return 0
	})
	if _, err := tw.Guard(sess, 0, "", telemetry.TraceContext{}); err != nil {
		t.Fatal(err)
	}
	submitLie(t, sess)
	waitFor(t, 5*time.Second, "the lie's filing to be deferred", func() bool { return tw.PendingDisputes() == 1 })
	before := c.Now()
	jumped := make(chan error, 1)
	go func() { jumped <- tw.AdvanceTime(601) }()
	select {
	case err := <-jumped:
		t.Fatalf("the clock step returned (err %v) with the lie's verdict pending", err)
	case <-time.After(50 * time.Millisecond):
	}
	if now := c.Now(); now != before {
		t.Fatalf("clock moved %d s with the lie's verdict pending", now-before)
	}
	hold.Store(false)
	if err := <-jumped; err != nil {
		t.Fatal(err)
	}
	blockTime := func(topic types.Hash) uint64 {
		b, err := c.BlockByNumber(blockOf(t, c, sess.OnChainAddr, topic))
		if err != nil {
			t.Fatal(err)
		}
		return b.Time()
	}
	submitted, resolved := blockTime(hybrid.TopicResultSubmitted), blockTime(hybrid.TopicDisputeResolved)
	if resolved > submitted+600 {
		t.Errorf("lie submitted at %d, enforced at %d: after its window", submitted, resolved)
	}
	if now := c.Now(); now != resolved+601 {
		t.Errorf("clock at %d after the step, want the enforcing block's %d + 601", now, resolved)
	}
	tw.Stop()
	if err := tw.AdvanceTime(601); err == nil || c.Now() != resolved+601 {
		t.Fatalf("a stopped tower's clock step: err=%v, clock %d → %d", err, resolved+601, c.Now())
	}
}

// oneEpoch serves one epoch the way a sequencer does while its post is in
// flight or landed.
type oneEpoch struct {
	reg *rollup.Registry
	ep  *rollup.Epoch
}

func (s oneEpoch) Registry() *rollup.Registry { return s.reg }

func (s oneEpoch) EpochByNumber(n uint64) (*rollup.Epoch, bool) { return s.ep, n == s.ep.Number }

func (s oneEpoch) CachedEpochs() []*rollup.Epoch { return []*rollup.Epoch{s.ep} }

// closes records the contracts whose guards the tower ended.
type closes struct {
	mu     sync.Mutex
	closed map[types.Address]bool
}

func (o *closes) Guarded(*Watch, types.Address) {}

func (o *closes) WindowClosed(c types.Address) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.closed[c] = true
}

// An epoch carrying an honest leaf and a lie: its post opens a batch window
// per guarded leaf at the post's block time. The tower releases the honest
// leaf's guard on its sandbox's clean verdict, and opens the lying leaf
// against the posted root ahead of the dispute that enforces it; both
// guards end, and the spans name the leaf open and the filing.
func TestBatchWindowDisputesTheLyingLeaf(t *testing.T) {
	c, net := world(t, true)
	honest, lying := signedSession(t, c, net, 0), signedSession(t, c, net, 1)
	outcome := func(sess *hybrid.Session) uint64 {
		out, err := hybrid.ExecuteOffChain(sess.Copy.Bytecode)
		if err != nil {
			t.Fatal(err)
		}
		return out.Result
	}
	seq := hybrid.NewParticipant(partyKey(t, 4), c, nil)
	bind, err := rollup.DeployRegistryAsync(seq, 2, seq.Addr, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := bind()
	if err != nil {
		t.Fatal(err)
	}
	leaves := []rollup.Leaf{
		{SID: 1, Contract: honest.OnChainAddr, Outcome: outcome(honest)},
		{SID: 2, Contract: lying.OnChainAddr, Outcome: 1 - outcome(lying)},
	}
	tree, err := rollup.NewTree(2, leaves)
	if err != nil {
		t.Fatal(err)
	}
	tr := telemetry.NewTracer(64)
	tw := NewWatchtower(c, nil, tr, oneEpoch{reg, &rollup.Epoch{Number: 0, Root: tree.Root(), Tree: tree, Leaves: leaves}})
	defer tw.Stop()
	o := &closes{closed: map[types.Address]bool{}}
	tw.Federate(o, nil)
	watches := make([]*Watch, 2)
	for i, sess := range []*hybrid.Session{honest, lying} {
		if watches[i], err = tw.Guard(sess, uint64(i+1), "betting", telemetry.TraceContext{}); err != nil {
			t.Fatal(err)
		}
	}
	hash, err := reg.PostEpochAsync(seq, tree.Root(), 2, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := seq.WaitReceipt(hash); err != nil || !r.Succeeded() {
		t.Fatalf("postEpoch: %v", err)
	}
	tw.WaitCaughtUp(c.Height())

	if watches[0].Disputed() || tw.Guarding(honest.OnChainAddr) {
		t.Errorf("honest leaf: disputed=%v guarded=%v, want released clean", watches[0].Disputed(), tw.Guarding(honest.OnChainAddr))
	}
	if _, won := hybrid.Settlement(c, lying.OnChainAddr); !watches[1].Disputed() || !won {
		t.Fatalf("lying leaf: disputed=%v won=%v, want an enforced dispute", watches[1].Disputed(), won)
	}
	opened := c.FilterLogs(chain.FilterQuery{Address: &reg.Addr, Topic: &rollup.TopicLeafOpened})
	if enforced := blockOf(t, c, lying.OnChainAddr, hybrid.TopicDisputeResolved); len(opened) != 1 || opened[0].BlockNumber > enforced {
		t.Fatalf("%d LeafOpened logs, want one, no later than the block %d that enforced the dispute", len(opened), enforced)
	}
	if m := tw.Metrics(); m.LeavesOpened != 1 || m.DisputesRaised != 1 || m.DisputesWon != 1 || tw.OpenWindows() != 0 || len(tw.Watches()) != 0 {
		t.Errorf("metrics %+v, %d windows open, %d guards: want one leaf opened, one dispute won, nothing left", m, tw.OpenWindows(), len(tw.Watches()))
	}
	o.mu.Lock()
	if !o.closed[honest.OnChainAddr] || !o.closed[lying.OnChainAddr] {
		t.Errorf("guards ended %v, want both", o.closed)
	}
	o.mu.Unlock()
	for _, name := range []string{"window_open", "leaf_open", "dispute", "settled"} {
		found := false
		for _, sp := range telemetry.Select(tr.Spans(), 2, "tower") {
			found = found || sp.Name == name
		}
		if !found {
			t.Errorf("no tower/%s span for the lying leaf", name)
		}
	}
}
