package hub

import (
	"errors"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// Block waits on the session critical path, counted on a chain that seals a
// block only when the test says so (AutoMine off, no mining driver). Every
// hub worker parks in a receipt wait between phases, so "the pool holds
// exactly the transactions of this phase" is a deterministic point to seal
// at, and which block an event lands in is a fact of the run, not of the
// scheduler.

// manualWorld is miningWorld without a miner.
func manualWorld(tb testing.TB) (*chain.Chain, *whisper.Network, *secp256k1.PrivateKey) {
	tb.Helper()
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		tb.Fatal(err)
	}
	ccfg := chain.DefaultConfig()
	ccfg.AutoMine = false
	applyTestExec(tb, &ccfg)
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	return c, whisper.NewNetwork(c.Now), faucetKey
}

// stopAtCleanup tears a manual-world hub down when the test ends. Kill
// first: after a failed assertion nobody seals another block, and a plain
// Stop would wait forever on workers parked in receipt waits.
func stopAtCleanup(tb testing.TB, h *Hub) {
	tb.Cleanup(func() {
		h.Kill()
		h.Stop()
	})
}

// mineAt seals one block per entry of depths, each once exactly that many
// transactions are pooled. Waiting for the count — not for time to pass —
// is the manual chain's only clock.
func mineAt(tb testing.TB, c *chain.Chain, depths ...int) {
	tb.Helper()
	for _, n := range depths {
		waitFor(tb, 10*time.Second, "the pool to hold the next phase's transactions", func() bool { return c.PendingCount() == n })
		c.MineBlock()
	}
}

// One session's phases up to its result submission, as pool depths per
// concurrently running session: the worker's shard refill, the two funding
// transfers, the deploy, the two deposits. (The tower's and sequencer's
// transactions follow and are scripted by each test.)
func setupPhases(sessions int) []int {
	return []int{sessions, 2 * sessions, sessions, 2 * sessions}
}

// blockOf returns the block of the one log on addr with the topic.
func blockOf(tb testing.TB, c *chain.Chain, addr types.Address, topic types.Hash) uint64 {
	tb.Helper()
	logs := c.FilterLogs(chain.FilterQuery{Address: &addr, Topic: &topic})
	if len(logs) != 1 {
		tb.Fatalf("%d logs with topic %s on %s, want exactly 1", len(logs), topic.Hex(), addr.Hex())
	}
	return logs[0].BlockNumber
}

// A lone per-session dispute is enforced in the block right after the lie:
// deployVerifiedInstance and returnDisputeResolution share it.
func TestLoneDisputeEnforcedNextBlock(t *testing.T) {
	c, net, faucetKey := manualWorld(t)
	tr := telemetry.NewTracer(0)
	h := New(c, net, faucetKey, Config{Workers: 1, Tracer: tr})
	stopAtCleanup(t, h)
	tk := h.Submit(BettingSpec(4, 600, true))
	mineAt(t, c, setupPhases(1)...)
	mineAt(t, c, 1) // the fraudulent submitResult
	mineAt(t, c, 2) // the tower's dispute, both transactions
	rep := tk.Report()
	if rep.Err != nil || rep.Stage != StageResolved || !rep.Disputed {
		t.Fatalf("stage=%s disputed=%v err=%v, want a resolved dispute", rep.Stage, rep.Disputed, rep.Err)
	}
	lie := blockOf(t, c, rep.OnChainAddr, hybrid.TopicResultSubmitted)
	if got := blockOf(t, c, rep.OnChainAddr, hybrid.TopicDisputeResolved); got != lie+1 {
		t.Errorf("lie in block %d, enforced in block %d, want %d", lie, got, lie+1)
	}
	if c.PendingCount() != 0 {
		t.Errorf("%d transactions pooled after the dispute resolved (a needless fallback?)", c.PendingCount())
	}
	requireWinnerPaid(t, rep)
	var attrs string
	for _, sp := range tr.SID(rep.ID) {
		if sp.Layer == "tower" && sp.Name == "dispute" {
			attrs = sp.Attrs
		}
	}
	if attrs != "enforced=true fallback=false" {
		t.Errorf("tower/dispute span attrs = %q, want enforced=true fallback=false", attrs)
	}
}

// Rollup mode, an honest and a lying session sharing one epoch. The lie is
// enforced two blocks after it is handed to the sequencer — the epoch post,
// then leaf-open + dispute pair in one block — and the honest session
// reports as soon as the epoch is posted, while the lie's dispute is still
// sitting in the pool.
func TestRollupHonestLeafDoesNotWaitForLie(t *testing.T) {
	c, net, faucetKey := manualWorld(t)
	var h *Hub
	started := make(chan struct{})
	go func() {
		defer close(started)
		h = New(c, net, faucetKey, Config{Workers: 2, Rollup: &RollupConfig{Depth: 2, EpochCap: 2, EpochAge: time.Hour}})
	}()
	mineAt(t, c, 1, 1) // fund the sequencer, deploy the registry
	<-started
	stopAtCleanup(t, h)

	honest := h.Submit(BettingSpec(4, 600, false))
	lying := h.Submit(BettingSpec(4, 600, true))
	mineAt(t, c, setupPhases(2)...)
	mineAt(t, c, 1) // postEpoch: both leaves
	waitFor(t, 10*time.Second, "the lie's leaf-open and dispute pair to be pooled", func() bool { return c.PendingCount() == 3 })
	select {
	case <-honest.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("honest leaf did not report in the block its epoch posted: it is waiting on the lie's dispute")
	}
	if rep := honest.Report(); rep.Err != nil || rep.Stage != StageRolledUp || rep.Disputed {
		t.Fatalf("honest leaf: stage=%s disputed=%v err=%v, want rolled-up", rep.Stage, rep.Disputed, rep.Err)
	}
	if p := h.tower.PendingDisputes(); p != 1 {
		t.Fatalf("%d verdicts pending while the lie's dispute is unmined, want 1", p)
	}
	select {
	case <-lying.Done():
		t.Fatal("lying session reported before its dispute was mined")
	default:
	}
	mineAt(t, c, 3)
	rep := lying.Report()
	if rep.Err != nil || rep.Stage != StageResolved || !rep.Disputed {
		t.Fatalf("lying leaf: stage=%s disputed=%v err=%v, want a resolved dispute", rep.Stage, rep.Disputed, rep.Err)
	}
	reg, _ := h.RollupHandles()
	posted := blockOf(t, c, reg.Addr, rollup.TopicEpochPosted)
	if got := blockOf(t, c, reg.Addr, rollup.TopicLeafOpened); got != posted+1 {
		t.Errorf("epoch posted in block %d, leaf opened in block %d, want %d", posted, got, posted+1)
	}
	if got := blockOf(t, c, rep.OnChainAddr, hybrid.TopicDisputeResolved); got != posted+1 {
		t.Errorf("epoch posted in block %d, lie enforced in block %d, want %d", posted, got, posted+1)
	}
	requireWinnerPaid(t, rep)
}

// All verdicts before any clock jump: an honest per-session owner whose own
// verdict is long reached still may not call advancePast while another
// session's dispute is in flight. The barrier span shows which wait held it.
func TestHonestOwnerHoldsClockWhileVerdictPending(t *testing.T) {
	c, net, faucetKey := manualWorld(t)
	tr := telemetry.NewTracer(4096)
	h := New(c, net, faucetKey, Config{Workers: 2, Tracer: tr})
	stopAtCleanup(t, h)
	honest := h.Submit(BettingSpec(4, 600, false))
	lying := h.Submit(BettingSpec(4, 600, true))
	mineAt(t, c, setupPhases(2)...)
	mineAt(t, c, 2) // both submitResults, one block
	waitFor(t, 10*time.Second, "the lie's dispute pair to be pooled", func() bool { return c.PendingCount() == 2 })
	before := c.Now()
	select {
	case <-honest.Done():
		t.Fatal("honest session finished while another session's verdict was pending")
	case <-time.After(100 * time.Millisecond):
	}
	if c.Now() != before || c.PendingCount() != 2 {
		t.Fatalf("clock moved %d s, pool %d: the honest owner passed the clock barrier with a verdict pending", c.Now()-before, c.PendingCount())
	}
	mineAt(t, c, 2) // the dispute
	if rep := lying.Report(); rep.Err != nil || rep.Stage != StageResolved {
		t.Fatalf("lying session: stage=%s err=%v", rep.Stage, rep.Err)
	}
	mineAt(t, c, 1) // the honest finalizeResult, now past the jump
	rep := honest.Report()
	if rep.Err != nil || rep.Stage != StageSettled || rep.Disputed {
		t.Fatalf("honest session: stage=%s disputed=%v err=%v, want settled", rep.Stage, rep.Disputed, rep.Err)
	}
	if c.Now() < before+600 {
		t.Errorf("clock moved %d s, the finalize needed a jump past the 600 s window", c.Now()-before)
	}
	for _, tk := range []*Ticket{honest, lying} {
		var barrier *telemetry.Span
		for _, sp := range tr.SID(tk.ID) {
			if sp.Layer == "hub" && sp.Name == "barrier" {
				sp := sp
				barrier = &sp
			}
		}
		if barrier == nil || !strings.Contains(barrier.Attrs, "own_ms=") || !strings.Contains(barrier.Attrs, "clock_ms=") {
			t.Fatalf("session %d: hub/barrier span = %+v, want own_ms and clock_ms attrs", tk.ID, barrier)
		}
		// Only the honest owner pays the all-verdicts wait.
		if held := !strings.Contains(barrier.Attrs, "clock_ms=0.0"); held != (tk == honest) {
			t.Errorf("session %d: barrier attrs %q", tk.ID, barrier.Attrs)
		}
	}
}

// A recovered hub labels a session from the chain's settlement log. Here
// the dead generation's finalizeResult is still pooled at the kill; whether
// it is mined before Recover or under the recovered hub's own (then
// reverting) finalize, the session was settled by an unchallenged
// finalization — never "resolved", never "disputed".
func TestRecoveredLabelMatchesSettlementLog(t *testing.T) {
	for _, minedFirst := range []bool{true, false} {
		name := "mined-during-recovery"
		if minedFirst {
			name = "mined-before-recover"
		}
		t.Run(name, func(t *testing.T) {
			c, net, faucetKey := manualWorld(t)
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			h1 := New(c, net, faucetKey, Config{Workers: 1, Store: st})
			stopAtCleanup(t, h1)
			tk := h1.Submit(BettingSpec(4, 600, false))
			mineAt(t, c, setupPhases(1)...)
			mineAt(t, c, 1) // submitResult
			waitFor(t, 10*time.Second, "the finalizeResult to be pooled", func() bool { return c.PendingCount() == 1 })
			h1.Kill()
			if rep := tk.Report(); !errors.Is(rep.Err, ErrCrashed) {
				t.Fatalf("killed session: stage=%s err=%v, want a crash", rep.Stage, rep.Err)
			}
			h1.Stop()
			if minedFirst {
				mineAt(t, c, 1)
			}
			h2, rr, err := Recover(st, c, net, faucetKey, Config{Workers: 1}, testRegistry())
			if err != nil {
				t.Fatal(err)
			}
			stopAtCleanup(t, h2)
			if !minedFirst {
				mineAt(t, c, 2) // the dead hub's finalize, then the recovered hub's
			}
			resumed := rr.Resumed()
			if len(resumed) != 1 {
				t.Fatalf("resumed %d sessions, want 1", len(resumed))
			}
			rep := resumed[0].Report()
			if rep.Err != nil {
				t.Fatal(rep.Err)
			}
			ec := countEvents(c)
			if ec.finalized[rep.OnChainAddr] != 1 || ec.resolved[rep.OnChainAddr] != 0 {
				t.Fatalf("fixture: chain shows finalized=%d resolved=%d, want one unchallenged finalization",
					ec.finalized[rep.OnChainAddr], ec.resolved[rep.OnChainAddr])
			}
			if rep.Stage != StageSettled || rep.Disputed {
				t.Errorf("label stage=%s disputed=%v, want settled/false: the log holds ResultFinalized and no DisputeResolved", rep.Stage, rep.Disputed)
			}
			if m := h2.Metrics(); m.IllegalTransitions != 0 {
				t.Errorf("%d illegal transitions", m.IllegalTransitions)
			}
		})
	}
}
