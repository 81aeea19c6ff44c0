package hub

import (
	"errors"
	"fmt"
	"strings"
	"sync"
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
// concurrently running session, when its worker's shard is cold (as every
// shard of a fresh hub is): the root faucet's run — the shard's refill, the
// two funding transfers, the contract creation — then the two deposits. (The
// tower's and sequencer's transactions follow and are scripted by each test.)
func setupPhases(sessions int) []int {
	return []int{4 * sessions, 2 * sessions}
}

// startRollupHub builds a rollup-mode hub on the manual chain. New returns
// only once the registry is deployed, and that takes exactly one block: the
// sequencer's funding transfer and the registry's creation, both from the
// root faucet, with consecutive nonces.
func startRollupHub(t *testing.T, c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config) *Hub {
	t.Helper()
	var h *Hub
	started := make(chan struct{})
	go func() {
		defer close(started)
		h = New(c, net, faucetKey, cfg)
	}()
	mineAt(t, c, 2)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("rollup start-up needed more than the one block that funds the sequencer and creates the registry")
	}
	stopAtCleanup(t, h)
	reg, _ := h.RollupHandles()
	seqKey, err := h.deriveKey(0, sequencerIndex)
	if err != nil {
		t.Fatal(err)
	}
	requireNonceRun(t, c.Latest(), h.faucet.Addr, []types.Address{types.Address(seqKey.EthereumAddress())}, reg.Addr)
	return h
}

// requireNonceRun asserts that the block is exactly one sender's run of
// consecutive nonces — transfers value transfers to the given recipients, in
// that order, then one creation — and that the creation made the contract at
// created.
func requireNonceRun(t *testing.T, b *types.Block, sender types.Address, transfers []types.Address, created types.Address) {
	t.Helper()
	if len(b.Transactions) != len(transfers)+1 {
		t.Fatalf("block %d holds %d transactions, want %d transfers + 1 creation", b.Number(), len(b.Transactions), len(transfers))
	}
	for i, tx := range b.Transactions {
		if from, err := tx.Sender(); err != nil || from != sender {
			t.Errorf("block %d tx %d sent by %s (err %v), want %s", b.Number(), i, from.Hex(), err, sender.Hex())
		}
		if want := b.Transactions[0].Nonce + uint64(i); tx.Nonce != want {
			t.Errorf("block %d tx %d has nonce %d, want %d (consecutive)", b.Number(), i, tx.Nonce, want)
		}
		if creation := i == len(transfers); tx.IsContractCreation() != creation {
			t.Errorf("block %d tx %d: creation=%v, want the transfers first and the creation last", b.Number(), i, tx.IsContractCreation())
		} else if !creation && *tx.To != transfers[i] {
			t.Errorf("block %d tx %d pays %s, want %s", b.Number(), i, tx.To.Hex(), transfers[i].Hex())
		}
		if !b.Receipts[i].Succeeded() {
			t.Errorf("block %d tx %d reverted", b.Number(), i)
		}
	}
	creation := b.Transactions[len(transfers)]
	if got := types.CreateAddress(sender, creation.Nonce); got != created || b.Receipts[len(transfers)].ContractAddress != created {
		t.Errorf("contract at %s, want CreateAddress(sender, %d) = %s", created.Hex(), creation.Nonce, got.Hex())
	}
}

// recovered is what Recover returned.
type recovered struct {
	h   *Hub
	rr  *RecoverReport
	err error
}

// recoverAsync runs Recover off the test's goroutine: on the manual chain it
// returns only once the test has sealed the blocks recovery waits for.
func recoverAsync(st *store.Store, c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config) <-chan recovered {
	done := make(chan recovered, 1)
	go func() {
		h, rr, err := Recover(st, c, net, faucetKey, cfg, testRegistry())
		done <- recovered{h, rr, err}
	}()
	return done
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
	if attrs := spanAttrs(t, tr, rep.ID, "tower", "dispute"); attrs != "enforced=true fallback=false" {
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
	h := startRollupHub(t, c, net, faucetKey, Config{Workers: 2, Rollup: &RollupConfig{Depth: 2, EpochCap: 2, EpochAge: time.Hour}})

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

// overlapFixture kills a durable hub on the manual chain holding one
// session of every kind Recover treats differently, and returns the world
// with the hub dead and the outage block sealed:
//
//   - presign died at deployed: no signed copy, so Recover abandons it and
//     sweeps its two funded parties;
//   - honest died at submitted: its window is in the WAL, and its next
//     transaction — the finalize — sits behind the all-verdicts barrier;
//   - executed died before submitting: its next transaction is its
//     submitResult;
//   - lying had its fraudulent submitResult pooled at the kill, mined during
//     the outage with no tower alive.
type overlapFixture struct {
	st        *store.Store
	c         *chain.Chain
	net       *whisper.Network
	faucetKey *secp256k1.PrivateKey

	presign, honest, executed, lying uint64 // session IDs
	lieBlock                         uint64
}

func newOverlapFixture(t *testing.T) *overlapFixture {
	t.Helper()
	f := &overlapFixture{}
	f.c, f.net, f.faucetKey = manualWorld(t)
	var err error
	if f.st, err = store.Open(t.TempDir(), store.Options{}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.st.Close() })

	// dieAt is where each session's worker stops dead. submit holds the lock
	// across Submit, so a session's first hook call already sees its entry.
	dieAt := make(map[uint64]Stage)
	var dieMu sync.Mutex
	h1 := New(f.c, f.net, f.faucetKey, Config{Workers: 3, Store: f.st, StageHook: func(sid uint64, s Stage) bool {
		dieMu.Lock()
		defer dieMu.Unlock()
		at, dies := dieAt[sid]
		return !dies || s != at
	}})
	stopAtCleanup(t, h1)
	submit := func(spec *Spec, at Stage) *Ticket {
		dieMu.Lock()
		defer dieMu.Unlock()
		tk := h1.Submit(spec)
		if at != StagePending {
			dieAt[tk.ID] = at
		}
		return tk
	}
	presign := submit(BettingSpec(4, 600, false), StageDeployed)
	honest := submit(BettingSpec(4, 600, false), StageSubmitted)
	executed := submit(BettingSpec(4, 600, false), StageExecuted)
	mineAt(t, f.c, 12) // three cold shards: refill, two transfers, creation each
	if rep := presign.Report(); !errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageDeployed {
		t.Fatalf("fixture: pre-sign session stage=%s err=%v, want a crash at deployed", rep.Stage, rep.Err)
	}
	// The lying session starts a block behind, on the worker (and the now
	// funded shard) the pre-sign session left: two transfers and a creation.
	lying := submit(BettingSpec(4, 600, true), StagePending)
	mineAt(t, f.c, 4+3) // two sessions' deposits, the late session's funding run
	if rep := executed.Report(); !errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageExecuted {
		t.Fatalf("fixture: executed session stage=%s err=%v, want a crash at executed", rep.Stage, rep.Err)
	}
	mineAt(t, f.c, 1+2) // the honest submitResult, the late session's deposits
	if rep := honest.Report(); !errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageSubmitted {
		t.Fatalf("fixture: honest session stage=%s err=%v, want a crash at submitted", rep.Stage, rep.Err)
	}
	waitFor(t, 10*time.Second, "the lie to be pooled", func() bool { return f.c.PendingCount() == 1 })
	h1.tower.WaitCaughtUp(f.c.Height()) // the honest window and its block's cursor are journaled
	h1.Kill()
	if rep := lying.Report(); !errors.Is(rep.Err, ErrCrashed) {
		t.Fatalf("fixture: lying session stage=%s err=%v, want a crash", rep.Stage, rep.Err)
	}
	h1.Stop()
	f.c.MineBlock() // the outage: the lie lands unwatched
	f.presign, f.honest, f.executed, f.lying = presign.ID, honest.ID, executed.ID, lying.ID
	f.lieBlock = f.c.Height()
	return f
}

// recover starts Recover and waits, without sealing a block, until the pool
// holds everything recovery has to say at once: the abandoned session's two
// sweeps, the dispute pair against the outage lie, and the executed
// session's submitResult. (The honest session's finalize is held by the
// all-verdicts barrier until the lie is enforced.)
func (f *overlapFixture) recover(t *testing.T) <-chan recovered {
	t.Helper()
	done := recoverAsync(f.st, f.c, f.net, f.faucetKey, Config{Workers: 3})
	waitFor(t, 10*time.Second, "sweeps, dispute pair and the resumed submitResult to share the pool", func() bool { return f.c.PendingCount() == 5 })
	if f.c.Height() != f.lieBlock {
		t.Fatalf("chain at block %d, want %d: nobody seals during recovery", f.c.Height(), f.lieBlock)
	}
	return done
}

// finish waits for Recover to return and hands its hub to the test's cleanup.
func (f *overlapFixture) finish(t *testing.T, done <-chan recovered, late string) recovered {
	t.Helper()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		stopAtCleanup(t, r.h)
		return r
	case <-time.After(10 * time.Second):
		t.Fatal(late)
		return recovered{}
	}
}

func (f *overlapFixture) checkReport(t *testing.T, rr *RecoverReport, swept bool) map[uint64]*RecoveredSession {
	t.Helper()
	byID := make(map[uint64]*RecoveredSession)
	for _, rs := range rr.Sessions {
		byID[rs.ID] = rs
	}
	if rs := byID[f.presign]; rs == nil || rs.Outcome != RecoveryAbandoned || strings.Contains(rs.Why, "swept 2 party balances") != swept {
		t.Fatalf("pre-sign session recovered as %+v, want abandoned, swept=%v", rs, swept)
	}
	for _, id := range []uint64{f.honest, f.executed, f.lying} {
		if rs := byID[id]; rs == nil || rs.Outcome != RecoveryResumed {
			t.Fatalf("session %d recovered as %+v, want resumed", id, rs)
		}
	}
	if rr.Cursor >= f.lieBlock || rr.ReplayedTo < f.lieBlock {
		t.Fatalf("replayed (%d, %d], want the outage block %d inside", rr.Cursor, rr.ReplayedTo, f.lieBlock)
	}
	return byID
}

// Recover pools its sweeps, replays the outage and releases the resumed
// sessions before it waits for anything: one block carries the sweeps, the
// dispute against a lie mined during the outage, and the resumed sessions'
// next transactions. The lie is enforced in the first block after recovery
// starts.
func TestRecoverOverlapsItsSweeps(t *testing.T) {
	t.Run("one-block", func(t *testing.T) {
		f := newOverlapFixture(t)
		done := f.recover(t)
		select {
		case r := <-done:
			t.Fatalf("Recover returned (err %v) before its sweeps were mined", r.err)
		default:
		}
		f.c.MineBlock()
		r := f.finish(t, done, "Recover did not return in the block that mined its sweeps")
		sessions := f.checkReport(t, r.rr, true)

		lied := sessions[f.lying].Ticket.Report()
		if lied.Err != nil || lied.Stage != StageResolved || !lied.Disputed {
			t.Fatalf("lying session: stage=%s disputed=%v err=%v, want a resolved dispute", lied.Stage, lied.Disputed, lied.Err)
		}
		if got := blockOf(t, f.c, lied.OnChainAddr, hybrid.TopicDisputeResolved); got != f.lieBlock+1 {
			t.Errorf("lie mined in outage block %d, enforced in block %d, want %d: the first block after recovery starts", f.lieBlock, got, f.lieBlock+1)
		}
		requireWinnerPaid(t, lied)

		mineAt(t, f.c, 2) // both honest finalizes, released by the enforced dispute
		for _, id := range []uint64{f.honest, f.executed} {
			if rep := sessions[id].Ticket.Report(); rep.Err != nil || rep.Stage != StageSettled || rep.Disputed {
				t.Errorf("session %d: stage=%s disputed=%v err=%v, want settled", id, rep.Stage, rep.Disputed, rep.Err)
			}
		}
		if got := blockOf(t, f.c, sessions[f.executed].Ticket.Report().OnChainAddr, hybrid.TopicResultSubmitted); got != f.lieBlock+1 {
			t.Errorf("resumed session submitted in block %d, want %d, beside the sweeps", got, f.lieBlock+1)
		}
		if m := r.h.Metrics(); m.DisputesRaised != 1 || m.DisputesWon != 1 || m.IllegalTransitions != 0 {
			t.Errorf("disputes raised/won = %d/%d, %d illegal transitions, want 1/1 and none", m.DisputesRaised, m.DisputesWon, m.IllegalTransitions)
		}
	})

	// Block production is down: Recover gives up on its sweeps when the time
	// box expires, and by then the resumed tickets have long been running.
	t.Run("no-blocks", func(t *testing.T) {
		f := newOverlapFixture(t)
		defer func(d time.Duration) { sweepTimeBox = d }(sweepTimeBox)
		sweepTimeBox = 200 * time.Millisecond
		r := f.finish(t, f.recover(t), "Recover outlived its time box on a chain that seals nothing")
		f.checkReport(t, r.rr, false)
		if f.c.Height() != f.lieBlock || f.c.PendingCount() != 5 {
			t.Errorf("chain at block %d with %d pooled, want block %d and all 5 transactions still pooled", f.c.Height(), f.c.PendingCount(), f.lieBlock)
		}
	})
}

// spanAttrs returns the attributes of the session's one span layer/name.
func spanAttrs(t *testing.T, tr *telemetry.Tracer, sid uint64, layer, name string) string {
	t.Helper()
	var attrs []string
	for _, sp := range tr.SID(sid) {
		if sp.Layer == layer && sp.Name == name {
			attrs = append(attrs, sp.Attrs)
		}
	}
	if len(attrs) != 1 {
		t.Fatalf("session %d has %d %s/%s spans, want exactly 1", sid, len(attrs), layer, name)
	}
	return attrs[0]
}

// The block-wait budget of one session (DESIGN §4's table): how many blocks
// must be sealed between admission and the report when the session has the
// chain to itself. Every phase below is waited for — the next block is
// sealed only once the pool holds exactly that phase's transactions — so a
// change that adds a wait times out here, and one that removes a wait finds
// the wrong pool depth. The first block is one sender's nonce run: the
// parties' transfers and the contract's creation behind them, from the
// worker's shard when it can pay and otherwise from the root faucet, with the
// shard's refill in front. The burst rows are the same budget for sessions
// that arrive together: k epochs post in one block, l lies are enforced in
// one block.
func TestBlockWaitBudget(t *testing.T) {
	const dispute = 2 // deployVerifiedInstance + returnDisputeResolution
	cases := []struct {
		name   string
		rollup bool
		lying  bool
		cold   bool  // the shard cannot pay: the root faucet sends the run, refill first
		phases []int // pool depth at each seal
		end    Stage
	}{
		{"persession/honest", false, false, false, []int{3, 2, 1, 1}, StageSettled},      // fund+deploy, deposits, submit, finalize
		{"persession/lying", false, true, false, []int{3, 2, 1, dispute}, StageResolved}, // …, the lie, the dispute
		{"rollup/honest", true, false, false, []int{3, 2, 1}, StageRolledUp},             // fund+deploy, deposits, postEpoch
		{"rollup/lying", true, true, false, []int{3, 2, 1, 1 + dispute}, StageResolved},  // …, openLeaf + the dispute
		{"cold/persession", false, false, true, []int{4, 2, 1, 1}, StageSettled},         // refill+fund+deploy, …: the same four blocks
		{"cold/rollup", true, false, true, []int{4, 2, 1}, StageRolledUp},                // … and the same three
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, net, faucetKey := manualWorld(t)
			tr := telemetry.NewTracer(4096)
			var h *Hub
			if tc.rollup {
				h = startRollupHub(t, c, net, faucetKey, Config{Workers: 1, Tracer: tr,
					Rollup: &RollupConfig{Depth: 1, EpochCap: 1, EpochAge: time.Hour}})
			} else {
				h = New(c, net, faucetKey, Config{Workers: 1, Tracer: tr})
				stopAtCleanup(t, h)
			}
			sender, label := h.faucet.Addr, "root"
			if !tc.cold {
				sender, label = fundShard(t, c, h).Addr, "shard"
			}
			tk := h.Submit(BettingSpec(4, 600, tc.lying))
			first := c.Height() + 1
			mineAt(t, c, tc.phases...)
			select {
			case <-tk.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("session still running after its %d blocks (pool holds %d): a block wait was added", len(tc.phases), c.PendingCount())
			}
			rep := tk.Report()
			if rep.Err != nil || rep.Stage != tc.end || rep.Disputed != tc.lying {
				t.Fatalf("stage=%s disputed=%v err=%v, want %s", rep.Stage, rep.Disputed, rep.Err, tc.end)
			}
			if got, want := c.Height(), first+uint64(len(tc.phases))-1; got != want || c.PendingCount() != 0 {
				t.Errorf("chain at block %d with %d pooled, want block %d and an empty pool", got, c.PendingCount(), want)
			}

			b, err := c.BlockByNumber(first)
			if err != nil {
				t.Fatal(err)
			}
			transfers := rep.Session.ParticipantAddrs()
			if tc.cold {
				transfers = append([]types.Address{h.shards[0].Addr}, transfers...)
			}
			requireNonceRun(t, b, sender, transfers, rep.OnChainAddr)
			// The spans' named reader: both start at send and end in the same
			// block, and chain/fund names who paid.
			fund, deploy := fmt.Sprintf("block=%d sender=%s", first, label), fmt.Sprintf("block=%d", first)
			if gotFund, gotDeploy := spanAttrs(t, tr, rep.ID, "chain", "fund"), spanAttrs(t, tr, rep.ID, "chain", "deploy"); gotFund != fund || gotDeploy != deploy {
				t.Errorf("chain/fund %q, chain/deploy %q, want %q and %q", gotFund, gotDeploy, fund, deploy)
			}
			if tc.cold && c.BalanceAt(h.shards[0].Addr).Lt(eth(11)) {
				t.Errorf("shard holds %s after the cold run: the next session would be cold too", c.BalanceAt(h.shards[0].Addr))
			}
		})
	}

	// k sessions in lockstep, one leaf per epoch: the sequencer seals and sends
	// epoch n+1 without waiting for epoch n's receipt, so one block carries all
	// k posts, numbered in seal order — 3 blocks for the wave, as for one.
	t.Run("burst/epochs", func(t *testing.T) {
		const k = 3
		c, net, faucetKey := manualWorld(t)
		tr := telemetry.NewTracer(4096)
		h := startRollupHub(t, c, net, faucetKey, Config{Workers: k, Tracer: tr,
			Rollup: &RollupConfig{Depth: 1, EpochCap: 1, EpochAge: time.Hour}})
		tickets := make([]*Ticket, k)
		for i := range tickets {
			tickets[i] = h.Submit(BettingSpec(4, 600, false))
		}
		mineAt(t, c, setupPhases(k)...)
		mineAt(t, c, k) // every postEpoch
		for _, tk := range tickets {
			if rep := tk.Report(); rep.Err != nil || rep.Stage != StageRolledUp {
				t.Fatalf("session %d: stage=%s err=%v, want rolled-up", rep.ID, rep.Stage, rep.Err)
			}
		}
		posts := c.Latest()
		for n, l := range requireEpochsInSealOrder(t, c, h, k, k) {
			if l.BlockNumber != posts.Number() {
				t.Errorf("epoch %d posted in block %d, want all %d in block %d", n, l.BlockNumber, k, posts.Number())
			}
		}
		// rollup/post_epoch's named reader: equal block= means one block.
		var spans []string
		for _, sp := range tr.SID(0) {
			if sp.Layer == "rollup" && sp.Name == "post_epoch" {
				spans = append(spans, sp.Attrs)
			}
		}
		if len(spans) != k {
			t.Fatalf("%d rollup/post_epoch spans, want %d", len(spans), k)
		}
		for n, attrs := range spans {
			if !strings.HasPrefix(attrs, fmt.Sprintf("epoch=%d ", n)) || !strings.HasSuffix(attrs, fmt.Sprintf(" block=%d", posts.Number())) {
				t.Errorf("post_epoch span %d: %q, want epoch=%d … block=%d", n, attrs, n, posts.Number())
			}
		}
	})

	// More lies in one block than the tower has sandbox slots: every dispute is
	// sent before any of them has a receipt, so all are enforced in the next
	// block, and the honest submission of that block has its clean verdict
	// while they are still pooled.
	t.Run("burst/lies", func(t *testing.T) {
		const l = sandboxSlots + 2
		c, net, faucetKey := manualWorld(t)
		h := New(c, net, faucetKey, Config{Workers: l + 1})
		stopAtCleanup(t, h)
		honest := h.Submit(BettingSpec(4, 600, false))
		lying := make([]*Ticket, l)
		for i := range lying {
			lying[i] = h.Submit(BettingSpec(4, 600, true))
		}
		mineAt(t, c, setupPhases(l+1)...)
		mineAt(t, c, l+1) // every submitResult
		lies := c.Height()
		waitFor(t, 10*time.Second, "all l dispute pairs to be pooled at once", func() bool { return c.PendingCount() == l*dispute })
		waitFor(t, 10*time.Second, "the honest submission's verdict, with every dispute unmined", func() bool { return h.tower.PendingDisputes() == l })
		c.MineBlock()
		for _, tk := range lying {
			rep := tk.Report()
			if rep.Err != nil || rep.Stage != StageResolved || !rep.Disputed {
				t.Fatalf("lying session %d: stage=%s disputed=%v err=%v, want a resolved dispute", rep.ID, rep.Stage, rep.Disputed, rep.Err)
			}
			if got := blockOf(t, c, rep.OnChainAddr, hybrid.TopicDisputeResolved); got != lies+1 {
				t.Errorf("session %d lied in block %d, enforced in block %d, want %d", rep.ID, lies, got, lies+1)
			}
		}
		mineAt(t, c, 1) // the honest finalizeResult, behind the clock barrier
		if rep := honest.Report(); rep.Err != nil || rep.Stage != StageSettled || rep.Disputed {
			t.Fatalf("honest session: stage=%s disputed=%v err=%v, want settled", rep.Stage, rep.Disputed, rep.Err)
		}
	})
}

// fundShard gives the lone worker's shard exactly what one betting session
// needs, so the hub sends no refill of its own.
func fundShard(t *testing.T, c *chain.Chain, h *Hub) *hybrid.Participant {
	t.Helper()
	shard := h.shards[0]
	if _, err := h.faucet.SendTxAsync(&shard.Addr, eth(11), 21_000, nil); err != nil {
		t.Fatal(err)
	}
	c.MineBlock()
	return shard
}

// requireFailedBeforeDeposits asserts the session failed, and that it ended
// in the block that carried its funding run: nothing was sent afterwards.
func requireFailedBeforeDeposits(t *testing.T, c *chain.Chain, tk *Ticket, fundBlock uint64) *Report {
	t.Helper()
	rep := tk.Report()
	if rep.Stage != StageFailed || rep.Err == nil {
		t.Fatalf("stage=%s err=%v, want a failed session", rep.Stage, rep.Err)
	}
	if c.Height() != fundBlock || c.PendingCount() != 0 {
		t.Errorf("chain at block %d with %d pooled, want block %d and an empty pool: the session transacted after its deployment failed", c.Height(), c.PendingCount(), fundBlock)
	}
	if !rep.OnChainAddr.IsZero() {
		t.Errorf("failed deployment reported contract %s", rep.OnChainAddr.Hex())
	}
	return rep
}

// The creation runs out of gas while the transfers in front of it succeed:
// the session fails with that cause and no party ever deposits.
func TestCreationRevertFailsSessionBeforeDeposits(t *testing.T) {
	c, net, faucetKey := manualWorld(t)
	h := New(c, net, faucetKey, Config{Workers: 1})
	stopAtCleanup(t, h)
	shard := fundShard(t, c, h)
	spec := BettingSpec(4, 600, false)
	spec.DeployGas = 300_000 // past the intrinsic cost, short of the code deposit
	tk := h.Submit(spec)
	mineAt(t, c, 3)
	rep := requireFailedBeforeDeposits(t, c, tk, c.Height())
	if !strings.Contains(rep.Err.Error(), "hub: deploy") || !strings.Contains(rep.Err.Error(), "reverted") {
		t.Errorf("err = %v, want the reverted deployment", rep.Err)
	}
	b := c.Latest()
	if len(b.Transactions) != 3 || !b.Receipts[0].Succeeded() || !b.Receipts[1].Succeeded() || b.Receipts[2].Succeeded() {
		t.Fatalf("fixture: want two successful transfers and a reverted creation in block %d", b.Number())
	}
	for i, p := range rep.Session.Parties {
		if got := c.BalanceAt(p.Addr); !got.Eq(eth(5)) {
			t.Errorf("party %d holds %s, want its untouched 5 ether funding", i, got)
		}
	}
	if code := c.CodeAt(types.CreateAddress(shard.Addr, b.Transactions[2].Nonce)); len(code) != 0 {
		t.Errorf("%d bytes of code where the reverted creation would have put the contract", len(code))
	}
}

// A funding transfer is dropped at execution (the shard is drained under
// it). A dropped transaction leaves its sender's nonce where it was, so
// everything the shard queued behind it is dropped with it — the creation
// too, though the shard could still pay for it: no block carries the
// creation without the transfers. The session fails with the drop as the
// cause, no contract exists and no party ever deposits.
func TestDroppedTransferTakesCreationWithIt(t *testing.T) {
	c, net, faucetKey := manualWorld(t)
	h := New(c, net, faucetKey, Config{Workers: 1})
	stopAtCleanup(t, h)
	shard := fundShard(t, c, h)
	// Pooled ahead of the session's run: leaves the shard the first transfer
	// and change. Admission checks each transaction against the state
	// balance, so all four enter the pool.
	sink := types.Address{0x51}
	if _, err := shard.SendTxAsync(&sink, eth(5), 21_000, nil); err != nil {
		t.Fatal(err)
	}
	tk := h.Submit(BettingSpec(4, 600, false))
	mineAt(t, c, 4)
	rep := requireFailedBeforeDeposits(t, c, tk, c.Height())
	if !errors.Is(rep.Err, chain.ErrTxDropped) || !strings.Contains(rep.Err.Error(), "hub: fund "+rep.Session.Parties[1].Addr.Hex()) {
		t.Errorf("err = %v, want party 1's funding transfer dropped", rep.Err)
	}
	b := c.Latest()
	if len(b.Transactions) != 2 {
		t.Fatalf("block %d holds %d transactions, want the drain and the first transfer only", b.Number(), len(b.Transactions))
	}
	if got := c.BalanceAt(rep.Session.Parties[0].Addr); !got.Eq(eth(5)) {
		t.Errorf("party 0 holds %s, want 5 ether", got)
	}
	if got := c.BalanceAt(rep.Session.Parties[1].Addr); !got.IsZero() {
		t.Errorf("party 1 holds %s, want nothing", got)
	}
	if gas := uint256.NewInt(3_000_000); c.BalanceAt(shard.Addr).Lt(gas) {
		t.Fatalf("fixture: the shard must still afford the creation's gas")
	}
	if code := c.CodeAt(types.CreateAddress(shard.Addr, c.NonceAt(shard.Addr)+1)); len(code) != 0 {
		t.Errorf("the creation landed without the transfer in front of it")
	}
}

// A kill between send and receipt leaves the creation pooled: it lands with
// no living hub to journal it, an orphan contract with no KindDeployed.
// Recover abandons the session and sweeps the parties' funding back.
func TestKillBeforeCreationReceiptAbandonsOrphan(t *testing.T) {
	c, net, faucetKey := manualWorld(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h1 := New(c, net, faucetKey, Config{Workers: 1, Store: st})
	stopAtCleanup(t, h1)
	shard := fundShard(t, c, h1)
	tk := h1.Submit(BettingSpec(4, 600, false))
	waitFor(t, 10*time.Second, "the funding run to be pooled", func() bool { return c.PendingCount() == 3 })
	h1.Kill()
	if rep := tk.Report(); !errors.Is(rep.Err, ErrCrashed) {
		t.Fatalf("killed session: stage=%s err=%v, want a crash", rep.Stage, rep.Err)
	}
	h1.Stop()
	b := c.MineBlock()
	orphan := b.Receipts[2].ContractAddress
	if len(c.CodeAt(orphan)) == 0 {
		t.Fatal("fixture: the dead hub's creation did not land")
	}
	parties := make([]types.Address, 2)
	for i := range parties {
		key, err := h1.deriveKey(tk.ID, i)
		if err != nil {
			t.Fatal(err)
		}
		parties[i] = types.Address(key.EthereumAddress())
	}
	requireNonceRun(t, b, shard.Addr, parties, orphan)

	done := recoverAsync(st, c, net, faucetKey, Config{Workers: 1})
	mineAt(t, c, 2) // the two parties' sweeps
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	stopAtCleanup(t, r.h)
	if len(r.rr.Sessions) != 1 || r.rr.Sessions[0].Outcome != RecoveryAbandoned || !strings.Contains(r.rr.Sessions[0].Why, "swept 2 party balances") {
		t.Fatalf("recovery report %+v, want one abandoned session with both parties swept", r.rr.Sessions[0])
	}
	if r.h.LiveSessions() != 0 {
		t.Errorf("%d sessions live after the orphan was abandoned", r.h.LiveSessions())
	}
	if got := c.BalanceAt(orphan); !got.IsZero() {
		t.Errorf("orphan contract holds %s: a deposit reached it", got)
	}
}

// Parties check what they did not deploy: when the code the shard's creation
// left on chain is not the runtime of the on-chain half the parties hold, the
// session fails at the bind — before anyone signs, and before any deposit.
func TestForeignCodeFailsSessionBeforeDeposits(t *testing.T) {
	c, net, faucetKey := manualWorld(t)
	h := New(c, net, faucetKey, Config{Workers: 1})
	stopAtCleanup(t, h)
	fundShard(t, c, h)
	spec := BettingSpec(4, 600, false)
	if _, err := h.split(spec); err != nil {
		t.Fatal(err)
	}
	// The parties' copy of the on-chain half differs from what the creation
	// deploys in its last runtime byte.
	h.splitMu.Lock()
	for key, sr := range h.splits {
		parties, onChain := *sr, *sr.OnChain
		onChain.Runtime = append([]byte{}, onChain.Runtime...)
		onChain.Runtime[len(onChain.Runtime)-1] ^= 0xff
		parties.OnChain = &onChain
		h.splits[key] = &parties
	}
	h.splitMu.Unlock()
	tk := h.Submit(spec)
	mineAt(t, c, 3)
	rep := requireFailedBeforeDeposits(t, c, tk, c.Height())
	if !strings.Contains(rep.Err.Error(), "not the agreed on-chain contract") {
		t.Errorf("err = %v, want the code mismatch", rep.Err)
	}
	if b := c.Latest(); !b.Receipts[2].Succeeded() || len(c.CodeAt(b.Receipts[2].ContractAddress)) == 0 {
		t.Fatal("fixture: the creation itself must have succeeded")
	}
}
