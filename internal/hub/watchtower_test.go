package hub

import (
	"errors"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/whisper"
)

// executedWatches runs specs on a hub that stops every session after its
// private run — deployed, signed, nothing submitted — and returns the
// hub's watches in spec order, with the hub stopped.
func executedWatches(t *testing.T, c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, specs ...*Spec) []*Watch {
	t.Helper()
	h := New(c, net, faucetKey, Config{Workers: 2, StageHook: func(_ uint64, s Stage) bool { return s != StageExecuted }})
	tickets := make([]*Ticket, len(specs))
	for i, spec := range specs {
		tickets[i] = h.Submit(spec)
	}
	for _, tk := range tickets {
		if rep := tk.Report(); !errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageExecuted {
			t.Fatalf("session %d: stage=%s err=%v, want a stop at executed", tk.ID, rep.Stage, rep.Err)
		}
	}
	bySID := map[uint64]*Watch{}
	for _, e := range h.Watchtower().Watches() {
		bySID[e.SID()] = e
	}
	h.Stop()
	out := make([]*Watch, len(tickets))
	for i, tk := range tickets {
		out[i] = bySID[tk.ID]
		for _, p := range out[i].Session().Parties {
			p.Ctx = nil // the stopped hub canceled their receipt-wait context
		}
	}
	return out
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

// A tower's block loop reads the blocks sealed after it starts; a guard
// reads its own contract's older ones. On a tower created at height N, a
// lie mined at or below N is disputed when its contract is guarded, and a
// lie mined after the guard by the block loop.
func TestTowerStartsAtTheHead(t *testing.T) {
	c, net, faucetKey := miningWorld(t, "auto")
	ws := executedWatches(t, c, net, faucetKey, BettingSpec(4, 600, true), BettingSpec(4, 600, true))
	early, late := ws[0].Session(), ws[1].Session()

	submitLie(t, early)
	n := c.Height()
	tower := NewWatchtower(c, nil, nil, nil)
	defer tower.Stop()
	guard := func(sess *hybrid.Session) *Watch {
		t.Helper()
		e, err := tower.Guard(sess, "", telemetry.TraceContext{})
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
	c, net, faucetKey := miningWorld(t, "auto")
	sess := executedWatches(t, c, net, faucetKey, BettingSpec(4, 600, true))[0].Session()
	submitLie(t, sess)
	never := func(types.Address, time.Duration) time.Duration { return time.Hour }
	for i := 0; i < 500; i++ {
		tower := NewWatchtower(c, nil, nil, nil)
		o := stopOnGuard{w: tower, pending: make(chan int, 1)}
		tower.Federate(o, never)
		if _, err := tower.Guard(sess, "", telemetry.TraceContext{}); err != nil {
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
	c, _, _ := manualWorld(t)
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
