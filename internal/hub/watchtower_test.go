package hub

import (
	"errors"
	"testing"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/telemetry"
)

// A tower reads the blocks sealed after it starts. One created at height N
// leaves a lie mined at or below N to CatchUp, and disputes a lie mined at
// N+1 on its own.
func TestTowerStartsAtTheHead(t *testing.T) {
	c, net, faucetKey := miningWorld(t, "auto")
	// Two lying sessions stop after their private run: deployed, signed,
	// nothing submitted yet.
	h := New(c, net, faucetKey, Config{Workers: 2, StageHook: func(_ uint64, s Stage) bool { return s != StageExecuted }})
	early, late := h.Submit(BettingSpec(4, 600, true)), h.Submit(BettingSpec(4, 600, true))
	for _, tk := range []*Ticket{early, late} {
		if rep := tk.Report(); !errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageExecuted {
			t.Fatalf("session %d: stage=%s err=%v, want a stop at executed", tk.ID, rep.Stage, rep.Err)
		}
	}
	sessions := map[uint64]*hybrid.Session{}
	for _, e := range h.Watchtower().Watches() {
		sessions[e.SID()] = e.Session()
	}
	h.Stop()
	lie := func(sess *hybrid.Session) {
		t.Helper()
		for _, p := range sess.Parties {
			p.Ctx = nil // the stopped hub canceled their receipt-wait context
		}
		out, err := hybrid.ExecuteOffChain(sess.Copy.Bytecode)
		if err != nil {
			t.Fatal(err)
		}
		if r, err := sess.SubmitResult(len(sess.Parties)-1, 1-out.Result); err != nil || !r.Succeeded() {
			t.Fatalf("lie did not land: %v", err)
		}
	}

	lie(sessions[early.ID])
	n := c.Height()
	tower := NewWatchtower(c, nil, nil, nil)
	defer tower.Stop()
	watches := map[uint64]*Watch{}
	for _, tk := range []*Ticket{early, late} {
		e, err := tower.Guard(sessions[tk.ID], "", telemetry.TraceContext{})
		if err != nil {
			t.Fatal(err)
		}
		watches[tk.ID] = e
	}
	lie(sessions[late.ID])
	if got := blockOf(t, c, watches[late.ID].Contract(), hybrid.TopicResultSubmitted); got != n+1 {
		t.Fatalf("second lie in block %d, want %d", got, n+1)
	}
	tower.WaitVerdict(watches[late.ID], n+1)
	if raised, won := watches[late.ID].Disputed(); !raised || !won {
		t.Fatalf("lie in block N+1: raised=%v won=%v, want an enforced dispute", raised, won)
	}
	tower.WaitCaughtUp(c.Height())
	if watches[early.ID].OpenWindow() != nil {
		t.Fatal("the tower opened a window for a submission mined at or below its start height")
	}
	if m := tower.Metrics(); m.SubmissionsSeen != 1 {
		t.Fatalf("tower saw %d submissions, want only the one mined after it started", m.SubmissionsSeen)
	}

	// CatchUp reads the history the block loop does not.
	tower.CatchUp()
	tower.WaitVerdict(watches[early.ID], c.Height())
	if raised, won := watches[early.ID].Disputed(); !raised || !won {
		t.Fatalf("lie at or below N after CatchUp: raised=%v won=%v, want an enforced dispute", raised, won)
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
