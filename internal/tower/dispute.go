package tower

import (
	"fmt"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/types"
)

// SandboxSlots bounds the tower's concurrent sandbox runs — the private
// re-executions that produce its own verdict on a submission. It does not
// bound filings: a slot is released before any dispute transaction is sent
// or awaited, so any number of concurrent lies are enforced in one block.
const SandboxSlots = 4

// disputer is the party index the tower files disputes and opens leaves as:
// party 0, which never lies (a lying representative is the last party).
const disputer = 0

// sendLeafOpen pools the openLeaf that pins the disputed leaf against its
// epoch's posted root, without waiting for it: the caller queues the
// session-contract dispute right behind it (same sender, consecutive
// nonces) so one block carries all three. The returned func observes the
// receipt afterwards. A revert is tolerated: the on-chain exactly-once veto
// (a peer tower or a prior incarnation already opened this leaf) and a
// closed batch window both surface as reverts, and neither changes what
// the dispute behind it enforces — at-most-once enforcement is arbitrated
// by the contract's own settled flag.
func (w *Watchtower) sendLeafOpen(e *Watch, rl *rollupLeaf) (observe func()) {
	opener := e.sess.Parties[disputer]
	start := time.Now()
	hash, err := rl.reg.OpenLeafAsync(opener, rl.epoch, rl.leaf, rl.index, rl.proof, rollupLeafOpenGas)
	return func() {
		var rec *types.Receipt
		if err == nil {
			rec, err = opener.WaitReceipt(hash)
		}
		ok := err == nil && rec.Succeeded()
		if ok {
			w.metrics.leavesOpened.Inc()
		}
		if w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
			w.tracer.RecordChild(e.tc, e.id, "tower", "leaf_open", start, time.Since(start),
				fmt.Sprintf("epoch=%d index=%d ok=%t", rl.epoch, rl.index, ok))
		}
	}
}

// examine records one observed submission and ensures a dispute pipeline
// job is driving the window. It is shared by the block loop and a guard's
// history read (onSubmission, openBatchWindow) — windows come only from the
// chain — and is idempotent: a submission that is already settled, already
// disputed, or already being driven by a pending job is left alone — that
// is what makes a re-guard after a restart unable to double-dispute.
func (w *Watchtower) examine(e *Watch, result, deadline uint64) {
	// Honor Kill at sub-block granularity too: a "dead" tower must not
	// open windows or file disputes for a block it was mid-way through. (A
	// dispute transaction already sent when Kill lands is a
	// tx-in-flight-at-crash — unavoidable, and recovery handles it via the
	// chain's settled flag.)
	if w.isHalted() {
		return
	}
	e.mu.Lock()
	if e.settled {
		e.mu.Unlock()
		return
	}
	e.window = &Window{
		Contract: e.sess.OnChainAddr,
		Result:   result,
		Deadline: deadline,
	}
	driven := e.disputed || e.pending
	if !driven {
		e.pending = true
	}
	e.mu.Unlock()
	if w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
		w.tracer.EventChild(e.tc, e.id, "tower", "window_open", fmt.Sprintf("result=%d deadline=%d", result, deadline))
	}
	if driven {
		return
	}
	w.mu.Lock()
	if w.stopped {
		// Too late to drive a pipeline job; undo the claim.
		w.mu.Unlock()
		e.mu.Lock()
		e.pending = false
		e.mu.Unlock()
		return
	}
	w.pending++
	w.pacerWG.Add(1) // under w.mu, which Stop takes to mark the tower stopped
	w.mu.Unlock()
	go w.driveDispute(e)
}

// releaseJob marks the watch's pipeline job decided and releases barrier
// waiters.
func (w *Watchtower) releaseJob(e *Watch) {
	e.mu.Lock()
	e.pending = false
	e.mu.Unlock()
	w.mu.Lock()
	w.pending--
	w.cond.Broadcast()
	w.mu.Unlock()
}

// driveDispute is the pacer for one open window. It verifies first: the
// tower's own sandbox verdict, on one of the sandbox slots, released before
// anything else happens. The job ends there on an unverifiable window, and
// on every pass that finds the open window clean — a re-submission can
// change it, so each pass re-reads it; a clean batch window also ends the
// guard (release). Only a window that disagrees with
// the verdict reaches the gate, which times the filing from the moment this
// pacer first found the lie; the job ends when the contract settles or a
// filing completes.
func (w *Watchtower) driveDispute(e *Watch) {
	defer w.pacerWG.Done()
	defer w.releaseJob(e)
	w.sem <- struct{}{}
	expected, err := e.Expected()
	<-w.sem
	if err != nil {
		return // cannot verify: nothing to file
	}
	var first time.Time // when the sandbox's verdict first disagreed
	escalated := false  // the gate deferred at least once
	for {
		select {
		case <-w.haltCh:
			return // dead process files nothing
		case <-w.stopCh:
			return // graceful shutdown abandons undecided windows
		default:
		}
		win := e.OpenWindow()
		if win == nil {
			return // settled while we deliberated
		}
		if win.Result == expected {
			if e.batched() {
				w.release(win.Contract)
			}
			return
		}
		if first.IsZero() {
			first = time.Now()
		}
		var retry time.Duration
		if _, g := w.federated(); g != nil {
			retry = g(win.Contract, time.Since(first))
		}
		if retry <= 0 {
			w.fileDispute(e, *win, escalated)
			return
		}
		escalated = true
		w.metrics.disputesDeferred.Inc()
		t := time.NewTimer(retry)
		select {
		case <-t.C:
		case <-e.settledCh:
			t.Stop()
		case <-w.haltCh:
			t.Stop()
			return
		case <-w.stopCh:
			t.Stop()
			return
		}
	}
}

// fileDispute files against a window driveDispute verified to be a lie:
// veto against chain truth, claim, and file. It runs with no sandbox slot
// held, so a filing's block wait never makes another window's verdict —
// clean or not — wait a block for a free slot. escalated marks a filing the
// gate deferred at least once: a backup's, sent after its slot's stagger.
func (w *Watchtower) fileDispute(e *Watch, win Window, escalated bool) {
	// The chain, not the WAL, decides whether a dispute is still needed: a
	// dispute that landed has settled the contract, so a tower (restarted,
	// or a federation backup escalating behind slot 0's in-flight
	// filing) re-examining the same lie stops here instead of
	// double-disputing.
	if settled, _ := hybrid.Settlement(w.chain, e.sess.OnChainAddr); settled {
		w.onSettled(e, e.sess.OnChainAddr)
		return
	}
	// Claim the dispute under the lock so concurrent examinations (the block
	// loop racing a guard's history read) file at most once. Re-check the
	// crash flag at the last moment — after this point the dispute
	// transaction is as good as sent.
	if w.isHalted() {
		return
	}
	e.mu.Lock()
	if e.disputed {
		e.mu.Unlock()
		return
	}
	e.disputed = true
	e.disputedAt = w.chain.Now()
	e.deadline = win.Deadline
	e.mu.Unlock()
	// The submission lies about the off-chain outcome: file the dispute
	// now, while the window is provably still open. The dispute deploys
	// the verified instance from the signed copy and has the miners
	// recompute and enforce the true result.
	w.metrics.disputesRaised.Inc()
	if escalated {
		w.metrics.disputesEscalated.Inc()
	}
	disputeStart := time.Now()
	// Batch settlement: pin WHICH leaf of WHICH epoch this dispute refutes
	// by opening it against the posted root, queued ahead of the dispute
	// pair so the three transactions share a block.
	e.mu.Lock()
	rl := e.rollup
	e.mu.Unlock()
	observeLeafOpen := func() {}
	if rl != nil {
		observeLeafOpen = w.sendLeafOpen(e, rl)
	}
	_, _, err := e.sess.Dispute(disputer)
	observeLeafOpen()
	// Enforcement is read from the contract's settlement log, never from
	// the receipts.
	_, byDispute := hybrid.Settlement(w.chain, e.sess.OnChainAddr)
	enforced := err == nil && byDispute
	if enforced {
		w.metrics.disputesWon.Inc()
		w.onSettled(e, e.sess.OnChainAddr)
	}
	if w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
		w.tracer.RecordChild(e.tc, e.id, "tower", "dispute", disputeStart, time.Since(disputeStart),
			fmt.Sprintf("enforced=%t fallback=%t escalated=%t", enforced, e.sess.DisputeFellBack, escalated))
	}
}
