package hub

// Submit and verdict: the tail of a per-session lifecycle, from the
// tower's verdict on the submission to the honest finalize.

import (
	"errors"
	"fmt"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/tower"
)

// awaitSettlement is the tail of the lifecycle: take the verdict step,
// then have the tower move the clock past the challenge window — behind
// every verdict — and finalize the honest submission.
func (h *Hub) awaitSettlement(lc *lifecycle, sess *hybrid.Session, watch *tower.Watch) *Report {
	rep := lc.rep
	fail := func(err error) *Report { return h.failSession(lc, err) }

	lc.began = time.Now()
	own, done := h.verdict(lc, sess, watch)
	if done != nil {
		h.barrierSpan(lc, lc.began, own, 0)
		return done
	}
	// Honest path: advance past the challenge window and finalize. The
	// clock is shared, so the jump must not overtake ANY window whose
	// dispute is undecided, in flight or not yet read: the tower's step.
	clockStart := time.Now()
	err := h.tower.AdvanceTime(sess.Split.Policy.ChallengePeriod + 1)
	h.barrierSpan(lc, lc.began, own, time.Since(clockStart))
	if h.crashed.Load() {
		return h.crashReport(lc.t, StageSubmitted)
	}
	if err != nil {
		return fail(fmt.Errorf("hub: advance past the challenge window: %w", err))
	}
	fr, err := sess.FinalizeResult(0)
	if err != nil {
		return fail(fmt.Errorf("hub: finalize: %w", err))
	}
	if !fr.Succeeded() {
		// Someone else settled the contract between the barrier and the
		// finalize transaction: a dispute (only possible if someone
		// re-submitted), or — for a recovered session — the finalization the
		// dead generation left in the pool.
		if settled, byDispute := hybrid.Settlement(h.chain, sess.OnChainAddr); settled {
			return h.reportSettled(lc, watch, byDispute)
		}
		return fail(errors.New("hub: finalizeResult reverted"))
	}
	h.metrics.settleTxs.Inc()
	h.metrics.settleGas.Add(fr.GasUsed)
	if !h.advance(lc, StageSettled) {
		return h.crashReport(lc.t, StageSettled)
	}
	h.terminal(lc, StageSettled)
	return rep
}

// verdict is the step every tail takes once a submission may be on chain:
// wait for the tower to have examined every block up to now and decided
// THIS watch, then read the contract's settlement log. own is how long the
// wait took. A non-nil report ends the session — crashed, settled, or left
// open by a dispute the tower filed and could not enforce, in which case
// what stands in the contract is a lie and must not be finalized (both
// reportSettled). Otherwise the submission stands clean; other sessions'
// disputes may still be in flight, and the caller decides whether to wait
// for them.
func (h *Hub) verdict(lc *lifecycle, sess *hybrid.Session, watch *tower.Watch) (own time.Duration, done *Report) {
	start := time.Now()
	h.tower.WaitVerdict(watch, h.chain.Height())
	own = time.Since(start)
	if h.crashed.Load() {
		return own, h.crashReport(lc.t, lc.rep.Stage)
	}
	if settled, byDispute := hybrid.Settlement(h.chain, sess.OnChainAddr); settled || watch.Disputed() {
		return own, h.reportSettled(lc, watch, byDispute)
	}
	return own, nil
}

// reportSettled closes out a session whose contract settled, or that this
// tower disputed, from the chain's settlement log (byDispute,
// hybrid.Settlement), not from how the owner got here. A dispute this
// tower filed that the log does not show as DisputeResolved fails the
// session: what stands is a lie. DisputeResolved is an enforced dispute —
// ours, a federated peer's or a dead generation's. ResultFinalized is a
// finalization this worker did not send (a recovered session whose dead
// generation's finalize was still pooled at the kill): settled, not
// resolved.
func (h *Hub) reportSettled(lc *lifecycle, watch *tower.Watch, byDispute bool) *Report {
	t, rep := lc.t, lc.rep
	if watch.Disputed() && !byDispute {
		return h.failSession(lc, errors.New("hub: dispute filed but not enforced"))
	}
	rep.Disputed = byDispute
	if !rep.Disputed {
		if !h.advance(lc, StageSettled) {
			return h.crashReport(t, StageSettled)
		}
		h.terminal(lc, StageSettled)
		return rep
	}
	if !h.advance(lc, StageDisputed) {
		return h.crashReport(t, StageDisputed)
	}
	if !h.advance(lc, StageResolved) {
		return h.crashReport(t, StageResolved)
	}
	h.terminal(lc, StageResolved)
	return rep
}

// barrierSpan records how long the session's tail waited on the tower,
// split by what each wait guards: own is the own-verdict wait every
// session pays, clock the all-verdicts wait only an honest per-session
// owner pays before its clock jump.
func (h *Hub) barrierSpan(lc *lifecycle, start time.Time, own, clock time.Duration) {
	h.tracer.RecordChild(lc.t.tc, lc.t.ID, "hub", "barrier", start, own+clock,
		fmt.Sprintf("own_ms=%.1f clock_ms=%.1f", own.Seconds()*1e3, clock.Seconds()*1e3))
}
