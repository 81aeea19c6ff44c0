package hub

import (
	"context"
	"errors"
	"fmt"
	"sort"
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

// SpecRegistry maps scenario names to their specs. The WAL stores only
// the scenario name — configuration is code, state is log — so recovery
// needs the registry to rebuild stage-1 artifacts. Registering a spec
// whose Scenario differs from the original submission's is undetectable
// and on the operator.
type SpecRegistry map[string]*Spec

// NewSpecRegistry builds a registry keyed by each spec's Scenario.
func NewSpecRegistry(specs ...*Spec) SpecRegistry {
	r := make(SpecRegistry, len(specs))
	for _, s := range specs {
		r[s.Scenario] = s
	}
	return r
}

// RecoveryOutcome classifies what Recover did with one WAL session.
type RecoveryOutcome int

const (
	// RecoveryTerminal: the session had already terminated (per the WAL
	// or per the chain); nothing to do.
	RecoveryTerminal RecoveryOutcome = iota
	// RecoveryResumed: the session was rebuilt, is guarded by the new
	// watchtower, and a worker is driving it to termination.
	RecoveryResumed
	// RecoveryAbandoned: the session could not be resumed safely (died
	// before the signed copy existed, mid-setup, or its spec is missing
	// from the registry). It is closed out as failed in the WAL so the
	// next recovery does not resurrect it.
	RecoveryAbandoned
)

func (o RecoveryOutcome) String() string {
	switch o {
	case RecoveryTerminal:
		return "terminal"
	case RecoveryResumed:
		return "resumed"
	case RecoveryAbandoned:
		return "abandoned"
	}
	return "unknown"
}

// RecoveredSession is one WAL session's recovery disposition.
type RecoveredSession struct {
	ID       uint64
	Scenario string
	// Stage is the last write-ahead intent the WAL carried (the stage the
	// session was executing when the hub died), or the terminal stage for
	// RecoveryTerminal sessions.
	Stage   Stage
	Outcome RecoveryOutcome
	// Why explains an abandonment.
	Why string
	// Ticket is the resumed session's handle (RecoveryResumed only).
	Ticket *Ticket
}

// RecoverReport summarizes one Recover run.
type RecoverReport struct {
	Sessions []*RecoveredSession
	// Cursor is the durable block cursor the chain-event replay started
	// after; ReplayedTo is the head it replayed through.
	Cursor     uint64
	ReplayedTo uint64
}

// Resumed returns the tickets of every resumed session.
func (r *RecoverReport) Resumed() []*Ticket {
	var out []*Ticket
	for _, s := range r.Sessions {
		if s.Outcome == RecoveryResumed {
			out = append(out, s.Ticket)
		}
	}
	return out
}

// Recover rebuilds a hub from a crashed generation's WAL. The sequence is
// replay-before-act:
//
//  1. Fold the WAL into per-session state; no chain interaction yet.
//  2. Start the new hub (fresh workers, fresh watchtower subscribed to
//     live blocks) with a session-ID floor above the WAL's high mark —
//     party keys derive from session IDs, so no dead session's keys are
//     ever re-minted.
//  3. Rebuild every resumable session (participants from their logged
//     scalars, signed copy decoded and re-verified, on-chain address) and
//     re-arm the watchtower over it, restoring its challenge window from
//     the WAL.
//  4. Re-examine every restored window, then replay chain events after
//     the durable cursor (Watchtower.CatchUp). Any fraudulent submission
//     whose contract is not yet settled is disputed immediately — exactly
//     once, because examinations claim the dispute per-watch and the
//     chain's settled flag vetoes re-filing lies whose dispute already
//     landed.
//  5. Enqueue a resume job per session so workers drive it to a terminal
//     stage (finalizing honest submissions once their window elapses).
//  6. Await the receipts of the abandoned sessions' sweeps, pooled back in
//     step 3 — time-boxed, and last, so the block they wait for is the one
//     steps 4 and 5 are already using.
//
// The store must be the crashed generation's store, reopened (or still
// open); the new hub appends to it. Sessions that died before their
// signed copy existed cannot be resumed (the off-chain handshake state
// is gone with the process) and are closed out as failed — the paper's
// protocol has nothing at stake on-chain before deploy/sign completes.
//
// On a chain with AutoMine off, block production must already be running
// (chain.StartMining, or something calling MineBlock) before Recover is
// called: recovery itself transacts — abandoned-session sweeps, and any
// dispute the replay files — and those transactions only resolve when
// blocks are sealed.
func Recover(st *store.Store, c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config, registry SpecRegistry) (*Hub, *RecoverReport, error) {
	recs, err := st.Replay()
	if err != nil {
		return nil, nil, fmt.Errorf("hub: recover: %w", err)
	}
	live, terminal, cursor, sidFloor := foldRecords(recs)

	// Refuse to start at all if the registry cannot cover a session that
	// may still need guarding: silently abandoning a mid-challenge
	// session because its scenario was renamed would leave a fraudulent
	// submission undisputed. (Sessions that are unresumable for WAL-state
	// reasons are handled below — this gate is only about configuration.)
	for _, ss := range live {
		if ss.CopyEnc == nil || ss.Addr.IsZero() || ss.Scalars == nil {
			continue
		}
		if _, ok := registry[ss.Scenario]; !ok {
			return nil, nil, fmt.Errorf("hub: recover: session %d needs scenario %q, which is not in the registry — refusing to abandon a session that may have an open challenge window", ss.ID, ss.Scenario)
		}
	}
	cfg.Store = st
	// holdCursor: until the replay below has re-examined everything after
	// the durable cursor, the live tower must not journal cursor advances
	// for fresh blocks — a second crash mid-recovery would otherwise
	// resume past outage-range events nobody ever examined.
	h := newHub(c, net, faucetKey, cfg, sidFloor, true)
	// Seed the new journal with the ENTIRE folded state before the first
	// record is logged: abandoning sessions writes terminal records, and
	// enough of those can trigger compaction mid-recovery — which deletes
	// the old generation's segments. At that moment the snapshot must
	// already carry every live session and the durable cursor, or
	// sessions not yet classified would lose their identity records (and
	// with them, any chance of surviving a second crash). The session-ID
	// mark likewise must never snapshot below the allocator floor.
	for _, ss := range live {
		h.journal.seed(ss)
	}
	h.journal.seedCursor(cursor)
	h.journal.seedSIDHigh(sidFloor)
	// Rebuild the sequencer from the WAL's rollup records now — resumed
	// sessions route through h.seq — but do NOT start it yet: Start can
	// re-post epochs the crash tore between seal and receipt, and those
	// posts must open batch windows on a tower that already guards the
	// sessions (launchRollup runs after the guard loop below).
	if cfg.Rollup != nil {
		if err := h.initRollup(rollup.Fold(recs)); err != nil {
			h.Stop()
			return nil, nil, fmt.Errorf("hub: recover: rollup: %w", err)
		}
	}
	report := &RecoverReport{Cursor: cursor}

	for sid, stage := range terminal {
		report.Sessions = append(report.Sessions, &RecoveredSession{
			ID: sid, Stage: stage, Outcome: RecoveryTerminal,
		})
	}

	type resumable struct {
		ss    *sessionState
		sess  *hybrid.Session
		watch *Watch
		spec  *Spec
	}
	var resumables []*resumable
	// Abandoned sessions: the WAL still holds the parties' keys, so whatever
	// faucet funding is left in their accounts goes back before the session
	// is closed out. (Partial deposits inside a contract are beyond reach.)
	// The sweeps of ALL abandoned sessions are pooled here and awaited
	// together at the end of Recover, so the block that carries them also
	// carries the replay's disputes and the resumed sessions' next steps.
	type abandoned struct {
		rs     *RecoveredSession
		sweeps []types.Hash
	}
	var abandons []*abandoned
	abandon := func(ss *sessionState, why string) {
		h.metrics.sessionsAbandoned.Inc()
		sweeps := h.sendSweeps(ss)
		// Close the session out in the WAL so the next recovery does not
		// resurrect it, then record why for the operator.
		h.journal.log(&store.Record{Kind: store.KindTerminal, SID: ss.ID, U1: uint64(StageFailed)})
		rs := &RecoveredSession{
			ID: ss.ID, Scenario: ss.Scenario, Stage: ss.Stage,
			Outcome: RecoveryAbandoned, Why: why,
		}
		report.Sessions = append(report.Sessions, rs)
		abandons = append(abandons, &abandoned{rs: rs, sweeps: sweeps})
	}

	for _, ss := range sortedSessions(live) {
		if ss.CopyEnc == nil || ss.Addr.IsZero() || ss.Scalars == nil {
			abandon(ss, "died before deploy/sign completed; no signed copy to act on")
			continue
		}
		if ss.SetupStarted && !ss.SetupDone {
			abandon(ss, "died mid-setup; on-chain deposit state indeterminate")
			continue
		}
		spec := registry[ss.Scenario] // presence pre-validated above
		sess, err := h.rebuildSession(ss, spec)
		if err == nil {
			honest := ss.Honest
			if honest < 0 {
				honest = 0
			}
			// A recovered session starts a fresh trace: the dead process's
			// trace ring died with it, and the WAL doesn't carry span state.
			var rtc telemetry.TraceContext
			if h.tracer != nil {
				rtc = h.tracer.NewTrace()
				h.tracer.RecordSpan(rtc, 0, ss.ID, "hub", "session_recovered", time.Now(), 0, "scenario="+ss.Scenario)
				sess.Trace = rtc
			}
			var watch *Watch
			if watch, err = h.tower.guard(sess, honest, ss.ID, ss.Scenario, rtc); err == nil {
				if ss.HasWindow {
					watch.mu.Lock()
					watch.window = &Window{
						Contract:  sess.OnChainAddr,
						Submitter: ss.WindowSubmitter,
						Result:    ss.WindowResult,
						OpenedAt:  ss.WindowOpenedAt,
						Deadline:  ss.WindowDeadline,
					}
					watch.mu.Unlock()
				}
				resumables = append(resumables, &resumable{ss: ss, sess: sess, watch: watch, spec: spec})
				continue
			}
		}
		// Rebuild or guard failed. If the session may have an open
		// challenge window (a submission intent or an observed window in
		// the WAL), abandoning it — terminal record, funds swept — would
		// permanently unguard a possibly-fraudulent submission. That is an
		// operator/configuration problem (e.g. a same-named spec with a
		// different participant set), so fail the whole recovery loudly
		// and leave the WAL untouched for a corrected retry.
		if ss.SubmittedSet || ss.HasWindow {
			h.Stop()
			return nil, nil, fmt.Errorf("hub: recover: session %d (%s) may have an open challenge window but cannot be rebuilt: %v", ss.ID, ss.Scenario, err)
		}
		abandon(ss, err.Error())
	}
	// Replay-before-act, step 4: first the WAL's restored windows (events
	// at or before the cursor the dead tower had already examined), then
	// the chain events the dead tower never saw. The tower's live
	// subscription has been running since newHub, so events mined from
	// here on are handled twice at most — idempotently.
	if h.seq != nil {
		// Batch mode: a restored per-session window carries no Merkle
		// context (KindWindow predates the epoch), so batch windows are
		// re-armed by re-ingesting every cached posted epoch instead —
		// launchRollup also reconciles torn epochs against the chain,
		// re-posting exactly the ones that never landed, with the guard
		// set armed so those posts open their windows.
		if err := h.launchRollup(); err != nil {
			h.Stop()
			return nil, nil, fmt.Errorf("hub: recover: rollup: %w", err)
		}
	} else {
		for _, r := range resumables {
			if w := r.watch.OpenWindow(); w != nil {
				h.tower.RestoreWindow(r.watch, *w)
			}
		}
	}
	head := h.tower.CatchUp(cursor)
	// The outage range is covered: release the cursor hold, then journal
	// the replayed head. (Order is safe — any cursor the live loop logs
	// in between is for a block it fully examined, and the fold takes the
	// max.)
	h.journal.releaseCursor()
	h.journal.log(&store.Record{Kind: store.KindCursor, U1: head})
	report.ReplayedTo = head

	// Step 5: hand every survivor to the worker pool to finish.
	for _, r := range resumables {
		r := r
		h.metrics.sessionsRecovered.Inc()
		h.metrics.sessionsStarted.Inc()
		t := &Ticket{ID: r.ss.ID, Spec: r.spec, tc: r.watch.tc, done: make(chan struct{})}
		t.run = func(shard *hybrid.Participant) *Report {
			return h.resumeSession(t, r.ss, r.sess, r.watch)
		}
		report.Sessions = append(report.Sessions, &RecoveredSession{
			ID: r.ss.ID, Scenario: r.ss.Scenario, Stage: r.ss.Stage,
			Outcome: RecoveryResumed, Ticket: t,
		})
		h.jobs <- t
	}

	// The sweeps pooled in step 3 have been riding along with everything
	// above; only now are their receipts awaited. Best effort and
	// time-bounded: the wait is INSIDE Recover, before the caller holds a hub
	// it could Kill, so an unbounded wait on a chain whose block production
	// is down would wedge recovery itself (the funds stay sweepable by the
	// next recovery; a torn dispute would not be, which is why disputes get
	// no such cap).
	if len(abandons) > 0 {
		ctx, cancel := context.WithTimeout(h.ctx, sweepTimeBox)
		for _, a := range abandons {
			swept := 0
			for _, hash := range a.sweeps {
				if r, err := h.chain.WaitReceipt(ctx, hash); err == nil && r.Succeeded() {
					swept++
				}
			}
			if swept > 0 {
				a.rs.Why = fmt.Sprintf("%s; swept %d party balances back to the faucet", a.rs.Why, swept)
			}
		}
		cancel()
	}
	return h, report, nil
}

// sweepTimeBox bounds Recover's wait on its abandoned-session sweeps. A
// variable only so a test can watch the box expire without sitting it out.
var sweepTimeBox = 10 * time.Second

// sortedSessions returns the live sessions in ID order so recovery is
// deterministic.
func sortedSessions(live map[uint64]*sessionState) []*sessionState {
	out := make([]*sessionState, 0, len(live))
	for _, ss := range live {
		out = append(out, ss)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// sendSweeps pools one transfer per party of an abandoned session, moving
// its remaining balance back to the faucet, and returns the transaction
// hashes for Recover to await. The keys are re-derived (see deriveKey); the
// WAL's party record supplies the count, which a session whose spec is gone
// has nowhere else to get. Unreachable or dust balances are left behind.
func (h *Hub) sendSweeps(ss *sessionState) []types.Hash {
	gasCost := uint256.NewInt(21_000) // transfer gas at gas price 1
	var hashes []types.Hash
	for i := range ss.Scalars {
		key, err := h.deriveKey(ss.ID, i)
		if err != nil {
			continue
		}
		p := hybrid.NewParticipant(key, h.chain, nil)
		bal := h.chain.BalanceAt(p.Addr)
		if !bal.Gt(gasCost) {
			continue
		}
		value := new(uint256.Int).Sub(bal, gasCost)
		if hash, err := p.SendTxAsync(&h.faucet.Addr, value, 21_000, nil); err == nil {
			hashes = append(hashes, hash)
		}
	}
	return hashes
}

// rebuildSession reconstructs a hybrid.Session from its durable state
// (hybrid.RebuildSession) and re-verifies the signed copy against the
// rebuilt participants: the hub resumes the protocol from this copy, so it
// must be the one all parties signed.
func (h *Hub) rebuildSession(ss *sessionState, spec *Spec) (*hybrid.Session, error) {
	split, err := h.split(spec)
	if err != nil {
		return nil, err
	}
	sess, err := hybrid.RebuildSession(split, ss.Scalars, h.chain, h.net, h.ctx, ss.Addr, ss.CopyEnc)
	if err != nil {
		return nil, err
	}
	if err := sess.Copy.Verify(sess.ParticipantAddrs()); err != nil {
		return nil, fmt.Errorf("signed copy: %v", err)
	}
	return sess, nil
}

// resumeSession drives a recovered session to a terminal stage. Where it
// re-enters the lifecycle depends on what the chain already knows:
// settled contracts just need their terminal record; an open submission
// re-enters at the settlement barrier (the tower replay has already
// disputed it if fraudulent); anything earlier re-runs from the signed
// copy — including an honest re-submission, since re-executing the
// deterministic off-chain bytecode reproduces the agreed result.
func (h *Hub) resumeSession(t *Ticket, ss *sessionState, sess *hybrid.Session, watch *Watch) *Report {
	rep := &Report{
		ID: ss.ID, Scenario: ss.Scenario, Stage: ss.Stage, Recovered: true,
		OnChainAddr: sess.OnChainAddr, Session: sess, Watch: watch,
		Latency: make(map[Stage]time.Duration),
	}
	lc := &lifecycle{t: t, rep: rep, began: time.Now()}
	fail := func(err error) *Report { return h.failSession(lc, err) }

	// Let the dispute pipeline reach its verdict on whatever window the
	// recovery replay found for this session before reading chain state:
	// filing is asynchronous, so "the replay has already disputed it" is
	// only true past the own-verdict barrier.
	h.tower.WaitVerdict(watch, h.chain.Height())
	if h.crashed.Load() {
		return h.crashReport(t, rep.Stage)
	}
	settled, err := sess.IsSettled()
	if err != nil {
		return fail(err)
	}
	if settled {
		// Settled during the outage or by the recovery replay's dispute.
		// Close the restored watch from chain truth: the settle event can
		// predate the durable cursor (the dying tower examined its block
		// and advanced the cursor before the crash), in which case neither
		// the replay nor live delivery will ever close the window — left
		// alone it would sit "open" in the tower forever.
		byDispute := settledByDispute(h.chain, sess.OnChainAddr)
		h.tower.onSettled(watch, sess.OnChainAddr, byDispute)
		raised, won := watch.Disputed()
		rep.Disputed = raised
		final := StageSettled
		if raised {
			if !won && !byDispute {
				return fail(fmt.Errorf("hub: recovered dispute filed but not enforced"))
			}
			final = StageResolved
		} else if byDispute {
			// The dead generation's tower (or a party) won the dispute
			// before the crash; report the truth the chain remembers.
			rep.Disputed = true
			final = StageResolved
		}
		if exp, err := watch.Expected(); err == nil {
			rep.Result = exp
		}
		rep.Stage = final
		h.metrics.recordStage(final, time.Since(lc.began))
		h.terminal(lc, final)
		return rep
	}

	if h.seq != nil {
		// Rollup mode: no per-session settlement exists to wait for. A
		// submitted session re-enqueues its leaf — idempotent: it adopts
		// the live ticket if the crash left one pending, or resolves
		// instantly if the leaf already rode a posted epoch — and rejoins
		// at the epoch wait. Anything earlier re-runs from the signed copy.
		if exp, err := watch.Expected(); err == nil {
			rep.Result = exp
		}
		if ss.SubmittedSet {
			rep.Stage = StageSubmitted
			rep.Submitted = ss.Submitted
			fut, err := h.seq.Enqueue(rollup.Leaf{SID: ss.ID, Contract: sess.OnChainAddr, Outcome: ss.Submitted}, t.tc)
			if err != nil {
				if h.crashed.Load() || errors.Is(err, rollup.ErrHalted) {
					return h.crashReport(t, rep.Stage)
				}
				return fail(fmt.Errorf("hub: rollup re-enqueue: %w", err))
			}
			return h.awaitRollup(lc, sess, watch, fut)
		}
		rep.Stage = StageSigned
		return h.runFromSigned(lc, sess, watch, ss.SetupDone)
	}

	if w := watch.OpenWindow(); w != nil {
		// Mid-challenge: the submission is on-chain. The recovery replay
		// has already examined it, so a mismatch still standing here means
		// the dispute could not be enforced — never finalize it.
		exp, err := watch.Expected()
		if err != nil {
			return fail(err)
		}
		if w.Result != exp {
			return fail(fmt.Errorf("hub: recovered fraudulent submission (%d for %d) not disputed", w.Result, exp))
		}
		rep.Stage = StageSubmitted
		rep.Submitted = w.Result
		rep.Result = exp
		return h.awaitSettlement(lc, sess, watch)
	}

	// Nothing on-chain past deploy/sign: re-enter the lifecycle at the
	// signed-copy stage. Setup is skipped iff the WAL says it completed.
	rep.Stage = StageSigned
	return h.runFromSigned(lc, sess, watch, ss.SetupDone)
}
