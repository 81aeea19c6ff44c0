package hub

import (
	"context"
	"fmt"
	"sort"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/tower"
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
	// Stage is the last stage whose fact the WAL carried (the submit
	// record, the signed copy, the contract address, the party record), or
	// the terminal stage for RecoveryTerminal sessions.
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
//  2. Start the new hub (fresh workers, fresh watchtower reading every
//     block sealed from now on — in rollup mode armed with the sequencer
//     rebuilt from the WAL, not yet started) with a session-ID floor above the WAL's
//     high mark — party keys derive from session IDs, so no dead session's
//     keys are ever re-minted.
//  3. Rebuild every resumable session (participants from keys re-derived
//     from the session ID, signed copy decoded and re-verified, on-chain
//     address) and re-arm the watchtower over it: each guard reads its
//     contract's whole history from the chain's log index, which reopens
//     its windows in chain order. Any fraudulent submission whose contract
//     is not yet settled is disputed immediately — exactly once, because
//     examinations claim the dispute per-watch and the contract's
//     settlement log vetoes re-filing lies whose dispute already landed.
//  4. In rollup mode, start the sequencer, which re-posts torn epochs; the
//     tower's block loop reads those posts with every guard armed.
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
// dispute a guard files — and those transactions only resolve when
// blocks are sealed.
func Recover(st *store.Store, c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config, registry SpecRegistry) (*Hub, *RecoverReport, error) {
	recs, err := st.Replay()
	if err != nil {
		return nil, nil, fmt.Errorf("hub: recover: %w", err)
	}
	live, terminal, sidFloor := foldRecords(recs)

	// Refuse to start at all if the registry cannot cover a session that
	// may still need guarding: silently abandoning a mid-challenge
	// session because its scenario was renamed would leave a fraudulent
	// submission undisputed. (Sessions that are unresumable for WAL-state
	// reasons are handled below — this gate is only about configuration.)
	for _, ss := range live {
		if ss.CopyEnc == nil || ss.Addr.IsZero() || ss.Parties == 0 {
			continue
		}
		if _, ok := registry[ss.Scenario]; !ok {
			return nil, nil, fmt.Errorf("hub: recover: session %d needs scenario %q, which is not in the registry — refusing to abandon a session that may have an open challenge window", ss.ID, ss.Scenario)
		}
	}
	cfg.Store = st
	h := newHub(c, net, faucetKey, cfg, sidFloor)
	// Seed the new journal with the ENTIRE folded state before the first
	// record is logged: abandoning sessions writes terminal records, and
	// enough of those can trigger compaction mid-recovery — which deletes
	// the old generation's segments. At that moment the snapshot must
	// already carry every live session, or sessions not yet classified
	// would lose their identity records (and with them, any chance of
	// surviving a second crash). The session-ID mark likewise must never
	// snapshot below the allocator floor.
	for _, ss := range live {
		h.journal.seed(ss)
	}
	h.journal.seedSIDHigh(sidFloor)
	// Rebuild the sequencer from the WAL's rollup records now — the tower is
	// armed with it and resumed sessions route through it — but do NOT
	// start it yet: Start can re-post epochs the crash tore between seal
	// and receipt, and those posts must open batch windows on a tower that
	// already guards the sessions (it starts after the guard loop below).
	if err := h.start(rollup.Fold(recs)); err != nil {
		h.Stop()
		return nil, nil, fmt.Errorf("hub: recover: rollup: %w", err)
	}
	report := &RecoverReport{}

	for sid, stage := range terminal {
		report.Sessions = append(report.Sessions, &RecoveredSession{
			ID: sid, Stage: stage, Outcome: RecoveryTerminal,
		})
	}

	type resumable struct {
		ss    *sessionState
		sess  *hybrid.Session
		watch *tower.Watch
		spec  *Spec
	}
	var resumables []*resumable
	// Abandoned sessions: the parties' keys re-derive from the session ID,
	// so whatever faucet funding is left in their accounts goes back before
	// the session is closed out. (Partial deposits inside a contract are
	// beyond reach.)
	// The sweeps of ALL abandoned sessions are pooled here and awaited
	// together at the end of Recover, so the block that carries them also
	// carries the guards' disputes and the resumed sessions' next steps.
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
			ID: ss.ID, Scenario: ss.Scenario, Stage: ss.stage(),
			Outcome: RecoveryAbandoned, Why: why,
		}
		report.Sessions = append(report.Sessions, rs)
		abandons = append(abandons, &abandoned{rs: rs, sweeps: sweeps})
	}

	for _, ss := range sortedSessions(live) {
		if ss.CopyEnc == nil || ss.Addr.IsZero() || ss.Parties == 0 {
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
			// A recovered session starts a fresh trace: the dead process's
			// trace ring died with it, and the WAL doesn't carry span state.
			var rtc telemetry.TraceContext
			if h.tracer != nil {
				rtc = h.tracer.NewTrace()
				h.tracer.RecordSpan(rtc, 0, ss.ID, "hub", "session_recovered", time.Now(), 0, "scenario="+ss.Scenario)
				sess.Trace = rtc
			}
			var watch *tower.Watch
			if watch, err = h.tower.Guard(sess, ss.ID, ss.Scenario, rtc); err == nil {
				resumables = append(resumables, &resumable{ss: ss, sess: sess, watch: watch, spec: spec})
				continue
			}
		}
		// Rebuild or guard failed. If the session may have an open
		// challenge window (a submit record in the WAL, which always
		// precedes the transaction), abandoning it — terminal record, funds
		// swept — would permanently unguard a possibly-fraudulent submission. That is an
		// operator/configuration problem (e.g. a same-named spec with a
		// different participant set), so fail the whole recovery loudly
		// and leave the WAL untouched for a corrected retry.
		if ss.SubmittedSet {
			h.Stop()
			return nil, nil, fmt.Errorf("hub: recover: session %d (%s) may have an open challenge window but cannot be rebuilt: %v", ss.ID, ss.Scenario, err)
		}
		abandon(ss, err.Error())
	}
	// Replay-before-act, step 4. In batch mode the guard loop above already
	// re-opened every batch window whose post had landed, from the Source at
	// the time of the block that carries the post; Start reconciles torn
	// epochs against the chain's logs, re-posting exactly the ones that
	// never landed, and with the guard set armed each re-post — and any
	// pooled post of the dead generation that mines meanwhile — opens its
	// windows through its EpochPosted log.
	if h.seq != nil {
		if err := h.seq.Start(); err != nil {
			h.Stop()
			return nil, nil, fmt.Errorf("hub: recover: rollup: %w", err)
		}
	}

	// Step 5: hand every survivor to the worker pool to finish.
	for _, r := range resumables {
		r := r
		h.metrics.sessionsRecovered.Inc()
		h.metrics.sessionsStarted.Inc()
		t := &Ticket{ID: r.ss.ID, Spec: r.spec, tc: r.watch.TraceCtx(), done: make(chan struct{})}
		t.run = func() *Report {
			return h.resumeSession(t, r.ss, r.sess, r.watch)
		}
		report.Sessions = append(report.Sessions, &RecoveredSession{
			ID: r.ss.ID, Scenario: r.ss.Scenario, Stage: r.ss.stage(),
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
	for i := 0; i < ss.Parties; i++ {
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

// rebuildSession reconstructs a hybrid.Session from its durable state and
// the party keys re-derived from its ID (hybrid.RebuildSession), and
// re-verifies the signed copy against the rebuilt participants: the hub
// resumes the protocol from this copy, so it must be the one all parties
// signed.
func (h *Hub) rebuildSession(ss *sessionState, spec *Spec) (*hybrid.Session, error) {
	split, err := h.split(spec)
	if err != nil {
		return nil, err
	}
	keys, err := h.partyKeys(ss)
	if err != nil {
		return nil, err
	}
	sess, err := hybrid.RebuildSession(split, keys, h.chain, h.net, h.ctx, ss.Addr, ss.CopyEnc)
	if err != nil {
		return nil, err
	}
	if err := sess.Copy.Verify(sess.ParticipantAddrs()); err != nil {
		return nil, fmt.Errorf("signed copy: %v", err)
	}
	return sess, nil
}

// partyKeys re-derives a WAL session's party keys (see deriveKey); the WAL
// holds only their count.
func (h *Hub) partyKeys(ss *sessionState) ([]*secp256k1.PrivateKey, error) {
	keys := make([]*secp256k1.PrivateKey, ss.Parties)
	for i := range keys {
		key, err := h.deriveKey(ss.ID, i)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	return keys, nil
}

// resumeSession drives a recovered session to a terminal stage. It opens
// with the verdict step every tail takes — the session's guard has reached
// its decision on whatever window it found, so a settled contract is
// labelled from the chain and a standing lie is never finalized — and then
// re-enters the lifecycle where the chain and the WAL say the session
// stands: an open submission at its settlement barrier, a journaled rollup
// leaf at the enqueue (idempotent), anything earlier at the signed copy —
// including an honest re-submission, since re-executing the deterministic
// off-chain bytecode reproduces the agreed result.
func (h *Hub) resumeSession(t *Ticket, ss *sessionState, sess *hybrid.Session, watch *tower.Watch) *Report {
	rep := &Report{
		ID: ss.ID, Scenario: ss.Scenario, Stage: ss.stage(), Recovered: true,
		OnChainAddr: sess.OnChainAddr, Session: sess, Watch: watch,
		Latency: make(map[Stage]time.Duration),
	}
	exp, expErr := watch.Expected()
	rep.Result = exp
	lc := &lifecycle{t: t, rep: rep, began: time.Now()}
	if _, done := h.verdict(lc, sess, watch); done != nil {
		return done
	}

	if h.seq != nil {
		// Rollup mode: no per-session settlement exists to wait for. A
		// journaled leaf re-enters at the enqueue and rejoins at the epoch
		// wait; anything earlier re-runs from the signed copy.
		if ss.SubmittedSet {
			rep.Stage = StageExecuted
			rep.Submitted = ss.Submitted
			return h.settleRollup(lc, sess, watch, ss.Submitted)
		}
		rep.Stage = StageSigned
		return h.runFromSigned(lc, sess, watch, ss.SetupDone)
	}

	if w := watch.OpenWindow(); w != nil {
		// Mid-challenge: the submission is on-chain and the verdict step
		// found it clean. Never finalize what the sandbox cannot vouch for.
		if expErr != nil {
			return h.failSession(lc, expErr)
		}
		if w.Result != exp {
			return h.failSession(lc, fmt.Errorf("hub: recovered fraudulent submission (%d for %d) not disputed", w.Result, exp))
		}
		rep.Stage = StageSubmitted
		rep.Submitted = w.Result
		return h.awaitSettlement(lc, sess, watch)
	}

	// Nothing on-chain past deploy/sign: re-enter the lifecycle at the
	// signed-copy stage. Setup is skipped iff the WAL says it completed.
	rep.Stage = StageSigned
	return h.runFromSigned(lc, sess, watch, ss.SetupDone)
}
