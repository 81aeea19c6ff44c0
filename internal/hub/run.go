package hub

// Deploy, sign and the private run: a session's lifecycle from its split
// to the unanimous off-chain outcome, and the stage bookkeeping it shares
// with the tail.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"onoffchain/internal/hybrid"
	"onoffchain/internal/store"
	"onoffchain/internal/tower"
	"onoffchain/internal/types"
)

// lifecycle carries one running session's bookkeeping through the stage
// helpers.
type lifecycle struct {
	t     *Ticket
	rep   *Report
	began time.Time
}

// gate starts a stage: a simulated crash abandons the session on the spot
// at its CURRENT stage (lc.rep.Stage), writing nothing; otherwise the
// stage's clock starts and gate returns nil.
func (h *Hub) gate(lc *lifecycle) *Report {
	if h.crashed.Load() {
		return h.crashReport(lc.t, lc.rep.Stage)
	}
	lc.began = time.Now()
	return nil
}

// record makes one of the session's facts durable before the side effect
// that depends on it; nil means proceed. WAL loss fails the session with
// the real cause: a hub that cannot write its WAL must not pretend its
// sessions merely crashed.
func (h *Hub) record(lc *lifecycle, rec *store.Record) *Report {
	if err := h.journal.log(rec); err != nil {
		return h.failSession(lc, fmt.Errorf("hub: wal: %w", err))
	}
	return nil
}

// advance marks a stage as completed: records latency, validates the
// transition against the lifecycle DAG, and runs the crash-injection
// hook. Returning false means the process "died" here.
func (h *Hub) advance(lc *lifecycle, s Stage) bool {
	d := time.Since(lc.began)
	if !ValidTransition(lc.rep.Stage, s) {
		h.metrics.illegalTransitions.Inc()
	}
	lc.rep.Stage = s
	lc.rep.Latency[s] = d
	h.metrics.recordStage(s, d)
	h.tracer.RecordChild(lc.t.tc, lc.t.ID, "hub", "stage:"+s.String(), lc.began, d, "")
	if h.cfg.StageHook != nil && !h.cfg.StageHook(lc.t.ID, s) {
		return false
	}
	return !h.crashed.Load()
}

// terminal writes the session's terminal record. The crash hook has
// already run in advance() for the terminal stage, so a hook-induced
// crash "at" a terminal stage dies between reaching the stage and writing
// this record — the interesting case, where the WAL is behind the chain
// and recovery must classify the session from chain state.
func (h *Hub) terminal(lc *lifecycle, s Stage) {
	h.journal.log(&store.Record{Kind: store.KindTerminal, SID: lc.t.ID, U1: uint64(s)})
}

// failSession is the single failure path: record the cause, close the
// session out in the WAL, return the report. A hub that is simulating
// process death reclassifies the failure as the crash it is — an error
// surfaced by Kill (most often a canceled receipt wait on a batch-mined
// chain) must abandon the session exactly where it stood, with no
// terminal record: a dead process writes nothing.
func (h *Hub) failSession(lc *lifecycle, err error) *Report {
	if h.crashed.Load() {
		return h.crashReport(lc.t, lc.rep.Stage)
	}
	lc.rep.Stage = StageFailed
	lc.rep.Err = err
	h.terminal(lc, StageFailed)
	return lc.rep
}

// runSession drives one session through the full lifecycle state machine.
func (h *Hub) runSession(t *Ticket) *Report {
	spec := t.Spec
	rep := &Report{ID: t.ID, Scenario: spec.Scenario, Stage: StagePending, Latency: make(map[Stage]time.Duration)}
	lc := &lifecycle{t: t, rep: rep}
	fail := func(err error) *Report { return h.failSession(lc, err) }
	if h.cfg.StageHook != nil && !h.cfg.StageHook(t.ID, StagePending) {
		return h.crashReport(t, StagePending)
	}

	// Stage 1: split/generate (cached per scenario).
	if rep := h.gate(lc); rep != nil {
		return rep
	}
	split, err := h.split(spec)
	if err != nil {
		return fail(err)
	}
	if !h.advance(lc, StageSplit) {
		return h.crashReport(t, StageSplit)
	}

	// Fresh identities, funded by the faucet. The party record goes to the
	// WAL before any of them touches the chain: recovery must be able to act
	// for these parties (file disputes, finalize, sweep) or they are lost. It
	// carries their count alone; recovery re-derives the keys from the
	// session ID.
	if rep := h.gate(lc); rep != nil {
		return rep
	}
	if rep := h.record(lc, partiesRecord(t.ID, split.Participants)); rep != nil {
		return rep
	}
	parties := make([]*hybrid.Participant, split.Participants)
	addrs := make([]types.Address, split.Participants)
	for i := range parties {
		key, err := h.deriveKey(t.ID, i)
		if err != nil {
			return fail(err)
		}
		parties[i] = hybrid.NewParticipant(key, h.chain, h.net)
		parties[i].Ctx = h.ctx
		if h.tracer != nil {
			sid, tc := t.ID, t.tc
			parties[i].Trace = func(name string, start time.Time, dur time.Duration, attrs string) {
				h.tracer.RecordChild(tc, sid, "chain", name, start, dur, attrs)
			}
		}
		addrs[i] = parties[i].Addr
	}
	sess, err := hybrid.NewSession(split, parties)
	if err != nil {
		return fail(err)
	}
	// Stamp the session so its whisper envelopes carry the trace across
	// the (future) process boundary.
	sess.Trace = t.tc
	rep.Session = sess

	// Stage 2a: fund the parties and deploy the on-chain half.
	gas := spec.DeployGas
	if gas == 0 {
		gas = 3_000_000
	}
	ctorArgs := spec.CtorArgs(addrs, h.chain.Now())
	if err := h.fundAndDeploy(t, sess, gas, ctorArgs); err != nil {
		return fail(err)
	}
	rep.OnChainAddr = sess.OnChainAddr
	if rep := h.record(lc, &store.Record{Kind: store.KindDeployed, SID: t.ID, Blob: sess.OnChainAddr[:]}); rep != nil {
		return rep
	}
	if !h.advance(lc, StageDeployed) {
		return h.crashReport(t, StageDeployed)
	}

	// Stage 2b: sign and exchange the off-chain copy.
	if rep := h.gate(lc); rep != nil {
		return rep
	}
	exchangeStart := time.Now()
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		return fail(fmt.Errorf("hub: sign/exchange: %w", err))
	}
	h.tracer.RecordChild(t.tc, t.ID, "whisper", "sign_exchange", exchangeStart, time.Since(exchangeStart), "")
	if rep := h.record(lc, &store.Record{Kind: store.KindSigned, SID: t.ID, Blob: sess.Copy.Encode()}); rep != nil {
		return rep
	}
	if !h.advance(lc, StageSigned) {
		return h.crashReport(t, StageSigned)
	}

	return h.runFromSigned(lc, sess, nil, false)
}

// runFromSigned continues a session that holds a verified signed copy —
// either fresh from SignAndExchange (watch nil: the session still needs
// guarding) or rebuilt from the WAL by Recover (watch already armed;
// setupDone reflects the WAL's setup bracket).
func (h *Hub) runFromSigned(lc *lifecycle, sess *hybrid.Session, watch *tower.Watch, setupDone bool) *Report {
	t, rep, spec := lc.t, lc.rep, lc.t.Spec
	fail := func(err error) *Report { return h.failSession(lc, err) }

	// Guard the session first: startPrivateRun below pre-computes the
	// watch's own verdict alongside the parties' runs.
	if watch == nil {
		var err error
		watch, err = h.tower.Guard(sess, t.ID, spec.Scenario, t.tc)
		if err != nil {
			return fail(err)
		}
	}
	rep.Watch = watch

	// Stage 3a starts here, ahead of its gate: private execution has no
	// chain inputs, so the parties' runs and the tower's own verdict overlap
	// the deposits' block wait instead of following it. Joined at the
	// StageExecuted gate, and on every earlier return.
	joinPrivateRun := startPrivateRun(sess, watch)
	defer joinPrivateRun()

	// Scenario setup (deposits etc.), bracketed in the WAL: a crash
	// between the two records leaves on-chain deposit state indeterminate
	// and recovery abandons the session rather than re-running setup. The
	// opening bracket MUST be durable before any deposit lands — if it is
	// not, a later recovery would re-run setup and double-deposit.
	if spec.Setup != nil && !setupDone {
		setupStart := time.Now()
		if rep := h.record(lc, &store.Record{Kind: store.KindSetupStart, SID: t.ID}); rep != nil {
			return rep
		}
		if err := spec.Setup(sess); err != nil {
			return fail(fmt.Errorf("hub: setup: %w", err))
		}
		if rep := h.record(lc, &store.Record{Kind: store.KindSetupDone, SID: t.ID}); rep != nil {
			return rep
		}
		// No Report.Latency stage covers the deposits' block wait; this span
		// is where it shows.
		h.tracer.RecordChild(t.tc, t.ID, "hub", "setup", setupStart, time.Since(setupStart), "")
	}

	// Stage 3a: private unanimous execution.
	if rep := h.gate(lc); rep != nil {
		return rep
	}
	outcome, err := joinPrivateRun()
	if err != nil {
		return fail(err)
	}
	rep.Result = outcome.Result
	if !h.advance(lc, StageExecuted) {
		return h.crashReport(t, StageExecuted)
	}

	// Stage 3b: submit, opening the challenge window. Recovered sessions
	// always submit honestly: the adversarial representative died with
	// the previous generation.
	submitIdx, submitted := 0, outcome.Result
	if spec.Adversarial && !rep.Recovered {
		submitIdx = len(sess.Parties) - 1
		if submitted == 0 {
			submitted = 1
		} else {
			submitted = 0
		}
	}
	rep.Submitted = submitted
	if h.seq != nil {
		return h.settleRollup(lc, sess, watch, submitted)
	}
	if rep := h.gate(lc); rep != nil {
		return rep
	}
	// The one irreversible action of the lifecycle: the submit record must
	// be durable BEFORE the result transaction exists.
	if rep := h.record(lc, &store.Record{Kind: store.KindSubmitted, SID: t.ID, U1: submitted}); rep != nil {
		return rep
	}
	r, err := sess.SubmitResult(submitIdx, submitted)
	if err != nil {
		return fail(fmt.Errorf("hub: submit: %w", err))
	}
	if !r.Succeeded() {
		return fail(errors.New("hub: submitResult reverted"))
	}
	h.metrics.settleTxs.Inc()
	h.metrics.settleGas.Add(r.GasUsed)
	if !h.advance(lc, StageSubmitted) {
		return h.crashReport(t, StageSubmitted)
	}

	return h.awaitSettlement(lc, sess, watch)
}

// startPrivateRun launches stage 3a — the parties' private executions of
// the signed bytecode and the tower's own sandboxed verdict (pre-computed
// off its event loop, so the dispute pipeline finds it cached) — all
// concurrently, as they would run on separate machines. The returned join
// waits for them and yields the unanimous outcome; it may be called more
// than once.
func startPrivateRun(sess *hybrid.Session, watch *tower.Watch) (join func() (*hybrid.OffChainOutcome, error)) {
	var (
		wg                 sync.WaitGroup
		outcome            *hybrid.OffChainOutcome
		execErr, expectErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		outcome, execErr = sess.ExecuteOffChainAll()
	}()
	go func() {
		defer wg.Done()
		_, expectErr = watch.Expected()
	}()
	return func() (*hybrid.OffChainOutcome, error) {
		wg.Wait()
		if execErr != nil {
			return nil, fmt.Errorf("hub: off-chain execution: %w", execErr)
		}
		return outcome, expectErr
	}
}
