// Package tower is the protocol's third role beside the participants
// (internal/hybrid) and the operator that runs their sessions
// (internal/hub): a watcher that reads the chain, checks each submitted
// result against its own sandboxed run of the signed off-chain code, and
// disputes a lie inside its challenge window. A hub runs one for its own
// sessions; a federation member (internal/federation) wraps one. The
// package imports neither.
package tower

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// Watchtower is an always-on chain monitor (in the tradition of
// state-channel watchtowers): it wakes on each sealed block, reads the
// lifecycle events its guarded contracts emitted in the new blocks from
// the chain's log index, tracks every open challenge window, and — when a
// submitted result disagrees with its own sandboxed execution of the
// signed off-chain bytecode — files a dispute on behalf of the honest
// participant, inside the challenge window.
//
// Dispute filing is asynchronous: the event loop never transacts. Every
// open window is handed to the dispute pipeline — a pacer goroutine per
// undecided window that verifies first, on one of a bounded set of sandbox
// slots, and only when the submission disagrees with that verdict consults
// the dispute gate (federation arbitration; absent a gate the answer is
// always "file now") and files with the slot already released.
// Two steps read the pipeline, one per invariant (DESIGN.md §4):
// WaitVerdict(e, h) — block ≤ h examined and THIS watch's decision
// reached — is what a session owner waits for before reporting, and
// AdvanceTime — every sealed block examined and EVERY decision reached,
// then the clock jump, made only if no block was sealed in between — is
// how it moves the shared clock, so nobody can advance time past a window
// whose verdict is still pending or whose submission nobody has read.
//
// The tower keeps no durable state: the chain is its only memory. Taking a
// guard reads the contract's whole history from the chain's log index, so
// a restarted tower that re-guards its sessions reopens every window in
// chain order.
type Watchtower struct {
	chain   *chain.Chain
	metrics *metrics
	tracer  *telemetry.Tracer // nil: no spans
	wg      sync.WaitGroup

	// The federation's two collaborators: Federate installs them on an
	// already-running tower — by which time the event loop may have processed
	// blocks — so every access goes through cbMu. Both are set before any
	// session is guarded and never changed after.
	cbMu     sync.RWMutex
	observer TowerObserver
	gate     DisputeGate

	sem     chan struct{} // sandbox slots: bounds concurrent Watch.Expected runs, never a filing
	pacerWG sync.WaitGroup
	stopCh  chan struct{} // closed by Stop: the loop returns, pacers wind down undecided
	haltCh  chan struct{} // closed by Halt: the "process" is dead

	// Rollup guard state, fixed at construction (nil in per-session mode):
	// the Source that resolves an epoch number to its leaves + proofs, and
	// the registry it names, whose EpochPosted events open batch windows.
	rollupSrc rollup.Source
	rollupReg *rollup.Registry

	mu        sync.Mutex
	cond      *sync.Cond
	entries   map[types.Address]*Watch
	processed uint64 // highest block number fully processed
	pending   int    // windows whose dispute decision is still open
	stopped   bool
	halted    bool // simulated crash: the tower is "dead"
}

// TowerObserver tells an external listener — the federation layer — when
// the tower takes and ends a guard, without handing it ownership of
// sessions; the tower's guard set stays the only one. Callbacks run
// outside the tower's locks, on the event loop and dispute pipeline
// goroutines; implementations must be concurrency-safe and must not block
// for long (they stall block examination). Filings are not reported: the
// tower counts its own (Snapshot.DisputesRaised and kin).
type TowerObserver interface {
	// Guarded: the tower took a session's contract under guard.
	Guarded(e *Watch, contract types.Address)
	// WindowClosed: the tower ended the guard — the contract settled, or
	// its rolled-up leaf's batch window verified clean. How a contract
	// settled is the chain's to say (its settlement log).
	WindowClosed(contract types.Address)
}

// DisputeGate times the filing against a window this tower has already
// verified to be a lie on contract: 0 (or less) means file now, a positive
// delay means another guard is responsible right now — ask again after it.
// since is how long ago this tower's own sandbox first found the lie; the
// pacer that asks owns that clock, so the gate keeps no state. The window
// stays pending (the clock step stays held) until a later answer
// files or the contract settles. A nil gate always answers 0 — the
// single-tower hub's behavior. The federation installs a gate that defers
// to the window's slot 0 and escalates on staggered timeouts.
type DisputeGate func(contract types.Address, since time.Duration) time.Duration

// Watch is the watchtower's record of one guarded session.
type Watch struct {
	sess     *hybrid.Session
	id       uint64                 // hub session ID (0 for sessions guarded standalone)
	scenario string                 // spec label, for federated guard-state export
	tc       telemetry.TraceContext // causal identity; zero when untraced
	// settledCh is closed by the onSettled call that first sets settled. The
	// field is set at construction and never changes, so it is read unlocked.
	settledCh chan struct{}

	expectOnce sync.Once
	expected   uint64
	expectErr  error

	mu         sync.Mutex
	window     *Window
	rollup     *rollupLeaf // batch context; set when a posted epoch carries this session
	pending    bool        // a dispute pipeline job is driving this watch
	disputed   bool
	disputedAt uint64 // chain time when the tower filed the dispute
	deadline   uint64 // window deadline at dispute time
	settled    bool
}

// Window is an open challenge window: a submission awaiting finalization.
type Window struct {
	Contract types.Address
	Result   uint64
	Deadline uint64 // submission block timestamp + challenge period
}

// NewWatchtower starts a tower on the chain at its current head: its block
// loop reads the blocks sealed from here on, and a guard reads its own
// contract's older ones. Stop() must be called to release its goroutines.
// reg is the registry the tower's counters are published into — a hub
// passes its own; nil keeps them private (the federation's standalone
// towers). tr records tower-layer spans (windows opened, settlements,
// dispute filings); nil disables them. src, when set, arms the tower for
// batch settlement: EpochPosted events on src's registry open a batch
// window per guarded leaf, and disputes open that leaf against the posted
// root first. Guarded sessions keep their per-session logs too, so dispute
// resolutions still settle watches the normal way.
func NewWatchtower(c *chain.Chain, reg *telemetry.Registry, tr *telemetry.Tracer, src rollup.Source) *Watchtower {
	w := &Watchtower{
		chain:     c,
		metrics:   newMetrics(reg),
		tracer:    tr,
		entries:   make(map[types.Address]*Watch),
		processed: c.Height(),
		sem:       make(chan struct{}, SandboxSlots),
		stopCh:    make(chan struct{}),
		haltCh:    make(chan struct{}),
	}
	if src != nil {
		w.rollupSrc, w.rollupReg = src, src.Registry()
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(1)
	go w.loop()
	return w
}

// Federate installs the federation's observer and its filing arbiter. Must be
// called before any session is guarded.
func (w *Watchtower) Federate(obs TowerObserver, gate DisputeGate) {
	w.cbMu.Lock()
	w.observer, w.gate = obs, gate
	w.cbMu.Unlock()
}

// federated is the loop-side read of the late-installed collaborators.
func (w *Watchtower) federated() (TowerObserver, DisputeGate) {
	w.cbMu.RLock()
	defer w.cbMu.RUnlock()
	return w.observer, w.gate
}

// Metrics exposes the tower's counter snapshot.
func (w *Watchtower) Metrics() Snapshot { return w.metrics.snapshot() }

// Guard registers a session whose on-chain contract the tower should
// monitor; the tower files disputes as party 0 (see disputer). sid is the
// hub session ID the watch reports (Watch.SID): 0 for a session guarded
// standalone, such as one a federated tower adopts for a peer. scenario
// labels the session's spec (federated towers gossip it so peers can
// rebuild the guard from their SpecRegistry — pass "" when unused).
// tc is the session's causal trace context (zero when untraced), so the
// spans a standalone tower records for it (window openings, disputes) join
// the trace that produced the session — the federation passes the context
// it re-hydrated from gossip. Must be called after DeployOnChain and
// SignAndExchange (the tower needs the address and the signed copy); a
// result already submitted opens its window as the guard is taken.
func (w *Watchtower) Guard(sess *hybrid.Session, sid uint64, scenario string, tc telemetry.TraceContext) (*Watch, error) {
	if sess.OnChainAddr.IsZero() || sess.Copy == nil {
		return nil, fmt.Errorf("tower: session not ready to guard (deploy and sign first)")
	}
	if !sess.Split.Policy.LifecycleEvents {
		return nil, fmt.Errorf("tower: session's split policy has LifecycleEvents off; the watchtower cannot see its challenge windows")
	}
	e := &Watch{sess: sess, id: sid, scenario: scenario, tc: tc, settledCh: make(chan struct{})}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return nil, errStopped
	}
	w.entries[sess.OnChainAddr] = e
	w.mu.Unlock()
	if o, _ := w.federated(); o != nil {
		o.Guarded(e, sess.OnChainAddr)
	}
	// Every scan whose guard set holds the entry asks for this contract's
	// logs; one that read its head before the entry went in read a head no
	// later than this one, so reading [0, head] here leaves no block unread.
	w.read([]types.Address{sess.OnChainAddr}, 0, w.chain.Height())
	w.seedBatchWindow(e)
	return e, nil
}

// SID returns the hub session ID the watch guards (0 for sessions guarded
// standalone — e.g. a contract a federation tower mirrors for a peer).
func (e *Watch) SID() uint64 { return e.id }

// TraceCtx returns the causal trace context the session was guarded under
// (zero when untraced).
func (e *Watch) TraceCtx() telemetry.TraceContext { return e.tc }

// Contract returns the guarded on-chain address.
func (e *Watch) Contract() types.Address { return e.sess.OnChainAddr }

// Scenario returns the spec label the session was guarded under.
func (e *Watch) Scenario() string { return e.scenario }

// Session exposes the guarded session. Federated towers read it to export
// guard state (party scalars, signed copy) to their peers; treat it as
// read-only.
func (e *Watch) Session() *hybrid.Session { return e.sess }

// Expected returns the tower's own verdict on the session outcome,
// computed once by privately executing the signed bytecode in a sandbox.
// It is exported on the Watch so the owning worker can pre-compute it in
// parallel instead of serializing inside the dispute pipeline.
func (e *Watch) Expected() (uint64, error) {
	e.expectOnce.Do(func() {
		out, err := hybrid.ExecuteOffChain(e.sess.Copy.Bytecode)
		if err != nil {
			e.expectErr = err
			return
		}
		e.expected = out.Result
	})
	return e.expected, e.expectErr
}

// Disputed reports whether the tower filed a dispute. Whether a dispute
// enforced is the chain's to say (hybrid.Settlement).
func (e *Watch) Disputed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.disputed
}

// DisputeTiming returns the chain time the dispute was filed at and the
// challenge-window deadline it beat. Zero values if no dispute was filed.
func (e *Watch) DisputeTiming() (at, deadline uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.disputedAt, e.deadline
}

// OpenWindow returns the currently open challenge window, or nil.
func (e *Watch) OpenWindow() *Window {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.settled || e.window == nil {
		return nil
	}
	cp := *e.window
	return &cp
}

// WaitVerdict blocks until the tower has fully processed every block up to
// and including height h AND reached its dispute decision for this one
// watch — filed-and-enforced, verified clean or unverifiable, or settled by
// someone else. It is the barrier a session owner needs before REPORTING:
// once it returns for h ≥ the submission's block, a lie in that submission
// has already been enforced against, whatever other sessions' disputes are
// still in flight. It says nothing about those, so it does not license a
// clock jump — see AdvanceTime. Returns immediately if the tower is
// stopped or crash-halted; callers re-check Hub.Crashed before acting.
func (w *Watchtower) WaitVerdict(e *Watch, h uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	// e.mu nests inside w.mu here and nowhere the other way round; a job's
	// release clears e.pending first and broadcasts under w.mu after, so a
	// waiter that saw it pending is already parked when the wake-up comes.
	for (w.processed < h || e.jobPending()) && !w.stopped && !w.halted {
		w.cond.Wait()
	}
}

func (e *Watch) jobPending() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pending
}

// WaitCaughtUp blocks until the tower has fully processed every block up
// to and including height h AND reached a dispute decision for every
// window it has ever opened: no fraudulent submission mined at or before h
// is still awaiting enforcement. Returns immediately if the tower is
// stopped or crash-halted. A session owner does not call it to move the
// clock: AdvanceTime does, at the head.
func (w *Watchtower) WaitCaughtUp(h uint64) { w.caughtUp(h) }

// caughtUp is WaitCaughtUp, reporting false when the tower is stopped or
// crash-halted.
func (w *Watchtower) caughtUp(h uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for (w.processed < h || w.pending > 0) && !w.stopped && !w.halted {
		w.cond.Wait()
	}
	return !w.stopped && !w.halted
}

// errStopped refuses a guard, or a clock jump, on a tower that no longer
// reads the chain and so cannot vouch for what either needs.
var errStopped = errors.New("tower: stopped")

// AdvanceTime moves the shared clock forward by delta seconds once the jump
// can overtake no lie: every sealed block examined and every dispute
// decision reached (DESIGN.md §4). The jump is made only while the head the
// tower caught up to is still the chain's head (chain.AdvanceTimeAt); a
// block sealed in between may carry a submission nobody has examined, so
// the step waits again, for the new head. A stopped or crash-halted tower
// moves nothing.
func (w *Watchtower) AdvanceTime(delta uint64) error {
	for {
		head := w.chain.Height()
		if !w.caughtUp(head) {
			return errStopped
		}
		if moved, err := w.chain.AdvanceTimeAt(head, delta); moved || err != nil {
			return err
		}
	}
}

// PendingDisputes counts windows whose dispute decision is still open.
func (w *Watchtower) PendingDisputes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.pending
}

// OpenWindows counts challenge windows the tower is currently tracking.
func (w *Watchtower) OpenWindows() int {
	w.mu.Lock()
	entries := make([]*Watch, 0, len(w.entries))
	for _, e := range w.entries {
		entries = append(entries, e)
	}
	w.mu.Unlock()
	n := 0
	for _, e := range entries {
		if e.OpenWindow() != nil {
			n++
		}
	}
	return n
}

// Stop ends the block loop, winds down undecided dispute pacers (a
// deferred window is abandoned — a restart re-arms it from the chain, see
// Guard) and waits for in-flight dispute filings to complete. A pacer is
// counted under the lock that marks the tower stopped (see examine), so
// none starts once pacerWG is waited on.
func (w *Watchtower) Stop() {
	w.mu.Lock()
	alreadyStopped := w.stopped
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
	if !alreadyStopped {
		close(w.stopCh)
	}
	w.wg.Wait()
	w.pacerWG.Wait()
}

// Guarding reports whether the tower currently guards the contract.
func (w *Watchtower) Guarding(contract types.Address) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.entries[contract] != nil
}

// Watches returns the tower's current guard set.
func (w *Watchtower) Watches() []*Watch {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*Watch, 0, len(w.entries))
	for _, e := range w.entries {
		out = append(out, e)
	}
	return out
}

// Halt simulates the tower process dying right now (Hub.Kill, and the
// crash-harness seam for standalone towers): blocks keep sealing but
// nothing is read, examined or disputed — the processed watermark stays
// where it was — and barrier waiters are released so their workers can
// observe the crash.
func (w *Watchtower) Halt() {
	w.mu.Lock()
	alreadyHalted := w.halted
	w.halted = true
	w.cond.Broadcast()
	w.mu.Unlock()
	if !alreadyHalted {
		close(w.haltCh)
	}
}

func (w *Watchtower) isHalted() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.halted
}

// loop reads every block sealed after the tower started: it takes the
// chain's Mined channel before scan reads the head, so a block sealed
// during a scan wakes the next one.
func (w *Watchtower) loop() {
	defer w.wg.Done()
	for {
		mined := w.chain.Mined()
		if w.isHalted() {
			<-w.stopCh // the "process" is gone: read nothing more
			return
		}
		w.mu.Lock()
		from := w.processed + 1
		w.mu.Unlock()
		w.scan(from)
		select {
		case <-mined:
		case <-w.stopCh:
			return
		}
	}
}

// scan is the block loop's read of blocks [from, head]: the logs the
// guarded contracts and the rollup registry emitted there. It then raises
// the processed watermark to head so the barriers see the height. The head
// is read before the guard set: a contract guarded after that read reads
// its own history through a later head (guard).
func (w *Watchtower) scan(from uint64) {
	head := w.chain.Height()
	if from <= head {
		w.mu.Lock()
		addrs := make([]types.Address, 0, len(w.entries)+1)
		for a := range w.entries {
			addrs = append(addrs, a)
		}
		w.mu.Unlock()
		if w.rollupReg != nil {
			addrs = append(addrs, w.rollupReg.Addr)
		}
		w.read(addrs, from, head)
	}
	w.mu.Lock()
	if head > w.processed {
		w.processed = head
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// read is the tower's one read of the chain: the logs of blocks [from, to]
// that addrs emitted under towerTopics, served from the chain's log index —
// the guarded contracts' handful of logs, not the chain's length — and
// handled in chain order. The handlers are idempotent, so a block the loop
// and a new guard both read changes nothing the second time.
func (w *Watchtower) read(addrs []types.Address, from, to uint64) {
	for _, l := range w.chain.FilterLogs(chain.FilterQuery{
		FromBlock: from, ToBlock: to,
		Addresses: addrs, Topics: towerTopics,
	}) {
		w.handleLog(l)
	}
}

// towerTopics are the lifecycle topics the tower asks the chain for in scan
// AND dispatches in handleLog's switch. Extend them together: a topic
// handled but not listed here never reaches the tower.
var towerTopics = []types.Hash{
	hybrid.TopicResultSubmitted,
	hybrid.TopicResultFinalized,
	hybrid.TopicDisputeResolved,
	rollup.TopicEpochPosted,
}

func (w *Watchtower) handleLog(l *types.Log) {
	if len(l.Topics) == 0 {
		return
	}
	if l.Topics[0] == rollup.TopicEpochPosted {
		// Batch settlement: one registry event opens a challenge window
		// for EVERY leaf in the epoch. Routed before the entries lookup —
		// scan asks for the registry's address, which guards no session.
		w.onEpochPosted(l)
		return
	}
	w.mu.Lock()
	e := w.entries[l.Address]
	w.mu.Unlock()
	if e == nil {
		return
	}
	switch l.Topics[0] {
	case hybrid.TopicResultSubmitted:
		w.onSubmission(e, l)
	case hybrid.TopicResultFinalized, hybrid.TopicDisputeResolved:
		w.onSettled(e, l.Address)
	}
}

// onSettled closes a watch whose contract settled, however it got there;
// the chain's settlement log says which (see reportSettled).
func (w *Watchtower) onSettled(e *Watch, addr types.Address) {
	e.mu.Lock()
	first := !e.settled
	e.settled = true
	e.window = nil
	e.mu.Unlock()
	if first {
		close(e.settledCh) // wake the dispute pacer, if one is deferring
	}
	// The contract is settled for good (both paths set the on-chain
	// settled flag): drop the entry so a long-lived hub doesn't
	// accumulate every session it ever guarded, and scan stops asking for
	// its logs. Holders of the *Watch keep reading it safely.
	w.mu.Lock()
	delete(w.entries, addr)
	w.mu.Unlock()
	if first && w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
		w.tracer.EventChild(e.tc, e.id, "tower", "settled", "")
	}
	if o, _ := w.federated(); first && o != nil {
		o.WindowClosed(addr)
	}
}

// onSubmission opens/refreshes the challenge window and hands it to the
// dispute pipeline.
func (w *Watchtower) onSubmission(e *Watch, l *types.Log) {
	ev, err := hybrid.DecodeResultSubmitted(l)
	if err != nil {
		return
	}
	w.metrics.submissionsSeen.Inc()
	period := e.sess.Split.Policy.ChallengePeriod
	w.examine(e, ev.Result, ev.At+period)
}
