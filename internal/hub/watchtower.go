package hub

import (
	"fmt"
	"sync"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// Watchtower is the hub's always-on chain monitor (in the tradition of
// state-channel watchtowers): it subscribes to newly mined blocks, scans
// them for the lifecycle events the generated on-chain contracts emit,
// tracks every open challenge window, and — when a submitted result
// disagrees with its own sandboxed execution of the signed off-chain
// bytecode — files a dispute on behalf of the honest participant, inside
// the challenge window.
//
// Dispute filing is asynchronous: the event loop never transacts. Every
// open window is handed to the dispute pipeline — a pacer goroutine per
// undecided window that consults the dispute gate (federation arbitration;
// absent a gate the answer is always "file now"), verifies on one of a
// bounded set of sandbox slots, and files with the slot already released.
// Two barriers read the pipeline, one per
// invariant (DESIGN.md §4): WaitVerdict(e, h) — block ≤ h examined and
// THIS watch's decision reached — is what a session owner waits for
// before reporting, and WaitCaughtUp(h) — block ≤ h examined and EVERY
// decision reached — is what it waits for before moving the shared clock,
// so nobody can advance time past a window whose verdict is still pending.
//
// With a durable hub, the tower journals every window it opens and a
// block cursor after each block it finishes, so a restarted tower knows
// exactly which windows it was guarding and which blocks it never saw.
type Watchtower struct {
	chain   *chain.Chain
	sub     *chain.BlockLogSubscription
	filter  *chain.AddressSet // guarded contracts; gates log delivery chain-side
	metrics *metrics
	tracer  *telemetry.Tracer // nil: no spans
	journal *journal          // the hub's WAL; nil for a standalone tower
	wg      sync.WaitGroup

	// The federation's two collaborators: Federate installs them on an
	// already-running hub — by which time the event loop may have processed
	// blocks (the rollup registry deploy mines one during hub.New) — so
	// every access goes through cbMu. Both are set before any session is
	// guarded and never changed after.
	cbMu     sync.RWMutex
	observer TowerObserver
	gate     DisputeGate

	sem     chan struct{} // sandbox slots: bounds concurrent Watch.Expected runs, never a filing
	pacerWG sync.WaitGroup
	stopCh  chan struct{} // closed by Stop: pacers wind down undecided
	haltCh  chan struct{} // closed by Halt: the "process" is dead

	// Rollup guard state (nil in per-session mode): the registry whose
	// EpochPosted events open batch challenge windows, and the Source that
	// resolves an epoch number to its leaves + proofs.
	rollupMu  sync.Mutex
	rollupReg *rollup.Registry
	rollupSrc rollup.Source

	mu        sync.Mutex
	cond      *sync.Cond
	entries   map[types.Address]*Watch
	processed uint64 // highest block number fully processed
	pending   int    // windows whose dispute decision is still open
	stopped   bool
	halted    bool // simulated crash: the tower is "dead"
}

// TowerObserver mirrors the tower's guard state to an external listener —
// the federation layer — without handing it ownership of sessions.
// Callbacks run outside the tower's locks, on the event loop and dispute
// pipeline goroutines; implementations must be concurrency-safe and must
// not block for long (they stall block examination).
type TowerObserver interface {
	// Guarded: the tower took a session's contract under guard.
	Guarded(e *Watch, contract types.Address)
	// WindowOpened: a submission opened (or refreshed) a challenge window.
	WindowOpened(e *Watch, w Window)
	// WindowClosed: the contract settled — by dispute resolution when
	// byDispute, by unchallenged finalization otherwise.
	WindowClosed(contract types.Address, byDispute bool)
	// DisputeClaimed: this tower claimed the dispute and is about to file
	// (the intent exists before the transaction does).
	DisputeClaimed(e *Watch, contract types.Address)
	// DisputeFiled: the dispute transactions completed; enforced reports
	// whether the chain settled to the tower's verdict.
	DisputeFiled(e *Watch, contract types.Address, enforced bool)
	// BlockProcessed: the tower fully examined block n.
	BlockProcessed(n uint64)
}

// GateDecision is a dispute gate's verdict for one open window.
type GateDecision int

const (
	// GateFile: verify the submission now and file on a mismatch.
	GateFile GateDecision = iota
	// GateDefer: another guard is responsible right now; ask again after
	// the returned delay. The window stays pending (the caught-up barrier
	// stays held) until a later decision files or the contract settles.
	GateDefer
	// GateStandDown: this tower is permanently not responsible for the
	// window (e.g. its owner vouched for the submission); release it.
	GateStandDown
)

// DisputeGate arbitrates whether THIS tower should act on an open window
// right now. A nil gate means always GateFile — the single-tower hub's
// behavior. The federation installs a gate that defers to the window's
// assigned primary and escalates on staggered timeouts.
type DisputeGate func(e *Watch, w Window) (GateDecision, time.Duration)

// Watch is the watchtower's record of one guarded session.
type Watch struct {
	sess     *hybrid.Session
	honest   int                    // party index the tower files disputes as
	id       uint64                 // hub session ID (0 for sessions guarded standalone)
	scenario string                 // spec label, for federated guard-state export
	tc       telemetry.TraceContext // causal identity; zero when untraced

	expectOnce sync.Once
	expected   uint64
	expectErr  error
	expectSet  bool

	mu               sync.Mutex
	window           *Window
	rollup           *rollupLeaf // batch context; set when a posted epoch carries this session
	pending          bool        // a dispute pipeline job is driving this watch
	disputed         bool
	disputeWon       bool
	disputedAt       uint64 // chain time when the tower filed the dispute
	deadline         uint64 // window deadline at dispute time
	settled          bool
	settledByDispute bool
	settledCh        chan struct{} // closed when the contract settles
}

// Window is an open challenge window: a submission awaiting finalization.
type Window struct {
	Contract  types.Address
	Submitter types.Address
	Result    uint64
	OpenedAt  uint64 // submission block timestamp
	Deadline  uint64 // OpenedAt + challenge period
}

// sandboxSlots bounds the tower's concurrent sandbox runs — the private
// re-executions that produce its own verdict on a submission. It does not
// bound filings: a slot is released before any dispute transaction is sent
// or awaited, so any number of concurrent lies are enforced in one block.
const sandboxSlots = 4

// NewWatchtower starts a tower on the chain. Stop() must be called to
// release the subscription and its goroutines. m is the hub's internal
// metrics sink and j its WAL; external callers (the federation's standalone
// towers) pass nil for both. tr records tower-layer spans (windows opened,
// settlements, dispute filings); nil disables them.
func NewWatchtower(c *chain.Chain, m *metrics, tr *telemetry.Tracer, j *journal) *Watchtower {
	if m == nil {
		m = newMetrics(nil)
	}
	// The tower subscribes at the chain's filter layer: only logs of
	// guarded contracts (a live, per-tower address set) with lifecycle
	// topics cross the channel, so N towers sharing a chain do not each
	// pay to receive — and scan — every other tower's traffic. Block
	// boundaries still arrive for every block (empty batches) to drive
	// the durable cursor and the caught-up barrier.
	filter := chain.NewAddressSet()
	w := &Watchtower{
		chain: c,
		sub: c.SubscribeBlockLogs(chain.FilterQuery{
			AddressIn: filter,
			Topics:    towerTopics,
		}),
		filter:  filter,
		metrics: m,
		tracer:  tr,
		journal: j,
		entries: make(map[types.Address]*Watch),
		sem:     make(chan struct{}, sandboxSlots),
		stopCh:  make(chan struct{}),
		haltCh:  make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	w.wg.Add(1)
	go w.loop()
	return w
}

// Federate installs the federation's mirror and its filing arbiter. Must be
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

// Metrics exposes the tower's counter snapshot (standalone towers have
// their own metrics; a hub-owned tower shares the hub's).
func (w *Watchtower) Metrics() Snapshot { return w.metrics.snapshot() }

// Guard registers a session whose on-chain contract the tower should
// monitor. honest is the party index the tower uses to file disputes;
// scenario labels the session's spec (federated towers gossip it so peers
// can rebuild the guard from their SpecRegistry — pass "" when unused).
// tc is the session's causal trace context (zero when untraced), so the
// spans a standalone tower records for it (window openings, disputes) join
// the trace that produced the session — the federation passes the context
// it re-hydrated from gossip. Must be called after DeployOnChain and
// SignAndExchange (the tower needs the address and the signed copy) and
// before any result is submitted.
func (w *Watchtower) Guard(sess *hybrid.Session, honest int, scenario string, tc telemetry.TraceContext) (*Watch, error) {
	return w.guard(sess, honest, 0, scenario, tc)
}

func (w *Watchtower) guard(sess *hybrid.Session, honest int, sid uint64, scenario string, tc telemetry.TraceContext) (*Watch, error) {
	if sess.OnChainAddr.IsZero() || sess.Copy == nil {
		return nil, fmt.Errorf("hub: session not ready to guard (deploy and sign first)")
	}
	if !sess.Split.Policy.LifecycleEvents {
		return nil, fmt.Errorf("hub: session's split policy has LifecycleEvents off; the watchtower cannot see its challenge windows")
	}
	e := &Watch{sess: sess, honest: honest, id: sid, scenario: scenario, tc: tc, settledCh: make(chan struct{})}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return nil, fmt.Errorf("hub: watchtower stopped")
	}
	w.entries[sess.OnChainAddr] = e
	w.mu.Unlock()
	// Open the subscription filter for this contract BEFORE returning:
	// Guard is called before any result can be submitted, so the filter
	// is listening before the first event that matters can be mined.
	w.filter.Add(sess.OnChainAddr)
	if o, _ := w.federated(); o != nil {
		o.Guarded(e, sess.OnChainAddr)
	}
	// A rollup-armed tower can adopt a guard AFTER the epoch carrying the
	// session was posted and ingested — federated guard gossip (whisper)
	// trails the chain's EpochPosted event, and the live ingest skipped
	// leaves nobody guarded yet. Re-examine cached epochs that carry this
	// contract so the late watch still gets its batch window and Merkle
	// leaf context, and its dispute goes through the leaf-open path.
	w.seedRollupContext(e)
	return e, nil
}

// epochLister is the optional Source extension that lets a tower re-check
// already-posted epochs when it adopts a guard late. The hub's sequencer
// satisfies it; a Source that cannot enumerate simply skips the re-check
// (its towers only guard leaves for sessions guarded before the post).
type epochLister interface {
	CachedEpochs() []*rollup.Epoch
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

// Honest returns the party index the tower disputes as.
func (e *Watch) Honest() int { return e.honest }

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
		e.mu.Lock()
		e.expectSet = true
		e.mu.Unlock()
	})
	return e.expected, e.expectErr
}

// ExpectedCached returns the verdict only if it has already been computed
// — it never runs the sandbox. The federation's gate uses it to vouch for
// the hub's own sessions without charging backups a re-execution.
func (e *Watch) ExpectedCached() (uint64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.expected, e.expectSet
}

// SeedExpected installs a verdict obtained out-of-band (the session
// owner's gossiped hint) so a later Expected() never runs the sandbox.
// No-op once a verdict exists. Seeding an untrusted value is SAFE for
// enforcement: a dispute's resolution makes the miners recompute the
// result from the signed bytecode, so a dispute filed on a wrong hint
// merely settles the contract to the same (true) outcome and costs gas —
// it can never enforce a lie.
func (e *Watch) SeedExpected(v uint64) {
	e.expectOnce.Do(func() {
		e.expected = v
		e.mu.Lock()
		e.expectSet = true
		e.mu.Unlock()
	})
}

// Disputed reports whether the tower filed a dispute, and whether the
// dispute resolved to the tower's expected result.
func (e *Watch) Disputed() (raised, won bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.disputed, e.disputeWon
}

// SettledByDispute reports whether the contract's settlement the tower
// observed came from a dispute resolution (possibly filed by a peer
// tower) rather than an unchallenged finalization.
func (e *Watch) SettledByDispute() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.settled && e.settledByDispute
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
// watch — filed-and-enforced, verified clean, stood down, or settled by
// someone else. It is the barrier a session owner needs before REPORTING:
// once it returns for h ≥ the submission's block, a lie in that submission
// has already been enforced against, whatever other sessions' disputes are
// still in flight. It says nothing about those, so it does not license a
// clock jump — see WaitCaughtUp. Returns immediately if the tower is
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
// window it has ever opened. Session owners MUST call this before
// advancing the shared clock: it guarantees no fraudulent submission mined
// at or before h is still awaiting enforcement, so moving time past its
// window cannot freeze a lie into a contract (or close a batch window on a
// leaf nobody has opened yet). Returns immediately if the tower is stopped
// or crash-halted — callers on the crashed path re-check Hub.Crashed
// before acting.
func (w *Watchtower) WaitCaughtUp(h uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for (w.processed < h || w.pending > 0) && !w.stopped && !w.halted {
		w.cond.Wait()
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

// Stop unsubscribes, drains the event loop, winds down undecided dispute
// pacers (a deferred window is abandoned — durable state lets a restart
// re-arm it) and waits for in-flight dispute filings to complete.
func (w *Watchtower) Stop() {
	w.sub.Unsubscribe()
	w.wg.Wait()
	w.mu.Lock()
	alreadyStopped := w.stopped
	w.stopped = true
	w.cond.Broadcast()
	w.mu.Unlock()
	if !alreadyStopped {
		close(w.stopCh)
	}
	w.pacerWG.Wait()
}

// Watches returns the towers's current guard set. The federation uses it
// to back-fill its mirror when attaching to a hub that already guards
// sessions (a recovered hub federates after Recover re-armed its tower).
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
// crash-harness seam for standalone towers): block delivery keeps draining
// but nothing is examined, journaled, or disputed, and barrier waiters are
// released so their workers can observe the crash.
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

func (w *Watchtower) loop() {
	defer w.wg.Done()
	for b := range w.sub.BlockLogs() {
		if w.isHalted() {
			continue // the "process" is gone; drain and ignore
		}
		for _, l := range b.Logs {
			w.handleLog(l)
		}
		// The block is fully examined: durably advance the cursor, THEN
		// publish the progress. Recovery replays from cursor+1, so a crash
		// between examining and journaling re-examines the block — safe,
		// because every handler is idempotent. Re-check the crash flag
		// first: if Kill landed mid-processBlock, examine() refused to
		// journal or dispute, so advancing the cursor would durably skip
		// events the "dead" tower never acted on.
		if w.isHalted() {
			continue
		}
		if w.journal != nil {
			w.journal.log(&store.Record{Kind: store.KindCursor, U1: b.Number})
		}
		if o, _ := w.federated(); o != nil {
			o.BlockProcessed(b.Number)
		}
		w.mu.Lock()
		if b.Number > w.processed {
			w.processed = b.Number
		}
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// ReplayLogs feeds historical logs through the same handlers as live
// blocks; overlap with live delivery is harmless because the handlers are
// idempotent.
func (w *Watchtower) ReplayLogs(logs []*types.Log) {
	for _, l := range logs {
		w.handleLog(l)
	}
}

// CatchUp closes an outage gap: it replays blocks (after, head] with the
// query the live subscription runs — the guarded set and towerTopics,
// served from the chain's log index — raises the processed watermark to
// head so the barriers see the replayed height, and returns head. A
// restarted tower calls it once its guards are re-armed, with the durable
// cursor; the caller journals the returned head.
func (w *Watchtower) CatchUp(after uint64) uint64 {
	head := w.chain.Height()
	w.ReplayLogs(w.chain.FilterLogs(chain.FilterQuery{
		FromBlock: after + 1, ToBlock: head,
		AddressIn: w.filter, Topics: towerTopics,
	}))
	w.mu.Lock()
	if head > w.processed {
		w.processed = head
	}
	w.cond.Broadcast()
	w.mu.Unlock()
	return head
}

// RestoreWindow re-arms a window from durable state (the WAL's or a
// federation journal's window record) and re-examines it through the
// dispute pipeline, exactly as if the submission had just been observed.
// On a rollup-armed tower the restored window may be a batch window whose
// gossip outran this tower's own EpochPosted processing, so the Merkle
// leaf context is seeded from cached epochs first — otherwise the dispute
// pipeline could file before the leaf-open context exists.
func (w *Watchtower) RestoreWindow(e *Watch, win Window) {
	w.seedRollupContext(e)
	w.examine(e, win.Result, win.OpenedAt, win.Deadline, win.Submitter)
}

// seedRollupContext back-fills a watch's batch leaf context from already
// posted epochs. Two paths need it: a guard adopted after its epoch's
// chain event was ingested (the live ingest skipped leaves nobody
// guarded), and a gossiped window restored before this tower's event loop
// reached the EpochPosted log. No-op unless the tower is rollup-armed and
// its Source can enumerate cached epochs; IngestEpoch is idempotent.
func (w *Watchtower) seedRollupContext(e *Watch) {
	reg, src := w.rollupHandles()
	if reg == nil || src == nil {
		return
	}
	lister, ok := src.(epochLister)
	if !ok {
		return
	}
	addr := e.sess.OnChainAddr
	for _, ep := range lister.CachedEpochs() {
		for _, leaf := range ep.Leaves {
			if leaf.Contract == addr {
				w.IngestEpoch(ep)
				return
			}
		}
	}
}

// rollupLeafOpenGas bounds one openLeaf transaction: a fixed number of
// keccak folds (the tree depth) plus one storage write.
const rollupLeafOpenGas = 1_000_000

// rollupLeaf pins a watch's leaf inside a posted epoch — everything a
// dispute needs to open the leaf against the batch root.
type rollupLeaf struct {
	reg   *rollup.Registry
	epoch uint64
	index int
	leaf  rollup.Leaf
	proof []types.Hash
}

// ArmRollup switches the tower into batch-settlement guarding: reg is the
// rollup registry whose EpochPosted events open batch challenge windows,
// src resolves an epoch number to its leaves and proofs (the hub's
// sequencer, or a federation tower's gossip cache). Adds the registry to
// the subscription filter; guarded sessions keep their per-session
// subscriptions too, so dispute resolutions still settle watches the
// normal way.
func (w *Watchtower) ArmRollup(reg *rollup.Registry, src rollup.Source) {
	w.rollupMu.Lock()
	w.rollupReg = reg
	w.rollupSrc = src
	w.rollupMu.Unlock()
	if reg != nil {
		w.filter.Add(reg.Addr)
	}
}

func (w *Watchtower) rollupHandles() (*rollup.Registry, rollup.Source) {
	w.rollupMu.Lock()
	defer w.rollupMu.Unlock()
	return w.rollupReg, w.rollupSrc
}

// onEpochPosted resolves an EpochPosted event to its epoch data and opens
// a batch window per guarded leaf. The hub's own tower resolves
// synchronously — its Source is the sequencer, which caches every epoch
// before posting it — so the caught-up barrier still counts these windows
// before the block is marked processed. A federated backup can see the
// chain event before the sequencer's gossip arrives; it polls off the
// event loop until the epoch shows up.
func (w *Watchtower) onEpochPosted(l *types.Log) {
	reg, src := w.rollupHandles()
	if reg == nil || src == nil || l.Address != reg.Addr {
		return
	}
	ev, err := rollup.DecodeEpochPosted(l)
	if err != nil {
		return
	}
	if ep, ok := src.EpochByNumber(ev.Epoch); ok {
		w.IngestEpoch(ep)
		return
	}
	w.pacerWG.Add(1)
	go func() {
		defer w.pacerWG.Done()
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-w.stopCh:
				return
			case <-w.haltCh:
				return
			case <-tick.C:
				if ep, ok := src.EpochByNumber(ev.Epoch); ok {
					w.IngestEpoch(ep)
					return
				}
			}
		}
	}()
}

// IngestEpoch examines a posted epoch against the tower's guard set: each
// guarded leaf gets a batch challenge window (postedAt .. postedAt +
// window) plus its Merkle context, and rides the same dispute pipeline as
// a per-session submission — with enforcement routed through a leaf-open
// against the posted root before the dispute itself. Idempotent: the live
// event path, the sequencer's OnEpoch hook, and recovery all feed it.
func (w *Watchtower) IngestEpoch(ep *rollup.Epoch) {
	reg, _ := w.rollupHandles()
	if reg == nil || ep == nil || ep.Tree == nil {
		return
	}
	deadline := ep.PostedAt + reg.Window
	for i, leaf := range ep.Leaves {
		w.mu.Lock()
		e := w.entries[leaf.Contract]
		w.mu.Unlock()
		if e == nil {
			continue // another guard's session, or already settled/released
		}
		proof, err := ep.Tree.Proof(i)
		if err != nil {
			continue
		}
		e.mu.Lock()
		if e.rollup == nil {
			e.rollup = &rollupLeaf{reg: reg, epoch: ep.Number, index: i, leaf: leaf, proof: proof}
		}
		e.mu.Unlock()
		// The epoch claims this outcome for the session; examine it exactly
		// like a per-session submission. No submitter address exists — the
		// sequencer spoke for the session — so the window records the zero
		// address.
		w.examine(e, leaf.Outcome, ep.PostedAt, deadline, types.Address{})
	}
}

// release drops a guarded contract whose session reached a clean batch
// settlement (rolled up; the tower's dispute decision for its window is
// already final, or no window ever opened). The per-session paths never
// need this — settlement events delete entries in onSettled — but a
// rolled-up honest session emits no per-contract event, so the hub calls
// release at the RolledUp terminal.
func (w *Watchtower) release(addr types.Address) {
	w.mu.Lock()
	_, ok := w.entries[addr]
	delete(w.entries, addr)
	w.mu.Unlock()
	if !ok {
		return
	}
	w.filter.Remove(addr)
	if o, _ := w.federated(); o != nil {
		o.WindowClosed(addr, false)
	}
}

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
	opener := e.sess.Parties[e.honest]
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

// towerTopics are the lifecycle topics the tower asks the chain for — live
// in its subscription, after a restart in CatchUp — AND dispatches in
// handleLog's switch. Extend them together: a topic handled but not listed
// here never reaches the tower on either path.
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
		// the registry itself is in the filter set, not the sessions'.
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
	case hybrid.TopicResultFinalized:
		w.onSettled(e, l.Address, false)
	case hybrid.TopicDisputeResolved:
		w.onSettled(e, l.Address, true)
	}
}

func (w *Watchtower) onSettled(e *Watch, addr types.Address, byDispute bool) {
	e.mu.Lock()
	first := !e.settled
	e.settled = true
	if byDispute {
		e.settledByDispute = true
	}
	e.window = nil
	ch := e.settledCh
	e.mu.Unlock()
	if first && ch != nil {
		close(ch) // wake the dispute pacer, if one is deferring
	}
	// The contract is settled for good (both paths set the on-chain
	// settled flag): drop the entry so a long-lived hub doesn't
	// accumulate every session it ever guarded. Holders of the *Watch
	// keep reading it safely.
	w.mu.Lock()
	delete(w.entries, addr)
	w.mu.Unlock()
	w.filter.Remove(addr) // settled for good: stop receiving its logs
	if first && w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
		w.tracer.EventChild(e.tc, e.id, "tower", "settled", fmt.Sprintf("by_dispute=%t", byDispute))
	}
	if o, _ := w.federated(); first && o != nil {
		o.WindowClosed(addr, byDispute)
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
	w.examine(e, ev.Result, ev.At, ev.At+period, ev.Submitter)
}

// examine records one observed submission and ensures a dispute pipeline
// job is driving the window. It is shared by the live path (onSubmission)
// and recovery (RestoreWindow), and is idempotent: a submission that is
// already settled, already disputed, or already being driven by a pending
// job is left alone — that is what makes replay-after-restart unable to
// double-dispute.
func (w *Watchtower) examine(e *Watch, result, openedAt, deadline uint64, submitter types.Address) {
	// Honor Kill at sub-block granularity too: a "dead" tower must not
	// journal windows or file disputes for a block it was mid-way
	// through. (A dispute transaction already sent when Kill lands is a
	// tx-in-flight-at-crash — unavoidable, and recovery handles it via
	// the chain's settled flag.)
	if w.isHalted() {
		return
	}
	e.mu.Lock()
	if e.settled {
		e.mu.Unlock()
		return
	}
	e.window = &Window{
		Contract:  e.sess.OnChainAddr,
		Submitter: submitter,
		Result:    result,
		OpenedAt:  openedAt,
		Deadline:  deadline,
	}
	win := *e.window
	driven := e.disputed || e.pending
	if !driven {
		e.pending = true
	}
	e.mu.Unlock()
	if w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
		w.tracer.EventChild(e.tc, e.id, "tower", "window_open", fmt.Sprintf("result=%d deadline=%d", result, deadline))
	}
	if w.journal != nil && e.id != 0 {
		w.journal.log(&store.Record{
			Kind: store.KindWindow, SID: e.id,
			U1: result, U2: openedAt, U3: deadline,
			Blob: submitter[:],
		})
	}
	if o, _ := w.federated(); o != nil {
		o.WindowOpened(e, win)
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
	w.mu.Unlock()
	w.pacerWG.Add(1)
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

// driveDispute is the pacer for one open window: it consults the gate
// until a final decision is reached, then verifies and files. The job ends
// when the window settles, the gate stands down, or a filing completes.
func (w *Watchtower) driveDispute(e *Watch) {
	defer w.pacerWG.Done()
	defer w.releaseJob(e)
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
			return // settled (or re-guarded) while we deliberated
		}
		decision, retry := GateFile, time.Duration(0)
		if _, g := w.federated(); g != nil {
			decision, retry = g(e, *win)
		}
		switch decision {
		case GateStandDown:
			return
		case GateDefer:
			w.metrics.disputesDeferred.Inc()
			if retry <= 0 {
				retry = 10 * time.Millisecond
			}
			t := time.NewTimer(retry)
			select {
			case <-t.C:
			case <-e.settledChRef():
				t.Stop()
			case <-w.haltCh:
				t.Stop()
				return
			case <-w.stopCh:
				t.Stop()
				return
			}
			continue
		case GateFile:
			w.fileDispute(e, *win)
			return
		}
	}
}

func (e *Watch) settledChRef() chan struct{} {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.settledCh
}

// settledByDispute reports whether the chain's settlement log for the
// contract is a DisputeResolved — the authority on how a settled contract
// got there, whoever filed.
func settledByDispute(c *chain.Chain, contract types.Address) bool {
	return len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) > 0
}

// fileDispute is the decision point: verify the submission in the tower's
// own sandbox, veto against chain truth, claim, and file. Only the sandbox
// run holds a slot: the slot is back before any transaction
// is sent or awaited, so a filing's block wait never makes another window's
// verdict — clean or not — wait a block for a free slot.
func (w *Watchtower) fileDispute(e *Watch, win Window) {
	w.sem <- struct{}{}
	expected, err := e.Expected()
	<-w.sem
	if err != nil || win.Result == expected {
		return // cannot verify, or verified clean: nothing to file
	}
	// The chain, not the WAL, decides whether a dispute is still needed: a
	// dispute that landed has settled the contract, so a tower (restarted,
	// or a federation backup escalating behind a primary's in-flight
	// filing) re-examining the same lie stops here instead of
	// double-disputing. On a query error, fall through and file anyway — a
	// dispute against an already-settled contract merely reverts, while
	// skipping one lets a lie finalize, and nothing would ever re-examine
	// it.
	if settled, err := e.sess.IsSettled(); err == nil && settled {
		w.onSettled(e, e.sess.OnChainAddr, settledByDispute(w.chain, e.sess.OnChainAddr))
		return
	}
	// Claim the dispute under the lock so concurrent examinations (live
	// delivery racing a recovery replay) file at most once. Re-check the
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
	disputeStart := time.Now()
	if o, _ := w.federated(); o != nil {
		o.DisputeClaimed(e, e.sess.OnChainAddr)
	}
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
	_, _, err = e.sess.Dispute(e.honest)
	observeLeafOpen()
	// Enforcement is read from the contract, never from the receipts.
	enforced := false
	if err == nil {
		settled, serr := e.sess.IsSettled()
		enforced = serr == nil && settled
	}
	if enforced {
		w.metrics.disputesWon.Inc()
		e.mu.Lock()
		e.disputeWon = true
		e.mu.Unlock()
		w.onSettled(e, e.sess.OnChainAddr, true)
	}
	if w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
		w.tracer.RecordChild(e.tc, e.id, "tower", "dispute", disputeStart, time.Since(disputeStart),
			fmt.Sprintf("enforced=%t fallback=%t", enforced, e.sess.DisputeFellBack))
	}
	if o, _ := w.federated(); o != nil {
		o.DisputeFiled(e, e.sess.OnChainAddr, enforced)
	}
}
