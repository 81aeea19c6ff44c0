package hub

import (
	"fmt"
	"sync"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// Watchtower is the hub's always-on chain monitor (in the tradition of
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
// Two barriers read the pipeline, one per
// invariant (DESIGN.md §4): WaitVerdict(e, h) — block ≤ h examined and
// THIS watch's decision reached — is what a session owner waits for
// before reporting, and WaitCaughtUp(h) — block ≤ h examined and EVERY
// decision reached — is what it waits for before moving the shared clock,
// so nobody can advance time past a window whose verdict is still pending.
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
	// already-running hub — by which time the event loop may have processed
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
// stays pending (the caught-up barrier stays held) until a later answer
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
	disputeWon bool
	disputedAt uint64 // chain time when the tower filed the dispute
	deadline   uint64 // window deadline at dispute time
	settled    bool
}

// Window is an open challenge window: a submission awaiting finalization.
type Window struct {
	Contract types.Address
	Result   uint64
	OpenedAt uint64 // submission block timestamp
	Deadline uint64 // OpenedAt + challenge period
}

// sandboxSlots bounds the tower's concurrent sandbox runs — the private
// re-executions that produce its own verdict on a submission. It does not
// bound filings: a slot is released before any dispute transaction is sent
// or awaited, so any number of concurrent lies are enforced in one block.
const sandboxSlots = 4

// disputer is the party index the tower files disputes and opens leaves as:
// party 0, which never lies (a lying representative is the last party).
const disputer = 0

// NewWatchtower starts a tower on the chain at its current head: its block
// loop reads the blocks sealed from here on, and a guard reads its own
// contract's older ones. Stop() must be called to release its goroutines.
// m is the hub's internal metrics sink; external callers (the federation's
// standalone towers) pass nil. tr records tower-layer spans (windows
// opened, settlements, dispute filings); nil disables them. src, when set,
// arms the tower for batch settlement: EpochPosted events on src's registry
// open a batch window per guarded leaf, and disputes open that leaf against
// the posted root first. Guarded sessions keep their per-session logs too, so
// dispute resolutions still settle watches the normal way.
func NewWatchtower(c *chain.Chain, m *metrics, tr *telemetry.Tracer, src rollup.Source) *Watchtower {
	if m == nil {
		m = newMetrics(nil)
	}
	w := &Watchtower{
		chain:     c,
		metrics:   m,
		tracer:    tr,
		entries:   make(map[types.Address]*Watch),
		processed: c.Height(),
		sem:       make(chan struct{}, sandboxSlots),
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

// Metrics exposes the tower's counter snapshot (standalone towers have
// their own metrics; a hub-owned tower shares the hub's).
func (w *Watchtower) Metrics() Snapshot { return w.metrics.snapshot() }

// Guard registers a session whose on-chain contract the tower should
// monitor; the tower files disputes as party 0 (see disputer). scenario
// labels the session's spec (federated towers gossip it so peers can
// rebuild the guard from their SpecRegistry — pass "" when unused).
// tc is the session's causal trace context (zero when untraced), so the
// spans a standalone tower records for it (window openings, disputes) join
// the trace that produced the session — the federation passes the context
// it re-hydrated from gossip. Must be called after DeployOnChain and
// SignAndExchange (the tower needs the address and the signed copy); a
// result already submitted opens its window as the guard is taken.
func (w *Watchtower) Guard(sess *hybrid.Session, scenario string, tc telemetry.TraceContext) (*Watch, error) {
	return w.guard(sess, 0, scenario, tc)
}

func (w *Watchtower) guard(sess *hybrid.Session, sid uint64, scenario string, tc telemetry.TraceContext) (*Watch, error) {
	if sess.OnChainAddr.IsZero() || sess.Copy == nil {
		return nil, fmt.Errorf("hub: session not ready to guard (deploy and sign first)")
	}
	if !sess.Split.Policy.LifecycleEvents {
		return nil, fmt.Errorf("hub: session's split policy has LifecycleEvents off; the watchtower cannot see its challenge windows")
	}
	e := &Watch{sess: sess, id: sid, scenario: scenario, tc: tc, settledCh: make(chan struct{})}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return nil, fmt.Errorf("hub: watchtower stopped")
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

// Disputed reports whether the tower filed a dispute, and whether the
// dispute resolved to the tower's expected result.
func (e *Watch) Disputed() (raised, won bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.disputed, e.disputeWon
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

// onEpochPosted resolves an EpochPosted log to its epoch and opens a batch
// window per guarded leaf at the log's block time. Only the block loop reads
// the registry, so the caught-up barrier counts these windows before the
// block is marked processed. The Source serves every epoch from its seal
// until its window has closed, so a miss is an epoch nobody can open any
// more.
func (w *Watchtower) onEpochPosted(l *types.Log) {
	if w.rollupSrc == nil || l.Address != w.rollupReg.Addr {
		return
	}
	ev, err := rollup.DecodeEpochPosted(l)
	if err != nil {
		return
	}
	ep, ok := w.rollupSrc.EpochByNumber(ev.Epoch)
	if !ok {
		return
	}
	b, err := w.chain.BlockByNumber(l.BlockNumber)
	if err != nil {
		return
	}
	for i, leaf := range ep.Leaves {
		w.mu.Lock()
		e := w.entries[leaf.Contract]
		w.mu.Unlock()
		if e != nil { // nil: another guard's session, or already settled/released
			w.openBatchWindow(e, ep, i, b.Time())
		}
	}
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

// seedBatchWindow opens the batch window of a watch guarded after its
// epoch's log went by: a recovered hub's guards, and a federated backup
// whose guard gossip trails the chain. postedAt 0 means the post has not
// landed yet; its log is still to come, and onEpochPosted opens the window
// then. A failed probe reads as 0.
func (w *Watchtower) seedBatchWindow(e *Watch) {
	if w.rollupSrc == nil {
		return
	}
	for _, ep := range w.rollupSrc.CachedEpochs() {
		for i, leaf := range ep.Leaves {
			if leaf.Contract != e.sess.OnChainAddr {
				continue
			}
			if postedAt, err := w.rollupReg.PostedAt(e.sess.Parties[disputer], ep.Number); err == nil && postedAt > 0 {
				w.openBatchWindow(e, ep, i, postedAt)
			}
			return
		}
	}
}

// openBatchWindow gives leaf i of ep a batch challenge window (postedAt ..
// postedAt + Window) plus its Merkle context, and hands it to the same
// dispute pipeline as a per-session submission — with enforcement routed
// through a leaf-open against the posted root first. Its two callers are
// the only routes that open a batch window, and both pass the time the
// registry recorded, which is what openLeaf enforces, never an epoch copy's
// PostedAt.
func (w *Watchtower) openBatchWindow(e *Watch, ep *rollup.Epoch, i int, postedAt uint64) {
	proof, err := ep.Tree.Proof(i)
	if err != nil {
		return
	}
	leaf := ep.Leaves[i]
	e.mu.Lock()
	if e.rollup == nil {
		e.rollup = &rollupLeaf{reg: w.rollupReg, epoch: ep.Number, index: i, leaf: leaf, proof: proof}
	}
	e.mu.Unlock()
	w.examine(e, leaf.Outcome, postedAt, postedAt+rollup.Window)
}

// release drops a guarded contract whose batch window the tower's sandbox
// found clean: the leaf's outcome is fixed by its epoch root, so the verdict
// is final. Settlement events end the other guards (onSettled), but a
// rolled-up honest session emits no per-contract event.
func (w *Watchtower) release(addr types.Address) {
	w.mu.Lock()
	_, ok := w.entries[addr]
	delete(w.entries, addr)
	w.mu.Unlock()
	if !ok {
		return
	}
	if o, _ := w.federated(); o != nil {
		o.WindowClosed(addr)
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
	w.examine(e, ev.Result, ev.At, ev.At+period)
}

// examine records one observed submission and ensures a dispute pipeline
// job is driving the window. It is shared by the block loop and a guard's
// history read (onSubmission, openBatchWindow) — windows come only from the
// chain — and is idempotent: a submission that is already settled, already
// disputed, or already being driven by a pending job is left alone — that
// is what makes a re-guard after a restart unable to double-dispute.
func (w *Watchtower) examine(e *Watch, result, openedAt, deadline uint64) {
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
		OpenedAt: openedAt,
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

// batched reports whether the watch's window is a batch window.
func (e *Watch) batched() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rollup != nil
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
	// double-disputing. On a query error, fall through and file anyway — a
	// dispute against an already-settled contract merely reverts, while
	// skipping one lets a lie finalize, and nothing would ever re-examine
	// it.
	if settled, err := e.sess.IsSettled(); err == nil && settled {
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
		w.onSettled(e, e.sess.OnChainAddr)
	}
	if w.tracer != nil && (e.id != 0 || e.tc.Valid()) {
		w.tracer.RecordChild(e.tc, e.id, "tower", "dispute", disputeStart, time.Since(disputeStart),
			fmt.Sprintf("enforced=%t fallback=%t escalated=%t", enforced, e.sess.DisputeFellBack, escalated))
	}
}
