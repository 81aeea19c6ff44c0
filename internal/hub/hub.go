// Package hub is the concurrency layer the paper's evaluation assumes but
// never builds: an orchestrator that drives many hybrid on/off-chain
// contract sessions through the four-stage mechanism (split/generate,
// deploy/sign, submit/challenge, dispute/resolve) at the same time, on one
// chain, with an always-on watchtower that monitors chain events and
// auto-disputes fraudulent result submissions within their challenge
// windows. With a Config.Store attached, every lifecycle transition is
// written ahead to a WAL (internal/store) so a crashed hub can be rebuilt
// with Recover — see DESIGN.md for the lifecycle diagram, the two-barrier
// safety argument, and the durability/recovery invariants.
package hub

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/keccak"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// ErrCrashed marks a session abandoned by a simulated crash (Kill or a
// StageHook returning false): the worker stopped dead, in-memory state is
// gone, and only the WAL knows the session existed.
var ErrCrashed = errors.New("hub: crashed")

// Spec declares one scenario a session should run. A Spec is immutable
// configuration: the same *Spec may be submitted any number of times, and
// every submission gets fresh participant keys and a fresh contract
// instance.
type Spec struct {
	// Scenario labels the spec in reports and is the WAL's key back into
	// the SpecRegistry during recovery: two specs with the same Scenario
	// name must be interchangeable.
	Scenario string
	// Source is the whole-contract Solo source; Contract names the
	// contract within it.
	Source   string
	Contract string
	// Policy partitions the contract (stage 1).
	Policy hybrid.Policy
	// CtorArgs builds the whole contract's constructor arguments for a
	// fresh participant set. now is the chain's simulated time at session
	// start; any deadlines derived from it should carry generous margins,
	// because concurrent sessions share the one chain clock.
	CtorArgs func(addrs []types.Address, now uint64) []interface{}
	// Setup optionally runs scenario on-chain interactions (deposits)
	// after deploy+sign and before off-chain execution.
	Setup func(sess *hybrid.Session) error
	// Funding is the per-party balance granted by the faucet (default 5
	// ether).
	Funding *uint256.Int
	// DeployGas bounds the on-chain deployment (default 3,000,000).
	DeployGas uint64
	// Adversarial makes the submitting representative flip the agreed
	// result. The watchtower must catch it: the session then terminates
	// in StageResolved instead of StageSettled.
	Adversarial bool
}

// Report is the terminal record of one session run.
type Report struct {
	ID          uint64
	Scenario    string
	Stage       Stage // terminal stage (or last stage reached at a crash)
	Err         error
	Result      uint64 // unanimous off-chain outcome
	Submitted   uint64 // what was actually pushed on-chain
	Disputed    bool
	Recovered   bool // the session was resumed from the WAL by Recover
	OnChainAddr types.Address
	Latency     map[Stage]time.Duration
	// Session exposes the finished session for inspection (balances,
	// on-chain queries). Never touched by the hub after the report is
	// delivered.
	Session *hybrid.Session
	// Watch is the watchtower's record for the session.
	Watch *Watch
}

// Ticket is a handle on an in-flight session.
type Ticket struct {
	ID     uint64
	Spec   *Spec
	tc     telemetry.TraceContext                  // causal identity minted at admission
	run    func(shard *hybrid.Participant) *Report // non-nil: resume job
	done   chan struct{}
	report *Report
}

// TraceCtx returns the session's causal trace identity (zero without a
// tracer).
func (t *Ticket) TraceCtx() telemetry.TraceContext { return t.tc }

// Done is closed when the session reaches a terminal stage.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Report blocks until the session terminates and returns its record.
func (t *Ticket) Report() *Report {
	<-t.done
	return t.report
}

// Config tunes the hub.
type Config struct {
	// Workers is the session worker pool size (default GOMAXPROCS). The
	// submission queue holds four tickets per worker.
	Workers int
	// Store, when set, makes the hub durable: every lifecycle transition
	// is logged to the WAL before it is acted on, and hub.Recover can
	// rebuild the session table from it after a crash. The caller owns
	// the store (and closes it); the hub only appends.
	Store *store.Store
	// CompactEvery triggers WAL snapshot compaction after that many
	// terminal sessions (default 512).
	CompactEvery int
	// StageHook, when set, is called every time a session completes a
	// lifecycle stage. Returning false simulates the process dying at
	// exactly that point: the worker abandons the session with no further
	// WAL writes and no further chain transactions. The crash-injection
	// harness is built on this hook (typically combined with Kill).
	StageHook func(sid uint64, s Stage) bool
	// Telemetry, when set, is the registry the hub publishes its series
	// into (hub_sessions_*, hub_stage_seconds, hub_queue_depth, ...), so
	// one /metrics scrape covers every component sharing the registry.
	// When nil the hub keeps a private registry: Metrics()/Snapshot keep
	// working, nothing is exported, and no goroutine or listener starts.
	Telemetry *telemetry.Registry
	// Tracer, when set, records per-session lifecycle spans (hub stages,
	// whisper exchange, chain submit→receipt, store appends, tower
	// windows) into its ring. Nil disables tracing at zero cost.
	Tracer *telemetry.Tracer
	// Rollup, when set, switches settlement to Merkle-batched epochs: the
	// hub hosts a sequencer that replaces every session's submit+finalize
	// transactions with one postEpoch per batch. Nil (the default) keeps
	// per-session settlement. See RollupConfig.
	Rollup *RollupConfig
}

// Hub owns a worker pool that runs sessions end-to-end, a watchtower
// guarding every session it runs, a faucet that funds fresh per-session
// participant keys and deploys their contract behind the funding, and a
// split cache so identical scenarios compile once.
// The hub is mining-policy agnostic: every transaction it (or a session
// party) submits is observed through chain.WaitReceipt, so the chain may
// AutoMine a block per transaction or batch many sessions' transactions
// into shared blocks via chain.StartMining — workers simply block until
// their receipt resolves, under a per-generation context that Kill
// cancels.
type Hub struct {
	chain  *chain.Chain
	net    *whisper.Network
	faucet *hybrid.Participant
	cfg    Config

	// ctx bounds every receipt wait of this hub generation; cancel fires
	// on Kill so workers parked in WaitReceipt observe the crash instead
	// of waiting for a block a dead deployment may never see.
	ctx    context.Context
	cancel context.CancelFunc

	tower   *Watchtower
	metrics *metrics
	tracer  *telemetry.Tracer
	journal *journal
	seq     *rollup.Sequencer // nil in per-session settlement mode

	sid     atomic.Uint64 // session ID allocator
	crashed atomic.Bool   // Kill() was called: simulate process death

	splitMu sync.Mutex
	splits  map[types.Hash]*hybrid.SplitResult

	faucetMu sync.Mutex // serializes the root faucet's nonce runs (cold-shard runs, rollup start-up)
	shards   []*hybrid.Participant
	// keySecret seeds every party and shard key (see deriveKey). Derived
	// from the faucet key, the one credential a hub and the hub recovered
	// from its WAL share.
	keySecret [32]byte

	jobs     chan *Ticket
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// New creates a hub. faucetKey's account must hold enough balance to fund
// every participant of every submitted session.
func New(c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config) *Hub {
	h := newHub(c, net, faucetKey, cfg, 0, false)
	if cfg.Rollup != nil {
		if err := h.startRollup(); err != nil {
			// Same contract as the shard-key failure below: the hub cannot
			// exist half-constructed, and rollup startup only fails on a
			// broken environment (empty faucet, dead chain).
			panic(fmt.Sprintf("hub: rollup sequencer: %v", err))
		}
	}
	return h
}

// newHub is the shared constructor; Recover passes a non-zero floor so
// fresh session IDs (and with them the party keys derived from them) never
// collide with the ones the crashed generation minted, and holdCursor so
// the tower cannot durably advance the block cursor before the recovery
// replay has caught up.
func newHub(c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config, sidFloor uint64, holdCursor bool) *Hub {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	m := newMetrics(cfg.Telemetry)
	ctx, cancel := context.WithCancel(context.Background())
	h := &Hub{
		chain:   c,
		net:     net,
		faucet:  hybrid.NewParticipant(faucetKey, c, nil),
		cfg:     cfg,
		ctx:     ctx,
		cancel:  cancel,
		metrics: m,
		tracer:  cfg.Tracer,
		journal: newJournal(cfg.Store, cfg.CompactEvery, holdCursor),
		splits:  make(map[types.Hash]*hybrid.SplitResult),
		jobs:    make(chan *Ticket, 4*cfg.Workers),
	}
	h.keySecret = keccak.Sum256([]byte("onoffchain/hub/key-secret"), faucetKey.Bytes())
	h.journal.tracer = cfg.Tracer
	h.faucet.Ctx = ctx
	h.sid.Store(sidFloor)
	cfg.Telemetry.GaugeFunc("hub_queue_depth", func() float64 { return float64(len(h.jobs)) })
	cfg.Telemetry.GaugeFunc("hub_live_sessions", func() float64 { return float64(h.journal.live()) })
	// SLO: a full submission queue means Submit callers are blocking —
	// sustained saturation is the first symptom of a wedged worker pool.
	cfg.Telemetry.RegisterHealth("hub_workers", func() telemetry.ComponentHealth {
		depth, cap := len(h.jobs), cap(h.jobs)
		switch {
		case depth >= cap:
			return telemetry.Unhealthy(fmt.Sprintf("submission queue full (%d/%d)", depth, cap))
		case depth*4 >= cap*3:
			return telemetry.Degraded(fmt.Sprintf("submission queue %d/%d", depth, cap))
		default:
			return telemetry.Healthy()
		}
	})
	if net != nil {
		net.RegisterMetrics(cfg.Telemetry)
	}
	h.tower = NewWatchtower(c, m, cfg.Tracer, h.journal)
	// SLO: open dispute decisions pile up when the sandbox slots stall or the
	// chain stops confirming filings; a deep backlog risks missed windows.
	cfg.Telemetry.RegisterHealth("tower_disputes", func() telemetry.ComponentHealth {
		backlog := h.tower.PendingDisputes()
		switch {
		case backlog > 8*sandboxSlots:
			return telemetry.Unhealthy(fmt.Sprintf("dispute backlog %d", backlog))
		case backlog > 2*sandboxSlots:
			return telemetry.Degraded(fmt.Sprintf("dispute backlog %d", backlog))
		default:
			return telemetry.Healthy()
		}
	})
	// One faucet shard per worker: funding fresh participant keys is on
	// every session's critical path, and a single faucet account would
	// serialize it (nonces are strictly ordered per sender). Shards are
	// topped up from the root faucet in rare, large refills. Shard keys
	// live under session ID 0, which Submit never issues; a recovered hub
	// derives the same shards and inherits their balances.
	h.shards = make([]*hybrid.Participant, cfg.Workers)
	for i := range h.shards {
		key, err := h.deriveKey(0, i)
		if err != nil {
			panic(fmt.Sprintf("hub: shard key: %v", err))
		}
		h.shards[i] = hybrid.NewParticipant(key, c, nil)
		h.shards[i].Ctx = ctx
	}
	h.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go h.worker(h.shards[i])
	}
	return h
}

// Watchtower exposes the hub's tower (for tests and monitoring).
func (h *Hub) Watchtower() *Watchtower { return h.tower }

// Metrics returns a consistent snapshot of the hub's counters, including
// the whisper network's envelope-loss counter: gossip (signed-copy
// exchanges, federation heartbeats) silently dropped under backpressure
// was previously invisible, which made lost heartbeats undiagnosable.
func (h *Hub) Metrics() Snapshot {
	snap := h.metrics.snapshot()
	if h.net != nil {
		snap.WhisperDrops = h.net.Drops()
	}
	return snap
}

// LiveSessions counts sessions the durable mirror considers in flight
// (accepted but not yet terminal).
func (h *Hub) LiveSessions() int { return h.journal.live() }

// Submit enqueues a session for the worker pool. It blocks only when the
// queue is full (backpressure). The acceptance is logged to the WAL
// before the ticket enters the queue, so a crash cannot silently lose a
// queued session.
func (h *Hub) Submit(spec *Spec) *Ticket {
	t := &Ticket{ID: h.sid.Add(1), Spec: spec, done: make(chan struct{})}
	if h.crashed.Load() {
		t.report = h.crashReport(t, StagePending)
		close(t.done)
		return t
	}
	h.metrics.sessionsStarted.Inc()
	if err := h.journal.log(&store.Record{Kind: store.KindAccepted, SID: t.ID, Str: spec.Scenario}); err != nil {
		// The WAL cannot record the acceptance, so the hub must not
		// accept: a queued-but-unlogged session would be silently lost by
		// the next recovery. Fail loudly with the real cause instead.
		t.report = &Report{ID: t.ID, Scenario: spec.Scenario, Stage: StageFailed, Err: fmt.Errorf("hub: wal: %w", err)}
		h.metrics.sessionsFailed.Inc()
		close(t.done)
		return t
	}
	// Admission is the trace root: everything the session causes — stage
	// advances, chain txs, whisper posts, tower windows, federated
	// disputes — hangs below this span, across process boundaries.
	if h.tracer != nil {
		t.tc = h.tracer.NewTrace()
		h.tracer.RecordSpan(t.tc, 0, t.ID, "hub", "session", time.Now(), 0, "scenario="+spec.Scenario)
	}
	h.jobs <- t
	return t
}

// Run submits every spec and waits for all reports, in order.
func (h *Hub) Run(specs []*Spec) []*Report {
	tickets := make([]*Ticket, len(specs))
	for i, s := range specs {
		tickets[i] = h.Submit(s)
	}
	reports := make([]*Report, len(specs))
	for i, t := range tickets {
		reports[i] = t.Report()
	}
	return reports
}

// Stop drains the queue, stops the workers and the watchtower, then
// releases the generation context. The hub must not be used afterwards.
// On a batch-mined chain, stop the hub BEFORE chain.StopMining: workers
// drain by waiting out their in-flight receipts, which need the driver
// alive.
func (h *Hub) Stop() {
	h.stopOnce.Do(func() {
		close(h.jobs)
		h.wg.Wait()
		h.tower.Stop()
		if h.seq != nil {
			h.seq.Stop()
		}
		h.cancel()
	})
}

// Kill simulates the process dying right now: the watchtower stops
// examining blocks, every worker abandons its session at the next
// lifecycle checkpoint — including workers parked inside a receipt wait
// on a batch-mined chain, whose contexts are canceled here — and nothing
// further is written to the WAL. The chain (an external system in
// reality) keeps running. Call Stop afterwards to reclaim the
// goroutines; then hand the store to Recover.
func (h *Hub) Kill() {
	h.crashed.Store(true)
	h.cancel()
	h.tower.Halt()
	if h.seq != nil {
		// The sequencer "dies" too: its loop stops (in-flight receipt waits
		// just unblocked via the canceled generation context), unresolved
		// tickets stay unresolved, and the WAL is left exactly as-is for
		// recovery to reconcile against the chain.
		h.seq.Halt()
	}
}

// Crashed reports whether Kill was called.
func (h *Hub) Crashed() bool { return h.crashed.Load() }

func (h *Hub) worker(shard *hybrid.Participant) {
	defer h.wg.Done()
	for t := range h.jobs {
		switch {
		case h.crashed.Load():
			t.report = h.crashReport(t, StagePending)
		case t.run != nil:
			t.report = t.run(shard)
		default:
			t.report = h.runSession(t, shard)
		}
		if t.report.Err == nil || errors.Is(t.report.Err, ErrCrashed) {
			// Crashed sessions count as neither completed nor failed: the
			// WAL still carries them and Recover settles the ledger.
			if t.report.Err == nil {
				h.metrics.sessionsCompleted.Inc()
			}
		} else {
			h.metrics.sessionsFailed.Inc()
		}
		close(t.done)
	}
}

// split returns the (cached) stage-1 artifacts for a spec. SplitResult is
// immutable after creation, so one instance is shared by every session of
// the scenario.
func (h *Hub) split(spec *Spec) (*hybrid.SplitResult, error) {
	key := types.Hash(keccak.Sum256Bytes(
		[]byte(spec.Source), []byte(spec.Contract),
		[]byte(fmt.Sprintf("%+v", spec.Policy)),
	))
	h.splitMu.Lock()
	defer h.splitMu.Unlock()
	if sr, ok := h.splits[key]; ok {
		return sr, nil
	}
	sr, err := hybrid.Split(spec.Source, spec.Contract, spec.Policy)
	if err != nil {
		return nil, err
	}
	h.splits[key] = sr
	return sr, nil
}

// deriveKey returns the key of party (or, under session ID 0, faucet shard
// or sequencer) number index: a pure function of (hub secret, sid, index).
// Which worker runs a session, and in what order workers reach this point,
// cannot change the session's addresses — twin worlds fed the same fleet
// agree on every address-seeded outcome at any core count — and the scalars
// are not guessable without the hub's secret. Session IDs are never reissued
// (Recover floors the allocator above the WAL's high mark), so neither are
// keys.
func (h *Hub) deriveKey(sid uint64, index int) (*secp256k1.PrivateKey, error) {
	var tag [16]byte
	binary.BigEndian.PutUint64(tag[:8], sid)
	binary.BigEndian.PutUint64(tag[8:], uint64(index))
	d := keccak.Sum256(h.keySecret[:], tag[:])
	return secp256k1.PrivateKeyFromBytes(d[:])
}

// fundAndDeploy is the whole of StageDeployed on chain, in one block: one
// sender sends the spec's funding to every party and, directly behind those
// transfers, the on-chain contract's creation. One sender, consecutive nonces:
// no block can carry the creation without the transfers, and nothing stops one
// block carrying all of them — whereas a party could not deploy before a block
// had funded it, because the pool admits no transaction its sender cannot yet
// pay for. Everything is sent first and awaited afterwards, and the session
// binds to the address the creation's receipt reports.
//
// The sender is the worker's own faucet shard (no cross-worker contention)
// whenever the shard can pay. A shard that cannot — every worker's first
// session, then one in ~64 — is under the same pool rule as the parties: it
// could not send until a block had refilled it. So the root faucet sends that
// session's whole run instead, the shard's refill in front of it, in one nonce
// run under faucetMu (which covers the sends and none of the waits): the
// single-sender argument with the sender swapped, and no block for the refill
// alone. The next session finds the shard funded.
func (h *Hub) fundAndDeploy(t *Ticket, shard *hybrid.Participant, sess *hybrid.Session, amount *uint256.Int, gas uint64, ctorArgs []interface{}) error {
	addrs := sess.ParticipantAddrs()
	need := new(uint256.Int).Mul(amount, uint256.NewInt(uint64(len(addrs))))
	need.Add(need, eth(1)) // gas headroom, the creation's included
	sender, label := shard, "shard"
	cold := shard.Chain.BalanceAt(shard.Addr).Lt(need)
	if cold {
		sender, label = h.faucet, "root"
	}
	sent := time.Now()
	hashes := make([]types.Hash, len(addrs))
	var refill, creation types.Hash
	sendRun := func() (err error) {
		if cold {
			refill, err = sender.SendTxAsync(&shard.Addr, new(uint256.Int).Mul(need, uint256.NewInt(64)), 21_000, nil)
			if err != nil {
				return fmt.Errorf("hub: refill shard: %w", err)
			}
		}
		for i := range addrs {
			if hashes[i], err = sender.SendTxAsync(&addrs[i], amount, 21_000, nil); err != nil {
				return fmt.Errorf("hub: fund %s: %w", addrs[i].Hex(), err)
			}
		}
		if creation, err = sess.DeployOnChainAsync(sender, gas, ctorArgs...); err != nil {
			return fmt.Errorf("hub: deploy: %w", err)
		}
		return nil
	}
	if cold {
		h.faucetMu.Lock()
	}
	err := sendRun()
	if cold {
		h.faucetMu.Unlock()
	}
	if err != nil {
		return err
	}
	if cold {
		r, err := h.faucet.WaitReceipt(refill)
		if err != nil {
			return fmt.Errorf("hub: refill shard: %w", err)
		}
		if !r.Succeeded() {
			return fmt.Errorf("hub: shard refill reverted (root faucet empty?)")
		}
	}
	var funded uint64
	for i, hash := range hashes {
		r, err := sender.WaitReceipt(hash)
		if err != nil {
			return fmt.Errorf("hub: fund %s: %w", addrs[i].Hex(), err)
		}
		if !r.Succeeded() {
			return fmt.Errorf("hub: funding transfer to %s reverted", addrs[i].Hex())
		}
		funded = r.BlockNumber
	}
	h.tracer.RecordChild(t.tc, t.ID, "chain", "fund", sent, time.Since(sent), fmt.Sprintf("block=%d sender=%s", funded, label))
	r, err := sender.WaitReceipt(creation)
	if err != nil {
		return fmt.Errorf("hub: deploy: %w", err)
	}
	if err := sess.BindOnChain(r); err != nil {
		return fmt.Errorf("hub: deploy: %w", err)
	}
	h.tracer.RecordChild(t.tc, t.ID, "chain", "deploy", sent, time.Since(sent), fmt.Sprintf("block=%d", r.BlockNumber))
	return nil
}

var defaultFunding = new(uint256.Int).Mul(uint256.NewInt(5), uint256.NewInt(1e18))

// crashReport closes out a session the simulated crash tore away from its
// worker. Only the in-memory ticket learns about it — the WAL stays
// exactly as it was at the crash point, which is the whole point.
func (h *Hub) crashReport(t *Ticket, at Stage) *Report {
	rep := &Report{ID: t.ID, Stage: at, Err: ErrCrashed}
	if t.Spec != nil {
		rep.Scenario = t.Spec.Scenario
	}
	return rep
}

// lifecycle carries one running session's bookkeeping through the stage
// helpers.
type lifecycle struct {
	t     *Ticket
	rep   *Report
	began time.Time
}

// checkpoint is the write-ahead gate in front of a stage. It returns
// ErrCrashed when the hub is simulating process death (the worker must
// abandon the session on the spot, writing nothing), the journal's
// append error when durability is lost (the session must FAIL with the
// real cause — a hub that cannot write its WAL must not pretend its
// sessions merely crashed), or nil to proceed.
func (h *Hub) checkpoint(lc *lifecycle, s Stage) error {
	if h.crashed.Load() {
		return ErrCrashed
	}
	if err := h.journal.log(&store.Record{Kind: store.KindStage, SID: lc.t.ID, U1: uint64(s)}); err != nil {
		return fmt.Errorf("hub: wal: %w", err)
	}
	lc.began = time.Now()
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

// gate runs the write-ahead checkpoint for the stage about to start and
// translates failures: a simulated crash abandons the session at its
// CURRENT stage (lc.rep.Stage), WAL loss fails it with the real cause.
// A nil return means proceed.
func (h *Hub) gate(lc *lifecycle, next Stage) *Report {
	err := h.checkpoint(lc, next)
	if err == nil {
		return nil
	}
	if errors.Is(err, ErrCrashed) {
		return h.crashReport(lc.t, lc.rep.Stage)
	}
	return h.failSession(lc, err)
}

// runSession drives one session through the full lifecycle state machine.
func (h *Hub) runSession(t *Ticket, shard *hybrid.Participant) *Report {
	spec := t.Spec
	rep := &Report{ID: t.ID, Scenario: spec.Scenario, Stage: StagePending, Latency: make(map[Stage]time.Duration)}
	lc := &lifecycle{t: t, rep: rep}
	fail := func(err error) *Report { return h.failSession(lc, err) }
	if h.cfg.StageHook != nil && !h.cfg.StageHook(t.ID, StagePending) {
		return h.crashReport(t, StagePending)
	}

	// Stage 1: split/generate (cached per scenario).
	if rep := h.gate(lc, StageSplit); rep != nil {
		return rep
	}
	split, err := h.split(spec)
	if err != nil {
		return fail(err)
	}
	if !h.advance(lc, StageSplit) {
		return h.crashReport(t, StageSplit)
	}

	// Fresh identities, funded by the faucet. Their scalars go to the WAL
	// before any of them touches the chain: recovery must be able to act
	// for these parties (file disputes, finalize) or they are lost.
	parties := make([]*hybrid.Participant, split.Participants)
	addrs := make([]types.Address, split.Participants)
	scalars := make([][]byte, split.Participants)
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
		scalars[i] = key.Bytes()
	}
	h.journal.log(&store.Record{
		Kind: store.KindParties, SID: t.ID,
		U1: split.Policy.ChallengePeriod, U2: 0, // U2: the honest party's index
		Blobs: scalars,
	})
	funding := spec.Funding
	if funding == nil {
		funding = defaultFunding
	}
	if rep := h.gate(lc, StageDeployed); rep != nil {
		return rep
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
	if err := h.fundAndDeploy(t, shard, sess, funding, gas, ctorArgs); err != nil {
		return fail(err)
	}
	rep.OnChainAddr = sess.OnChainAddr
	h.journal.log(&store.Record{Kind: store.KindDeployed, SID: t.ID, Blob: sess.OnChainAddr[:]})
	if !h.advance(lc, StageDeployed) {
		return h.crashReport(t, StageDeployed)
	}

	// Stage 2b: sign and exchange the off-chain copy.
	if rep := h.gate(lc, StageSigned); rep != nil {
		return rep
	}
	exchangeStart := time.Now()
	if err := sess.SignAndExchange(ctorArgs...); err != nil {
		return fail(fmt.Errorf("hub: sign/exchange: %w", err))
	}
	h.tracer.RecordChild(t.tc, t.ID, "whisper", "sign_exchange", exchangeStart, time.Since(exchangeStart), "")
	h.journal.log(&store.Record{Kind: store.KindSigned, SID: t.ID, Blob: sess.Copy.Encode()})
	if !h.advance(lc, StageSigned) {
		return h.crashReport(t, StageSigned)
	}

	return h.runFromSigned(lc, sess, nil, false)
}

// runFromSigned continues a session that holds a verified signed copy —
// either fresh from SignAndExchange (watch nil: the session still needs
// guarding) or rebuilt from the WAL by Recover (watch already armed;
// setupDone reflects the WAL's setup bracket).
func (h *Hub) runFromSigned(lc *lifecycle, sess *hybrid.Session, watch *Watch, setupDone bool) *Report {
	t, rep, spec := lc.t, lc.rep, lc.t.Spec
	fail := func(err error) *Report { return h.failSession(lc, err) }

	// Hand the session to the watchtower BEFORE any submission can land,
	// so no challenge window ever opens unobserved.
	if watch == nil {
		var err error
		watch, err = h.tower.guard(sess, 0, t.ID, spec.Scenario, t.tc)
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
		if err := h.journal.log(&store.Record{Kind: store.KindSetupStart, SID: t.ID}); err != nil {
			return fail(fmt.Errorf("hub: setup bracket: %w", err))
		}
		if err := spec.Setup(sess); err != nil {
			return fail(fmt.Errorf("hub: setup: %w", err))
		}
		h.journal.log(&store.Record{Kind: store.KindSetupDone, SID: t.ID})
		// No Report.Latency stage covers the deposits' block wait; this span
		// is where it shows.
		h.tracer.RecordChild(t.tc, t.ID, "hub", "setup", setupStart, time.Since(setupStart), "")
	}

	// Stage 3a: private unanimous execution.
	if rep := h.gate(lc, StageExecuted); rep != nil {
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
	if rep := h.gate(lc, StageSubmitted); rep != nil {
		return rep
	}
	// The one irreversible action of the lifecycle: the intent record must
	// be durable BEFORE the result transaction exists.
	if err := h.journal.log(&store.Record{Kind: store.KindSubmitted, SID: t.ID, U1: submitted}); err != nil {
		return fail(fmt.Errorf("hub: wal: %w", err))
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

// awaitSettlement is the tail of the lifecycle: wait for the tower's
// verdict on this session's submission, then either acknowledge the
// dispute the tower filed or — behind the all-verdicts barrier — finalize
// the honest submission past its challenge window.
func (h *Hub) awaitSettlement(lc *lifecycle, sess *hybrid.Session, watch *Watch) *Report {
	t, rep := lc.t, lc.rep
	fail := func(err error) *Report { return h.failSession(lc, err) }

	// Own verdict before reporting: wait for the tower to have examined
	// every block up to the submission and decided THIS window. After this
	// returns, a fraudulent submission has already been disputed and
	// enforced — other sessions' disputes may still be in flight, and a
	// disputed session does not wait for them.
	lc.began = time.Now()
	h.tower.WaitVerdict(watch, h.chain.Height())
	own := time.Since(lc.began)
	if h.crashed.Load() {
		return h.crashReport(t, StageSubmitted)
	}
	settled, err := sess.IsSettled()
	if err != nil {
		return fail(err)
	}
	if settled {
		h.barrierSpan(lc, lc.began, own, 0)
		return h.reportSettled(lc, sess, watch)
	}
	// The verdict is in and the contract is still open: the submission was
	// clean — unless the tower filed and could not enforce, in which case
	// what stands in the contract is a lie, and it must not be finalized.
	if raised, _ := watch.Disputed(); raised {
		return fail(errors.New("hub: dispute filed but not enforced"))
	}

	// Honest path: advance past the challenge window and finalize. All
	// verdicts before any clock jump: the clock is shared, so the jump must
	// not overtake ANY window whose dispute is still undecided or in flight.
	clockStart := time.Now()
	h.tower.WaitCaughtUp(h.chain.Height())
	h.barrierSpan(lc, lc.began, own, time.Since(clockStart))
	if h.crashed.Load() {
		return h.crashReport(t, StageSubmitted)
	}
	h.advancePast(sess)
	fr, err := sess.FinalizeResult(0)
	if err != nil {
		return fail(fmt.Errorf("hub: finalize: %w", err))
	}
	if !fr.Succeeded() {
		// Someone else settled the contract between the barrier and the
		// finalize transaction: a dispute (only possible if someone
		// re-submitted), or — for a recovered session — the finalization the
		// dead generation left in the pool.
		if s, _ := sess.IsSettled(); s {
			return h.reportSettled(lc, sess, watch)
		}
		return fail(errors.New("hub: finalizeResult reverted"))
	}
	h.metrics.settleTxs.Inc()
	h.metrics.settleGas.Add(fr.GasUsed)
	if !h.advance(lc, StageSettled) {
		return h.crashReport(t, StageSettled)
	}
	h.terminal(lc, StageSettled)
	return rep
}

// reportSettled closes out a session whose owner found its contract
// already settled, labelled from the chain's settlement log rather than
// from how the owner got here. DisputeResolved means the tower intervened —
// ours, or a federated peer whose dispute landed; the tower's view can
// trail the chain by a block, so the log is the authority. ResultFinalized
// alone means an unchallenged finalization this worker did not send (a
// recovered session whose dead generation's finalize was still pooled at
// the kill): that session is settled, not resolved.
func (h *Hub) reportSettled(lc *lifecycle, sess *hybrid.Session, watch *Watch) *Report {
	t, rep := lc.t, lc.rep
	raised, won := watch.Disputed()
	byDispute := watch.SettledByDispute() || settledByDispute(h.chain, sess.OnChainAddr)
	if raised && !won && !byDispute {
		return h.failSession(lc, errors.New("hub: dispute filed but not enforced"))
	}
	rep.Disputed = raised || byDispute
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

// advancePast moves the shared clock beyond the session's challenge
// window. The clock is shared by all sessions; advancing it for one
// session is safe for the others because the caller has just passed
// WaitCaughtUp — no window anywhere has an undecided or unenforced verdict
// — so a lie can never be frozen in by someone else's clock jump.
func (h *Hub) advancePast(sess *hybrid.Session) {
	h.chain.AdvanceTime(sess.Split.Policy.ChallengePeriod + 1)
}

// barrierSpan records how long the session's tail waited on the tower,
// split by what each wait guards: own is the own-verdict wait every
// session pays, clock the all-verdicts wait only an honest per-session
// owner pays before its clock jump.
func (h *Hub) barrierSpan(lc *lifecycle, start time.Time, own, clock time.Duration) {
	h.tracer.RecordChild(lc.t.tc, lc.t.ID, "hub", "barrier", start, own+clock,
		fmt.Sprintf("own_ms=%.1f clock_ms=%.1f", own.Seconds()*1e3, clock.Seconds()*1e3))
}

// startPrivateRun launches stage 3a — the parties' private executions of
// the signed bytecode and the tower's own sandboxed verdict (pre-computed
// off its event loop, so the dispute pipeline finds it cached) — all
// concurrently, as they would run on separate machines. The returned join
// waits for them and yields the unanimous outcome; it may be called more
// than once.
func startPrivateRun(sess *hybrid.Session, watch *Watch) (join func() (*hybrid.OffChainOutcome, error)) {
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
