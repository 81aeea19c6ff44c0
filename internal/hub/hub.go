// Package hub is the concurrency layer the paper's evaluation assumes but
// never builds: an orchestrator that drives many hybrid on/off-chain
// contract sessions through the four-stage mechanism (split/generate,
// deploy/sign, submit/challenge, dispute/resolve) at the same time, on one
// chain, with an always-on watchtower that monitors chain events and
// auto-disputes fraudulent result submissions within their challenge
// windows. With a Config.Store attached, each session fact is written
// ahead of the side effect that depends on it to a WAL (internal/store) so
// a crashed hub can be rebuilt with Recover — see DESIGN.md for the lifecycle diagram, the verdict and clock steps'
// safety argument, and the durability/recovery invariants.
package hub

import (
	"context"
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
	"onoffchain/internal/tower"
	"onoffchain/internal/types"
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
	Watch *tower.Watch
}

// Ticket is a handle on an in-flight session.
type Ticket struct {
	ID     uint64
	Spec   *Spec
	tc     telemetry.TraceContext // causal identity minted at admission
	run    func() *Report         // non-nil: resume job
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
	// Store, when set, makes the hub durable: each session fact is logged
	// to the WAL before the side effect that depends on it, and
	// hub.Recover can rebuild the session table from it after a crash. The
	// caller owns the store (and closes it); the hub only appends.
	Store *store.Store
	// StageHook, when set, is called every time a session completes a
	// lifecycle stage. Returning false simulates the process dying at
	// exactly that point: the worker abandons the session with no further
	// WAL writes and no further chain transactions. The crash-injection
	// harness is built on this hook (typically combined with Kill).
	StageHook func(sid uint64, s Stage) bool
	// Telemetry, when set, is the registry the hub publishes its series
	// into (hub_sessions_*, hub_stage_seconds, hub_disputes_*, ...), so
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

	tower   *tower.Watchtower
	metrics *metrics
	tracer  *telemetry.Tracer
	journal *journal
	seq     *rollup.Sequencer // nil in per-session settlement mode

	sid     atomic.Uint64 // session ID allocator
	crashed atomic.Bool   // Kill() was called: simulate process death

	splitMu sync.Mutex
	splits  map[types.Hash]*hybrid.SplitResult

	faucetMu sync.Mutex // serializes the faucet's nonce runs (see faucetRun)
	// keySecret seeds every party key and the sequencer's (see deriveKey).
	// Derived from the faucet key, the one credential a hub and the hub
	// recovered from its WAL share.
	keySecret [32]byte

	jobs     chan *Ticket
	wg       sync.WaitGroup
	stopOnce sync.Once
}

// New creates a hub. faucetKey's account must hold enough balance to fund
// every participant of every submitted session.
func New(c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config) *Hub {
	h := newHub(c, net, faucetKey, cfg, 0)
	err := h.start(nil)
	if err == nil && h.seq != nil {
		err = h.seq.Start()
	}
	if err != nil {
		// The hub cannot exist half-constructed, and rollup startup only
		// fails on a broken environment (empty faucet, dead chain).
		panic(fmt.Sprintf("hub: rollup sequencer: %v", err))
	}
	return h
}

// newHub is the shared constructor of everything but the tower and the
// workers (see start); Recover passes a non-zero floor so fresh session IDs
// (and with them the party keys derived from them) never collide with the
// ones the crashed generation minted.
func newHub(c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, cfg Config, sidFloor uint64) *Hub {
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
		journal: newJournal(cfg.Store),
		splits:  make(map[types.Hash]*hybrid.SplitResult),
		jobs:    make(chan *Ticket, 4*cfg.Workers),
	}
	h.keySecret = keccak.Sum256([]byte("onoffchain/hub/key-secret"), faucetKey.Bytes())
	h.journal.tracer = cfg.Tracer
	h.faucet.Ctx = ctx
	h.sid.Store(sidFloor)
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
	return h
}

// start builds the tower and starts the workers. In rollup mode the
// sequencer comes first — seeded from f, the folded WAL (nil for a fresh
// hub), funded, its registry deployed — so the tower is born armed with it.
// The sequencer is left unstarted: Recover re-arms its guards before Start
// can re-post a torn epoch.
func (h *Hub) start(f *rollup.Folded) error {
	var src rollup.Source
	if h.cfg.Rollup != nil {
		if err := h.initRollup(f); err != nil {
			return err
		}
		src = h.seq
	}
	h.tower = tower.NewWatchtower(h.chain, h.metrics.reg, h.tracer, src)
	// SLO: open dispute decisions pile up when the sandbox slots stall or the
	// chain stops confirming filings; a deep backlog risks missed windows.
	h.cfg.Telemetry.RegisterHealth("tower_disputes", func() telemetry.ComponentHealth {
		backlog := h.tower.PendingDisputes()
		switch {
		case backlog > 8*tower.SandboxSlots:
			return telemetry.Unhealthy(fmt.Sprintf("dispute backlog %d", backlog))
		case backlog > 2*tower.SandboxSlots:
			return telemetry.Degraded(fmt.Sprintf("dispute backlog %d", backlog))
		default:
			return telemetry.Healthy()
		}
	})
	h.wg.Add(h.cfg.Workers)
	for i := 0; i < h.cfg.Workers; i++ {
		go h.worker()
	}
	return nil
}

// Watchtower exposes the hub's tower (for tests and monitoring).
func (h *Hub) Watchtower() *tower.Watchtower { return h.tower }

// Metrics returns a consistent snapshot of the hub's counters, including
// the whisper network's envelope-loss counter, so gossip (signed-copy
// exchanges, federation guard records) dropped under backpressure shows
// up next to the sessions it can stall.
func (h *Hub) Metrics() Snapshot {
	snap := h.metrics.snapshot()
	tm := h.tower.Metrics()
	snap.DisputesRaised, snap.DisputesWon = tm.DisputesRaised, tm.DisputesWon
	snap.DisputesDeferred, snap.DisputesEscalated = tm.DisputesDeferred, tm.DisputesEscalated
	snap.SubmissionsSeen, snap.LeavesOpened = tm.SubmissionsSeen, tm.LeavesOpened
	if h.net != nil {
		snap.WhisperDrops = h.net.Drops()
	}
	return snap
}

// LiveSessions counts sessions the durable mirror considers in flight
// (accepted but not yet terminal).
func (h *Hub) LiveSessions() int { return h.journal.live() }

// Stop drains the queue, stops the workers and the watchtower, then
// releases the generation context. The hub must not be used afterwards.
// On a batch-mined chain, stop the hub BEFORE chain.StopMining: workers
// drain by waiting out their in-flight receipts, which need the driver
// alive.
func (h *Hub) Stop() {
	h.stopOnce.Do(func() {
		close(h.jobs)
		h.wg.Wait()
		if h.tower != nil { // nil when start-up failed before building it
			h.tower.Stop()
		}
		if h.seq != nil {
			h.seq.Stop()
		}
		h.cancel()
	})
}

// Kill simulates the process dying right now: the watchtower stops
// examining blocks, every worker abandons its session at the next
// lifecycle gate — including workers parked inside a receipt wait
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

func (h *Hub) worker() {
	defer h.wg.Done()
	for t := range h.jobs {
		switch {
		case h.crashed.Load():
			t.report = h.crashReport(t, StagePending)
		case t.run != nil:
			t.report = t.run()
		default:
			t.report = h.runSession(t)
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
