package main

import (
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/federation"
	"onoffchain/internal/hub"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// workload is one pinned fleet configuration. Every field is a constant
// of the benchmark, not an option: a run is selected by name only.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	// spec builds the scenario's honest or adversarial spec.
	spec func(adversarial bool) *hub.Spec
	// advOf out of every blockLen consecutive session indices are
	// adversarial, at seeded positions: the share is exact over any whole
	// number of blocks, never a Bernoulli draw.
	advOf, blockLen int
	// clients is C, the closed-loop client count; the hub gets the same
	// number of workers, so Submit never queues behind a busy pool.
	clients int
	// warm is how many sessions set-up serves before the window: at least
	// one per worker (faucet shards) and one adversarial block (both
	// verdict paths), and a whole number of epochs in rollup mode (or
	// set-up would stall for EpochAge).
	warm int
	// round is how many sessions one measured round serves on its fresh
	// world: a whole number of adversarial blocks, of epochs in rollup
	// mode and of waves of C, sized to take 2-4 s. (crash_recover's rounds
	// are cycles long instead.)
	round int

	rollup *hub.RollupConfig // nil: per-session settlement
	wal    bool              // attach a store (default options: group commit, no fsync)
	towers int               // 1: the hub's own tower; n>1: plus n-1 federation.Join standalones
	// killMin..killMax, when set, make the run a sequence of Kill/Recover
	// cycles: each hub generation is killed after its seeded K-th clean
	// completion, K drawn from the range; a round is cycles of them.
	killMin, killMax, cycles int
}

// crash reports whether the workload runs Kill/Recover cycles.
func (wl *workload) crash() bool { return wl.killMax > 0 }

// The mining driver of every workload: a block every 60 ms, as many
// transactions as are waiting. (A variable so that the smoke test can mine
// faster.)
var mineInterval = 60 * time.Millisecond

const mineCap = 512

// Every workload mines on the interval driver, the way a deployed chain
// does, with few enough clients that the two reference cores stay under
// half busy: a session's latency is then a number of block intervals, which
// a slower host does not change, instead of CPU time, which on the shared
// reference host swings by a third between quiet and noisy minutes (README,
// "Why every workload is wait-bound"). What a workload costs in CPU is the
// traced run's cpu_ms_per_session.
var workloads = []*workload{
	{
		name:  "auto_persession",
		why:   "per-session settlement baseline: betting, 1 in 10 disputed, no WAL, no rollup, one tower; chain/state/trie/secp256k1 do the CPU work, store/rollup/federation none",
		spec:  func(adv bool) *hub.Spec { return hub.BettingSpec(4, 600, adv) },
		advOf: 1, blockLen: 10,
		clients: 30,
		warm:    30,
		round:   150,
		towers:  1,
	},
	{
		name:  "batch_rollup_wal",
		why:   "production shape: Merkle rollup epochs of 16, WAL on; the sequencer, store append and group commit and multi-tx block execution work here and nowhere else",
		spec:  func(adv bool) *hub.Spec { return hub.BettingSpec(4, 600, adv) },
		advOf: 1, blockLen: 10,
		clients: 32,
		warm:    32,
		round:   160,
		// EpochCap <= C/2 and an EpochAge no run reaches: epochs seal by
		// leaf count only, so epochs = sessions / 16 exactly.
		rollup: &hub.RollupConfig{Depth: 4, EpochCap: 16, EpochAge: 5 * time.Second},
		wal:    true,
		towers: 1,
	},
	{
		name:  "offchain_heavy",
		why:   "the paper's scalability claim: 6-party lottery with an 8000-round private draw, 1 in 4 disputed; vm/keccak/sandbox/whisper/sign-verify dominate the CPU, chain does a few small txs",
		spec:  func(adv bool) *hub.Spec { return hub.LotterySpec(6, 8000, 600, adv) },
		advOf: 1, blockLen: 4,
		clients: 2,
		warm:    4,
		round:   16,
		towers:  1,
	},
	{
		name:  "dispute_storm",
		why:   "the paper's worst case: 3 of 4 pool sessions lie, three federated towers elect who files; only workload where federation gossip, election and escalation run",
		spec:  func(adv bool) *hub.Spec { return hub.PoolSpec(4, 600, adv) },
		advOf: 3, blockLen: 4,
		clients: 16,
		warm:    16,
		round:   64,
		towers:  3,
	},
	{
		name:  "crash_recover",
		why:   "fault schedule: hub killed after a seeded 40th-60th completion, recovered from the WAL, repeated; the read side of store (replay, fold, re-arm, event replay)",
		spec:  func(adv bool) *hub.Spec { return hub.BettingSpec(4, 600, adv) },
		advOf: 1, blockLen: 10,
		clients: 16,
		warm:    20,
		wal:     true,
		towers:  1,
		killMin: 40, killMax: 60, cycles: 2,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// schedule is the seeded input of a run: which session indices lie. It is
// built before the world exists; the program only ever sees the specs
// chosen from it. (crash_recover's kill points are a second seeded
// stream, drawn in measure.)
type schedule struct {
	wl            *workload
	honest, lying *hub.Spec
	mu            sync.Mutex
	adversarial   []bool // by session index, drawn a block at a time
	rng           *rand.Rand
}

func newSchedule(wl *workload, seed int64) *schedule {
	return &schedule{wl: wl, honest: wl.spec(false), lying: wl.spec(true), rng: rand.New(rand.NewSource(seed))}
}

// at returns session index i's spec and whether it lies, drawing whole
// blocks until i is covered. Blocks are drawn in index order whichever
// client asks first, so the schedule depends on the seed alone.
func (s *schedule) at(i int) (*hub.Spec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.adversarial) <= i {
		blk := make([]bool, s.wl.blockLen)
		for _, p := range s.rng.Perm(s.wl.blockLen)[:s.wl.advOf] {
			blk[p] = true
		}
		s.adversarial = append(s.adversarial, blk...)
	}
	if s.adversarial[i] {
		return s.lying, true
	}
	return s.honest, false
}

// world is one constructed system under test: chain, whisper bus, store,
// hub and (federated workloads) the tower fleet.
type world struct {
	wl     *workload
	procs  int
	chain  *chain.Chain
	net    *whisper.Network
	dir    string       // WAL directory, inside the checkout's scratch root
	st     *store.Store // nil without WAL
	hub    *hub.Hub     // current generation (crash_recover replaces it)
	towers []*federation.Tower
	sched  *schedule
	next   atomic.Int64 // next schedule index to hand to a client
	spans  *spanLog     // nil unless traced
	// traceBase keeps the span trace ids of one run's worlds apart: a
	// session's trace is traceBase + schedule index + 1.
	traceBase uint64
	// warmLying is how many of the wl.warm warm-up sessions lied: the
	// hub's counters include the warm-up, so the fleet checks must too.
	warmLying int

	faucet   *secp256k1.PrivateKey
	hubCfg   hub.Config
	registry hub.SpecRegistry

	// Traced runs only.
	reg    *telemetry.Registry
	tracer *telemetry.Tracer
}

func faucetKey() *secp256k1.PrivateKey {
	k, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		panic(err) // constant scalar: cannot fail
	}
	return k
}

// buildWorld constructs the system and runs the warm-up sessions; when it
// returns, the next Submit is the first measured one. scratch is a
// directory the world may create its WAL under.
func buildWorld(wl *workload, procs int, seed int64, traced bool, scratch string, spans *spanLog, traceBase uint64) (*world, error) {
	w := &world{wl: wl, procs: procs, faucet: faucetKey(), sched: newSchedule(wl, seed), spans: spans, traceBase: traceBase}
	if traced {
		w.reg = telemetry.NewRegistry()
		w.tracer = telemetry.NewTracer(0)
	}
	ccfg := chain.DefaultConfig()
	ccfg.AutoMine = false
	ccfg.Telemetry = w.reg
	w.chain = chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(w.faucet.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	if err := w.chain.StartMining(mineInterval, mineCap); err != nil {
		return nil, err
	}
	// The in-process bus delivers synchronously: injected message delay 0.
	w.net = whisper.NewNetwork(w.chain.Now)
	c := wl.clients
	w.hubCfg = hub.Config{Workers: c, Rollup: wl.rollup, Telemetry: w.reg, Tracer: w.tracer}
	w.registry = hub.NewSpecRegistry(w.sched.honest, w.sched.lying)
	if wl.wal {
		dir, err := os.MkdirTemp(scratch, wl.name+"-wal-")
		if err != nil {
			w.close()
			return nil, err
		}
		w.dir = dir
		if w.st, err = store.Open(dir, store.Options{Telemetry: w.reg}); err != nil {
			w.close()
			return nil, err
		}
		w.hubCfg.Store = w.st
	}
	w.hub = hub.New(w.chain, w.net, w.faucet, w.hubCfg)
	if wl.towers > 1 {
		if err := w.federate(); err != nil {
			w.close()
			return nil, err
		}
	}
	// Warm-up: compile+split cache, faucet shards, both verdict paths.
	warmed := w.closedLoop(c, wl.warm, 0)
	if bad := verifySessions(w, warmed); len(bad) > 0 {
		w.close()
		return nil, fmt.Errorf("warm-up: %s", bad[0])
	}
	for _, s := range warmed {
		if s.adversarial {
			w.warmLying++
		}
	}
	// The round starts on a block boundary of the schedule, so that a
	// whole number of quanta holds an exact number of lying sessions.
	b := int64(wl.blockLen)
	w.next.Store((w.next.Load() + b - 1) / b * b)
	return w, nil
}

// federate turns the hub's tower into member 0 of a wl.towers fleet and
// joins the standalone members (unsigned gossip).
func (w *world) federate() error {
	n := w.wl.towers
	keys := make([]*secp256k1.PrivateKey, n)
	members := make([]types.Address, n)
	for i := range keys {
		k, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(uint64(0x70_3E_00 + i)))
		if err != nil {
			return err
		}
		keys[i], members[i] = k, types.Address(k.EthereumAddress())
	}
	cfg := func(k *secp256k1.PrivateKey) federation.Config {
		return federation.Config{Chain: w.chain, Net: w.net, Key: k, Members: members,
			Registry: w.registry, Telemetry: w.reg, Tracer: w.tracer,
			Logf: func(string, ...interface{}) {}}
	}
	ht, err := federation.AttachHub(w.hub, cfg(keys[0]))
	if err != nil {
		return err
	}
	w.towers = append(w.towers, ht)
	for _, k := range keys[1:] {
		t, err := federation.Join(cfg(k))
		if err != nil {
			return err
		}
		w.towers = append(w.towers, t)
	}
	return nil
}

// close stops everything the world started, hub before towers before the
// mining driver (workers drain by waiting out receipts), and removes the
// WAL directory.
func (w *world) close() {
	if w.hub != nil {
		w.hub.Stop()
	}
	for _, t := range w.towers {
		t.Stop()
	}
	w.chain.StopMining()
	if w.st != nil {
		w.st.Close()
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
	}
}
