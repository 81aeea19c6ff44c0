// Hub demonstrates the concurrent session orchestrator: a fleet of
// betting and auction sessions runs through the four-stage mechanism on
// one dev chain, while the hub's watchtower monitors chain events. One
// submitter is dishonest — watch the tower catch the lie inside the
// challenge window and force the true result through dispute/resolve.
// A log subscription (the push counterpart of FilterLogs) streams the
// settlement events live.
//
// The second act is the durability demo: a WAL-backed hub is killed the
// instant a fraudulent result lands on-chain, then rebuilt with
// hub.Recover — which replays the log, re-arms the watchtower over the
// still-open challenge window, and makes sure the lie is disputed
// exactly once.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/federation"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/rollup"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

func eth(n uint64) *uint256.Int {
	return new(uint256.Int).Mul(uint256.NewInt(n), uint256.NewInt(1e18))
}

// obs bundles the opt-in observability handles threaded through every
// act of the demo. The handles are nil without -telemetry/-flight-record,
// and every instrumented layer treats nil as a no-op.
type obs struct {
	reg    *telemetry.Registry
	tr     *telemetry.Tracer
	flight string // -flight-record directory ("" disables)
}

// tracer returns a span recorder for one logical process of the demo.
// Without -flight-record every act shares the main in-memory tracer; with
// it, each process gets its own tracer teed into its own recorder file —
// the cross-process split, exercised in-process — and the returned close
// drains that file.
func (o obs) tracer(proc string) (*telemetry.Tracer, func()) {
	if o.flight == "" {
		return o.tr, func() {}
	}
	tr := telemetry.NewTracer(0)
	fr, err := telemetry.NewFlightRecorder(o.flight, proc, nil)
	if err != nil {
		log.Fatalf("flight recorder %s: %v", proc, err)
	}
	fr.RegisterMetrics(o.reg)
	tr.Tee(fr.Record)
	return tr, func() { fr.Close() }
}

// execPolicy is the -exec flag mapped to a chain config value; every act's
// chain is built with it. Parallel execution only changes anything for the
// batch-mining act (AutoMine blocks hold one transaction, and width-1
// batches fall back to the serial engine), but applying it everywhere keeps
// the demo honest about "same results under either engine".
var execPolicy chain.ExecPolicy

func applyExec(ccfg *chain.Config) {
	ccfg.Exec = execPolicy
}

func main() {
	towers := flag.Int("towers", 3, "federation size for the tower-federation act (1 disables it)")
	settleMode := flag.String("settle", "persession", `settlement mode for the fleet act: "persession" (one submit + one finalize transaction per session) or "rollup" (Merkle-batched epochs, one transaction per epoch)`)
	execMode := flag.String("exec", "serial", `block execution engine: "serial" or "parallel" (multi-core optimistic scheduling; identical blocks either way)`)
	telemetryAddr := flag.String("telemetry", "", "optional observability listen address (e.g. :6060); serves /metrics, /healthz, /debug/trace, /debug/pprof/* and keeps the process alive after the demos for scraping")
	flightDir := flag.String("flight-record", "", "directory for flight-recorder span files, one sequence per logical process (merge with cmd/trace)")
	flag.Parse()
	var rollupCfg *hub.RollupConfig
	switch *settleMode {
	case "persession":
	case "rollup":
		rollupCfg = &hub.RollupConfig{Depth: 4, EpochAge: 150 * time.Millisecond}
	default:
		log.Fatalf("unknown -settle mode %q (want persession or rollup)", *settleMode)
	}
	switch *execMode {
	case "serial":
	case "parallel":
		execPolicy = chain.ExecParallel
	default:
		log.Fatalf("unknown -exec mode %q (want serial or parallel)", *execMode)
	}

	var o obs
	o.flight = *flightDir
	if *telemetryAddr != "" || *flightDir != "" {
		o.reg = telemetry.NewRegistry()
		o.tr = telemetry.NewTracer(0)
		o.reg.RegisterRuntimeMetrics()
		o.reg.PublishExpvar("hub")
	}
	if *telemetryAddr != "" {
		tsrv, err := telemetry.Serve(*telemetryAddr, o.reg, o.tr)
		if err != nil {
			log.Fatalf("telemetry listen: %v", err)
		}
		defer tsrv.Close()
		fmt.Printf("telemetry: curl http://%s/metrics  (traces at /debug/trace)\n\n", tsrv.Addr())
	}
	if *flightDir != "" {
		fr, err := telemetry.NewFlightRecorder(*flightDir, "hub", nil)
		if err != nil {
			log.Fatalf("flight recorder: %v", err)
		}
		defer fr.Close()
		fr.RegisterMetrics(o.reg)
		o.tr.Tee(fr.Record)
		fmt.Printf("flight recorder: %s/hub-*.jsonl (merge with `go run ./cmd/trace %s`)\n\n", *flightDir, *flightDir)
	}

	// World: a dev chain with a rich faucet, a whisper network, a hub.
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		log.Fatal(err)
	}
	ccfg := chain.DefaultConfig()
	applyExec(&ccfg)
	ccfg.Telemetry = o.reg
	ccfg.Tracer = o.tr
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): eth(1_000_000),
	})
	net := whisper.NewNetwork(c.Now)
	h := hub.New(c, net, faucetKey, hub.Config{Workers: 4, Telemetry: o.reg, Tracer: o.tr, Rollup: rollupCfg})

	// Stream finalization and dispute events live over the push API. In
	// rollup mode no per-session finalizations exist — the epoch feed shows
	// the batched commits instead.
	events := c.SubscribeBlockLogs(chain.FilterQuery{Topics: []types.Hash{
		hybrid.TopicResultFinalized, hybrid.TopicDisputeResolved, rollup.TopicEpochPosted,
	}})
	feedDone := make(chan struct{})
	go func() {
		defer close(feedDone)
		for b := range events.BlockLogs() {
			for _, l := range b.Logs {
				switch l.Topics[0] {
				case rollup.TopicEpochPosted:
					if ev, err := rollup.DecodeEpochPosted(l); err == nil {
						fmt.Printf("  [events] block %4d  epoch %d POSTED root=%s.. (%d sessions in one tx)\n",
							l.BlockNumber, ev.Epoch, ev.Root.Hex()[:10], ev.Count)
					}
				case hybrid.TopicResultFinalized:
					r, _ := hybrid.DecodeResultWord(l)
					fmt.Printf("  [events] block %4d  %s  finalized result=%d (unchallenged)\n",
						l.BlockNumber, l.Address.Hex()[:10], r)
				case hybrid.TopicDisputeResolved:
					r, _ := hybrid.DecodeResultWord(l)
					fmt.Printf("  [events] block %4d  %s  DISPUTE RESOLVED result=%d (enforced by miners)\n",
						l.BlockNumber, l.Address.Hex()[:10], r)
				}
			}
		}
	}()

	// The fleet: honest betting and auction sessions, plus one betting
	// session whose representative will submit a flipped result.
	specs := []*hub.Spec{
		hub.BettingSpec(64, 600, false),
		hub.AuctionSpec(600, false),
		hub.BettingSpec(64, 600, true), // the adversary
		hub.BettingSpec(64, 600, false),
		hub.AuctionSpec(600, false),
	}
	fmt.Printf("running %d concurrent sessions (1 adversarial) through the hub...\n\n", len(specs))
	reports := h.Run(specs)
	m := h.Metrics()

	// Flush the live event feed before summarizing.
	h.Stop()
	events.Unsubscribe()
	<-feedDone

	fmt.Println("\nper-session outcome:")
	for i, rep := range reports {
		if rep.Err != nil {
			log.Fatalf("session %d (%s) failed: %v", i, rep.Scenario, rep.Err)
		}
		verdict := "settled honestly"
		if rep.Stage == hub.StageRolledUp {
			verdict = "rolled up (no per-session settle tx)"
		}
		if rep.Disputed {
			at, deadline := rep.Watch.DisputeTiming()
			// The margin is against the watchtower's NOMINAL window
			// (submission + policy period); the on-chain deadlines carry a
			// much larger slack, so a fast fleet can mine past the nominal
			// mark while the async dispute files and still win — signed
			// arithmetic keeps that case readable.
			verdict = fmt.Sprintf("lied (%d for %d) -> auto-disputed at t=%d, %+ds vs the nominal window close",
				rep.Submitted, rep.Result, at, int64(deadline)-int64(at))
		}
		fmt.Printf("  %-20s stage=%-9s result=%d  %s\n", rep.Scenario, rep.Stage, rep.Result, verdict)
	}

	fmt.Printf("\nhub metrics: %d sessions in %s (%.1f sessions/sec), watchtower saw %d submissions, disputes raised/won %d/%d\n",
		m.SessionsCompleted, m.Elapsed.Round(1e6), m.SessionsPerSec, m.SubmissionsSeen, m.DisputesRaised, m.DisputesWon)
	if rollupCfg != nil {
		fmt.Printf("settlement: %d sessions committed by %d rollup transaction(s), %d gas total (%d gas/session)\n",
			m.SessionsCompleted, m.SettleTxs, m.SettleGas, m.SettleGas/m.SessionsCompleted)
	}
	fmt.Println("per-stage latency (avg/max):")
	var stages []hub.Stage
	for s := range m.Stages {
		stages = append(stages, s)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i] < stages[j] })
	for _, s := range stages {
		st := m.Stages[s]
		fmt.Printf("  %-10s %8s / %s\n", s, st.Avg.Round(1e4), st.Max.Round(1e4))
	}

	durabilityDemo(c, net, faucetKey, o)
	batchMiningDemo(faucetKey, o)
	if *towers > 1 {
		federationDemo(faucetKey, *towers, o)
	}

	if *telemetryAddr != "" {
		fmt.Printf("\ndemos done — telemetry still serving on %s (ctrl-c to exit)\n", *telemetryAddr)
		select {}
	}
}

// federationDemo is the liveness headline of internal/federation: N
// towers share guard duty; the hub — the member that OWNS the fraudulent
// session — is killed the instant the lie lands on-chain, and a standalone
// backup tower escalates and disputes it before the window closes.
func federationDemo(faucetKey *secp256k1.PrivateKey, towers int, o obs) {
	fmt.Printf("\n--- tower federation: %d towers, primary killed mid-window, backup disputes ---\n", towers)
	ccfg := chain.DefaultConfig()
	applyExec(&ccfg)
	ccfg.Telemetry = o.reg
	ccfg.Tracer = o.tr
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): eth(1_000_000),
	})
	net := whisper.NewNetwork(c.Now)

	keys := make([]*secp256k1.PrivateKey, towers)
	members := make([]types.Address, towers)
	for i := range keys {
		k, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(uint64(0x70_3E_00 + i)))
		if err != nil {
			log.Fatal(err)
		}
		keys[i] = k
		members[i] = types.Address(k.EthereumAddress())
	}
	spec := hub.BettingSpec(64, 600, true)
	registry := hub.NewSpecRegistry(spec)

	// The hub is federation member 0; the lie's window must survive its
	// death, so kill it the moment the fraudulent submission completes.
	var h *hub.Hub
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 2, Telemetry: o.reg, Tracer: o.tr, StageHook: func(sid uint64, s hub.Stage) bool {
		if s == hub.StageSubmitted {
			h.Kill()
		}
		return !h.Crashed()
	}})
	quiet := func(string, ...interface{}) {}
	mk := func(k *secp256k1.PrivateKey) federation.Config {
		return federation.Config{
			Chain: c, Net: net, Key: k, Members: members, Registry: registry,
			HeartbeatEvery: 50 * time.Millisecond, EscalateAfter: 300 * time.Millisecond,
			Logf: quiet, Telemetry: o.reg, Tracer: o.tr,
		}
	}
	hubTower, err := federation.AttachHub(h, mk(keys[0]))
	if err != nil {
		log.Fatal(err)
	}
	backups := make([]*federation.Tower, 0, towers-1)
	for i := 1; i < towers; i++ {
		// Each backup is a logical process of its own: with -flight-record
		// it records spans under its own proc name, and cmd/trace stitches
		// the hub's and the backups' files back into one causal timeline.
		cfg := mk(keys[i])
		tr, closeRec := o.tracer(fmt.Sprintf("tower-%d", i))
		cfg.Tracer = tr
		defer closeRec()
		bt, err := federation.Join(cfg)
		if err != nil {
			log.Fatal(err)
		}
		backups = append(backups, bt)
		defer bt.Stop()
	}

	rep := h.Submit(spec).Report()
	h.Stop()
	hubTower.Kill()
	hubTower.Stop()
	fmt.Printf("  hub (member 0) KILLED at stage %s: the lie is on-chain, its owner is dead\n", rep.Stage)

	logs := c.FilterLogs(chain.FilterQuery{Topic: &hybrid.TopicResultSubmitted})
	if len(logs) != 1 {
		log.Fatalf("expected exactly one submission, got %d", len(logs))
	}
	contract := logs[0].Address
	ev, err := hybrid.DecodeResultSubmitted(logs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  window open on %s until t=%d; backups guard it from gossiped state\n", contract.Hex()[:10], ev.At+600)

	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) > 0 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	for i, bt := range backups {
		m := bt.Metrics()
		if m.DisputesWon > 0 {
			fmt.Printf("  backup tower %d (%s) escalated and ENFORCED the dispute at chain time %d — %ds before the deadline\n",
				i+1, bt.Self().Hex()[:10], c.Now(), ev.At+600-c.Now())
		}
	}
	if len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) == 0 {
		log.Fatal("no backup disputed the lie")
	}
	fmt.Printf("  exactly-once: %d DisputeOpened event(s) on the contract\n",
		len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeOpened})))
}

// batchMiningDemo retires the AutoMine assumption live: the same fleet
// machinery runs against a chain with AutoMine off, where a background
// driver (chain.StartMining) seals many sessions' transactions into each
// block and every receipt arrives through the WaitReceipt pipeline. Watch
// the block count: a block-per-transaction chain would mint hundreds of
// blocks for this fleet; the batch driver amortizes them by an order of
// magnitude.
func batchMiningDemo(faucetKey *secp256k1.PrivateKey, o obs) {
	fmt.Println("\n--- batch mining: one block per many sessions, receipts via WaitReceipt ---")
	ccfg := chain.DefaultConfig()
	applyExec(&ccfg)
	ccfg.AutoMine = false // batch policy: pool transactions, let the driver seal
	ccfg.Telemetry = o.reg
	ccfg.Tracer = o.tr
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): eth(1_000_000),
	})
	if err := c.StartMining(25*time.Millisecond, 256); err != nil {
		log.Fatal(err)
	}
	defer c.StopMining()
	net := whisper.NewNetwork(c.Now)
	h := hub.New(c, net, faucetKey, hub.Config{Workers: 16, Telemetry: o.reg, Tracer: o.tr})
	defer h.Stop()

	n := 20
	specs := make([]*hub.Spec, n)
	for i := range specs {
		specs[i] = hub.BettingSpec(16, 600, i%10 == 0)
	}
	reports := h.Run(specs)
	txs := 0
	for bn := uint64(1); bn <= c.Height(); bn++ {
		if b, err := c.BlockByNumber(bn); err == nil {
			txs += len(b.Transactions)
		}
	}
	disputes := 0
	for _, rep := range reports {
		if rep.Err != nil {
			log.Fatalf("batch session %d failed: %v", rep.ID, rep.Err)
		}
		if rep.Disputed {
			disputes++
		}
	}
	m := h.Metrics()
	fmt.Printf("  %d sessions (%d disputed and enforced) at %.1f sessions/sec\n",
		n, disputes, m.SessionsPerSec)
	fmt.Printf("  %d transactions in %d blocks (%.1f txs/block) — AutoMine would have minted %d blocks\n",
		txs, c.Height(), float64(txs)/float64(c.Height()), txs)
}

// durabilityDemo crashes a WAL-backed hub with a fraudulent submission's
// challenge window open, then recovers it and shows the lie still gets
// caught — the ROADMAP's "restarted hub resumes guarding open challenge
// windows" item, live.
func durabilityDemo(c *chain.Chain, net *whisper.Network, faucetKey *secp256k1.PrivateKey, o obs) {
	fmt.Println("\n--- durability: crash with an open fraudulent window, recover from the WAL ---")
	dir, err := os.MkdirTemp("", "hub-wal-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{Telemetry: o.reg})
	if err != nil {
		log.Fatal(err)
	}

	// The hub dies the moment the (adversarial) representative's
	// submission completes: the lie is on-chain, the window is open, and
	// no watchtower is left alive to guard it.
	var dh *hub.Hub
	dh = hub.New(c, net, faucetKey, hub.Config{
		Workers:   2,
		Store:     st,
		Telemetry: o.reg,
		Tracer:    o.tr,
		StageHook: func(sid uint64, s hub.Stage) bool {
			if s == hub.StageSubmitted {
				dh.Kill()
			}
			return !dh.Crashed()
		},
	})
	spec := hub.BettingSpec(64, 600, true)
	rep := dh.Submit(spec).Report()
	dh.Stop()
	fmt.Printf("  hub KILLED at stage %s, session %d: fraudulent submission on-chain, window open\n", rep.Stage, rep.ID)
	st.Close()

	// "Restart the process": reopen the WAL, recover, and let the tower
	// replay the chain events it missed from its durable cursor.
	st2, err := store.Open(dir, store.Options{Telemetry: o.reg})
	if err != nil {
		log.Fatal(err)
	}
	defer st2.Close()
	h2, rec, err := hub.Recover(st2, c, net, faucetKey, hub.Config{Workers: 2, Telemetry: o.reg, Tracer: o.tr}, hub.NewSpecRegistry(spec))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  recovered: WAL cursor at block %d, chain events replayed through block %d\n", rec.Cursor, rec.ReplayedTo)
	for _, s := range rec.Sessions {
		fmt.Printf("  session %d (%s): %s from stage %s\n", s.ID, s.Scenario, s.Outcome, s.Stage)
	}
	for _, tk := range rec.Resumed() {
		r := tk.Report()
		if r.Err != nil {
			log.Fatalf("recovered session failed: %v", r.Err)
		}
		verdict := "settled honestly"
		if r.Disputed {
			verdict = "lie caught — dispute enforced the true result"
		}
		fmt.Printf("  session %d terminal: stage=%s result=%d  %s\n", r.ID, r.Stage, r.Result, verdict)
	}
	m2 := h2.Metrics()
	// The dispute lands in one of two places, both correct: usually the
	// recovered tower files it (raised/won 1/1 after restart); rarely the
	// dying tower beat Kill to the submission block and the dispute is
	// already settled on-chain when recovery starts (raised 0 here).
	where := "filed by the RECOVERED tower"
	if m2.DisputesRaised == 0 {
		where = "already enforced before the crash (the dying tower won the race)"
	}
	fmt.Printf("  recovered tower: %d resumed, %d disputes raised / %d won after restart — %s\n",
		m2.SessionsRecovered, m2.DisputesRaised, m2.DisputesWon, where)
	h2.Stop()
}
