package federation

import (
	"bufio"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hub"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// seriesReaders names, for every series the stack exports, who reads it: a
// test, a health check, a benchmark column, a CI grep or an example's
// printout. DESIGN.md §10 prints the same table. A series with no reader
// is deleted, not listed.
var seriesReaders = map[string]string{
	"chain_blocks_mined_total":         "CI telemetry smoke grep",
	"chain_txs_dropped_total":          "benchmark chain.txs_dropped",
	"chain_mine_seconds":               "benchmark chain.mine_ms_p50; CI grep",
	"chain_exec_seconds":               "benchmark chain.exec_ms_p50; CI grep",
	"chain_parallel_txs_total":         "TestParallelSameSenderSequence; CI grep",
	"chain_parallel_reexec_total":      "TestParallelSameSenderSequence",
	"keccak_permutes_total":            "CI grep (benchmark keccak.permutes_per_session reads the same counter)",
	"secp_glv_splits_total":            "CI grep (benchmark secp256k1.glv_splits_per_session reads the same counter)",
	"store_append_seconds":             "benchmark store.append_ms_p50; wal_append health check; CI grep",
	"store_fsync_seconds":              "benchmark store.fsync_ms_p50, store.fsyncs_per_session",
	"store_batch_frames":               "benchmark store.appends_per_session, store.frames_per_commit_mean",
	"store_bytes_total":                "benchmark store.bytes_per_session",
	"hub_sessions_started_total":       "TestLifecycleProperties (Hub.Metrics)",
	"hub_sessions_completed_total":     "examples/hub printout; CI grep; benchmark verify",
	"hub_sessions_failed_total":        "TestHubHonestLifecycle, TestLifecycleProperties",
	"hub_disputes_raised_total":        "benchmark hub.disputes_raised, federation.disputes_filed; examples/hub printout",
	"hub_disputes_won_total":           "benchmark hub.disputes_won, federation.disputes_won; examples/hub printout",
	"hub_disputes_deferred_total":      "benchmark hub.disputes_deferred",
	"hub_disputes_escalated_total":     "benchmark federation.escalations",
	"hub_submissions_seen_total":       "examples/hub printout; TestHubHonestLifecycle",
	"hub_sessions_recovered_total":     "examples/hub printout; TestCrashRecoveryAtEveryStage",
	"hub_sessions_abandoned_total":     "TestCrashRecoveryAtEveryStage",
	"hub_illegal_transitions_total":    "benchmark verify (must stay 0)",
	"hub_settle_txs_total":             "examples/hub printout; CI rollup smoke grep",
	"hub_settle_gas_total":             "examples/hub printout; CI rollup smoke grep",
	"hub_rollup_leaves_opened_total":   "benchmark rollup.leaves_opened; CI rollup smoke grep",
	"hub_stage_seconds":                "examples/hub printout; CI grep",
	"whisper_posts_total":              "benchmark whisper.posts_per_session; whisper_drops health check; CI grep",
	"whisper_dropped_total":            "benchmark whisper.dropped; whisper_drops health check",
	"rollup_epochs_total":              "benchmark rollup.epochs; TestRollupHonestBatch; CI grep",
	"rollup_leaves_total":              "benchmark rollup.leaves_per_epoch_mean; TestRollupHonestBatch; CI grep",
	"rollup_post_gas_total":            "benchmark rollup.post_gas_per_session; CI grep",
	"rollup_epoch_seconds":             "benchmark rollup.epoch_ms_p50",
	"federation_guards_exported_total": "TestFederationFleet",
	"federation_guards_adopted_total":  "benchmark federation.guards_adopted",
	"federation_sig_rejected_total":    "TestSignedGossip",
	"go_goroutines":                    "CI grep",
	"go_heap_alloc_bytes":              "TestRegisterRuntimeMetrics",
	"telemetry_flight_written_total":   "TestFlightRecorderMetricsAndTee; CI grep",
	"telemetry_flight_dropped_total":   "TestFlightRecorderMetricsAndTee",
	"telemetry_slo_breaches_total":     "TestHealthBreachCounter",
}

// TestSeriesHaveReaders builds the whole fleet on one registry — chain,
// whisper, WAL, a rollup hub, its tower and two joined towers, a flight
// recorder and the runtime gauges — runs a few sessions including a lie,
// and fails on any exported series base name the reader table lacks, and
// on any listed name the fleet never exports.
func TestSeriesHaveReaders(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.RegisterRuntimeMetrics()
	tr := telemetry.NewTracer(0)
	fr, err := telemetry.NewFlightRecorder(t.TempDir(), "hub")
	if err != nil {
		t.Fatal(err)
	}
	fr.RegisterMetrics(reg)
	tr.Tee(fr.Record)
	defer fr.Close()
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		t.Fatal(err)
	}
	ccfg := chain.DefaultConfig()
	ccfg.Telemetry, ccfg.Tracer = reg, tr
	c := chain.New(ccfg, map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	net := whisper.NewNetwork(c.Now)
	keys, members := memberKeys(t, 3)
	st, err := store.Open(t.TempDir(), store.Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	h := hub.New(c, net, faucetKey, hub.Config{Workers: 2, Store: st, Telemetry: reg, Tracer: tr,
		Rollup: &hub.RollupConfig{Depth: 4, EpochAge: 30 * time.Millisecond}})
	mk := func(i int) Config {
		cfg := fedConfig(c, net, keys[i], members)
		cfg.Telemetry, cfg.Tracer = reg, tr
		if i > 0 { // member 0 is the hub's tower, born armed with its sequencer
			cfg.Rollup = h.RollupHandles()
		}
		return cfg
	}
	hubTower, err := AttachHub(h, mk(0))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := Join(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Join(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range h.Run([]*hub.Spec{
		hub.BettingSpec(4, 600, false),
		hub.BettingSpec(4, 600, true),
		hub.AuctionSpec(600, false),
	}) {
		if rep.Err != nil {
			t.Fatalf("session %d (%s) failed: %v", rep.ID, rep.Scenario, rep.Err)
		}
	}
	h.Stop()
	hubTower.Stop()
	s1.Stop()
	s2.Stop()
	// The breach counter is registered on a component's first breach; one
	// throwaway check breaches once so the scrape carries it.
	reg.RegisterHealth("series_test", func() telemetry.ComponentHealth {
		return telemetry.Degraded("breaches so telemetry_slo_breaches_total is exported")
	})
	reg.HealthReport()

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	seen := map[string]bool{}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		seen[f[2]] = true
		if _, ok := seriesReaders[f[2]]; !ok {
			t.Errorf("series %s (%s) has no reader: give it one in seriesReaders and DESIGN.md §10, or delete it", f[2], f[3])
		}
	}
	for name := range seriesReaders {
		if !seen[name] {
			t.Errorf("series %s is listed but the fleet never exports it: delete its row here and in DESIGN.md §10", name)
		}
	}
}
