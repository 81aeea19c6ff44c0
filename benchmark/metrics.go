package main

import (
	"math"
	"sort"
	"time"

	"onoffchain/internal/federation"
	"onoffchain/internal/hub"
	"onoffchain/internal/telemetry"
)

// metricDef names one metric of BENCHMARK.json. bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them (the driver's contract), which is why all five
// workloads mix honest and lying sessions. A bound is one number per
// metric, so it has to clear the noisiest workload at least three times
// over (README, "Measured spread"): sessions_per_s on crash_recover and
// offchain_heavy spreads by 4-5% over ten seeds, and crash_recover's
// per-session counts by 3%, because how many torn sessions' gas never
// becomes a completed session depends on the seeded kill points.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"sessions_per_s", "1/s", "higher", 0.25},
	{"honest_latency_ms_p50", "ms", "lower", 0.25},
	{"dispute_latency_ms_p50", "ms", "lower", 0.25},
	{"gas_per_session", "gas", "lower", 0.10},
	{"onchain_txs_per_session", "count", "lower", 0.10},
	{"public_bytes_per_session", "bytes", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (xs need not be sorted; it is copied). 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midmean is the mean of the middle half of xs (the lowest and the highest
// quarter dropped): the centre of a latency distribution, like the median,
// but continuous where the median is not. Latencies here are whole numbers
// of block intervals. Where one step holds three quarters of the sessions
// midmean and median agree; where two steps hold about half each — the
// private draws of offchain_heavy end just before a block on a quiet host
// and just after it on a busy one — a median lands on either, a whole
// interval apart, while the midmean moves with the share. 0 for no samples.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := s[len(s)/4 : len(s)-len(s)/4]
	var sum float64
	for _, x := range mid {
		sum += x
	}
	return sum / float64(len(mid))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally splits a window's samples the way the metrics need them.
type tally struct {
	completed int       // sessions that reached a terminal stage, resumed ones included
	lying     int       // of those, submitted with an adversarial spec and not resumed
	honestMs  []float64 // Submit→Report, honest fresh sessions
	disputeMs []float64 // lie on chain → true result enforced, lying fresh sessions
}

func tallySamples(samples []*sample) tally {
	var t tally
	for _, s := range samples {
		if s.err != nil {
			continue
		}
		t.completed++
		if s.recovered {
			continue // a resumed ticket's clock started at Recover, not at Submit
		}
		if s.adversarial {
			t.lying++
			// Latency[StageDisputed] and [StageResolved] share one origin
			// (the barrier after the submission's receipt); the later one
			// is the whole interval.
			t.disputeMs = append(t.disputeMs, ms(s.stages[hub.StageResolved]))
		} else {
			t.honestMs = append(t.honestMs, ms(s.latency))
		}
	}
	return t
}

// endToEndMetrics turns a run's measured windows, pooled over its rounds,
// into the end-to-end metric set: latencies are midmeans over every
// session of the run, rates and per-session counts are totals over totals,
// setupS is the median of the rounds' set-ups.
func endToEndMetrics(m *measured, setupS float64) map[string]value {
	t := tallySamples(m.samples)
	n := float64(t.completed)
	v := map[string]float64{
		"setup_s":                  setupS,
		"sessions_per_s":           n / m.wall.Seconds(),
		"honest_latency_ms_p50":    midmean(t.honestMs),
		"dispute_latency_ms_p50":   midmean(t.disputeMs),
		"gas_per_session":          float64(m.gas) / n,
		"onchain_txs_per_session":  float64(m.txs) / n,
		"public_bytes_per_session": float64(m.calldata) / n,
		"peak_rss_mb":              peakRSSMB(),
	}
	out := make(map[string]value, len(endToEnd))
	for _, d := range endToEnd {
		out[d.name] = value{v[d.name], d.unit}
	}
	return out
}

// medianOverRounds reduces the traced metrics, which are computed per
// round (each round's world has its own telemetry registry), to the run's:
// the median of the rounds' values. Rounds do identical work, so a count
// reads the same in every one of them.
func medianOverRounds(defs []metricDef, rounds []map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		xs := make([]float64, 0, len(rounds))
		for _, r := range rounds {
			xs = append(xs, r[d.name])
		}
		out[d.name] = value{median(xs), d.unit}
	}
	return out
}

// tracedLayers are the per-layer metrics a traced run of a workload
// produces, in BENCHMARK.json order. All are read from what the program
// already exports, at the window's boundaries.
var tracedLayers = []metricDef{
	{"hub.stage_split_ms_p50", "ms", "lower", 0},
	{"hub.stage_deployed_ms_p50", "ms", "lower", 0},
	{"hub.stage_signed_ms_p50", "ms", "lower", 0},
	{"hub.stage_executed_ms_p50", "ms", "lower", 0},
	{"hub.stage_submitted_ms_p50", "ms", "lower", 0},
	{"hub.stage_settled_ms_p50", "ms", "lower", 0},
	{"hub.stage_rolled-up_ms_p50", "ms", "lower", 0},
	{"hub.stage_disputed_ms_p50", "ms", "lower", 0},
	{"hub.stage_resolved_ms_p50", "ms", "lower", 0},
	{"cpu_ms_per_session", "ms", "lower", 0},
	{"hub.cpu_utilisation", "ratio", "higher", 0},
	{"hub.allocs_per_session", "count", "lower", 0},
	{"hub.disputes_raised", "count", "lower", 0},
	{"hub.disputes_won", "count", "higher", 0},
	{"hub.disputes_deferred", "count", "lower", 0},
	{"hub.recover_sessions_folded", "count", "lower", 0},
	{"hub.recover_resumed", "count", "higher", 0},
	{"hub.recover_abandoned", "count", "lower", 0},
	{"recover_ms_mean", "ms", "lower", 0},
	{"failed_share", "ratio", "lower", 0},
	{"honest_latency_ms_p95", "ms", "lower", 0},
	{"dispute_latency_ms_p95", "ms", "lower", 0},
	{"chain.blocks_per_session", "count", "lower", 0},
	{"chain.txs_per_block_mean", "count", "higher", 0},
	{"chain.mine_ms_p50", "ms", "lower", 0},
	{"chain.exec_ms_p50", "ms", "lower", 0},
	{"chain.txs_dropped", "count", "lower", 0},
	{"keccak.permutes_per_session", "count", "lower", 0},
	{"secp256k1.glv_splits_per_session", "count", "lower", 0},
	{"store.appends_per_session", "count", "lower", 0},
	{"store.bytes_per_session", "bytes", "lower", 0},
	{"store.frames_per_commit_mean", "count", "higher", 0},
	{"store.append_ms_p50", "ms", "lower", 0},
	{"store.fsyncs_per_session", "count", "lower", 0},
	{"store.fsync_ms_p50", "ms", "lower", 0},
	{"whisper.posts_per_session", "count", "lower", 0},
	{"whisper.dropped", "count", "lower", 0},
	{"rollup.epochs", "count", "lower", 0},
	{"rollup.leaves_per_epoch_mean", "count", "higher", 0},
	{"rollup.epoch_ms_p50", "ms", "lower", 0},
	{"rollup.post_gas_per_session", "gas", "lower", 0},
	{"rollup.leaves_opened", "count", "lower", 0},
	{"federation.guards_adopted", "count", "higher", 0},
	{"federation.vouches_honored", "count", "higher", 0},
	{"federation.intents_seen", "count", "lower", 0},
	{"federation.escalations", "count", "lower", 0},
	{"federation.disputes_filed", "count", "lower", 0},
	{"federation.disputes_won", "count", "higher", 0},
	{"federation.won_per_filed", "ratio", "higher", 0},
	{"federation.heartbeats_sent", "count", "lower", 0},
	{"telemetry.traced_sessions_per_s", "1/s", "higher", 0},
}

// counters is a point-in-time reading of everything the traced metrics
// subtract across the window.
type counters struct {
	series map[string]float64 // telemetry registry snapshot
	hists  map[string]telemetry.HistogramSnapshot
	hub    hub.Snapshot
	fed    federation.Snapshot // summed over the fleet
}

// histograms the traced metrics take a windowed median of.
var windowHists = []struct {
	key, name string
	labels    []string
}{
	{"chain_mine", "chain_mine_seconds", nil},
	{"chain_exec", "chain_exec_seconds", []string{"exec", "serial"}},
	{"store_append", "store_append_seconds", nil},
	{"store_fsync", "store_fsync_seconds", nil},
	{"rollup_epoch", "rollup_epoch_seconds", nil},
}

func readCounters(w *world) counters {
	c := counters{series: w.reg.Snapshot(), hists: map[string]telemetry.HistogramSnapshot{}, hub: w.hub.Metrics()}
	for _, h := range windowHists {
		c.hists[h.key] = w.reg.Histogram(h.name, telemetry.DurationBuckets(), h.labels...).Snapshot()
	}
	for _, t := range w.towers {
		m := t.Metrics()
		c.fed.GuardsAdopted += m.GuardsAdopted
		c.fed.VouchesHonored += m.VouchesHonored
		c.fed.IntentsSeen += m.IntentsSeen
		c.fed.Escalations += m.Escalations
		c.fed.DisputesFiled += m.DisputesFiled
		c.fed.DisputesWon += m.DisputesWon
		c.fed.HeartbeatsSent += m.HeartbeatsSent
	}
	return c
}

// windowQuantile is the q-quantile of the observations a histogram took
// between two snapshots, interpolated inside the owning bucket like
// telemetry.Histogram.Quantile.
func windowQuantile(before, after telemetry.HistogramSnapshot, q float64) float64 {
	total := float64(after.Count - before.Count)
	if total == 0 {
		return 0
	}
	rank := q * total
	lower, prevCum := 0.0, 0.0
	for i, b := range after.Buckets {
		cum := float64(b.Count)
		if i < len(before.Buckets) {
			cum -= float64(before.Buckets[i].Count)
		}
		if cum >= rank && cum > prevCum {
			if math.IsInf(b.UpperBound, 1) {
				return lower
			}
			return lower + (b.UpperBound-lower)*((rank-prevCum)/(cum-prevCum))
		}
		lower, prevCum = b.UpperBound, cum
	}
	return lower
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedMetrics turns one round's traced window into the per-layer metric
// set.
func tracedMetrics(w *world, m *measured, c0, c1 counters) map[string]float64 {
	t := tallySamples(m.samples)
	n := float64(t.completed)
	d := func(series string) float64 { return c1.series[series] - c0.series[series] }
	p50ms := func(key string) float64 { return 1e3 * windowQuantile(c0.hists[key], c1.hists[key], 0.5) }
	stage := func(s hub.Stage) float64 {
		var xs []float64
		for _, sm := range m.samples {
			if d, ok := sm.stages[s]; ok && sm.err == nil {
				xs = append(xs, ms(d))
			}
		}
		return median(xs)
	}
	var recoverMs float64
	for _, r := range m.recoverDur {
		recoverMs += ms(r) / float64(len(m.recoverDur))
	}
	// Hub counters live in the traced world's shared registry, so they
	// accumulate across crash_recover's generations and subtract cleanly.
	raised := float64(c1.hub.DisputesRaised - c0.hub.DisputesRaised)
	won := float64(c1.hub.DisputesWon - c0.hub.DisputesWon)
	deferred := float64(c1.hub.DisputesDeferred - c0.hub.DisputesDeferred)
	filed, fwon := float64(c1.fed.DisputesFiled-c0.fed.DisputesFiled), float64(c1.fed.DisputesWon-c0.fed.DisputesWon)
	frames := d("store_batch_frames_sum")
	v := map[string]float64{
		"hub.stage_split_ms_p50":           stage(hub.StageSplit),
		"hub.stage_deployed_ms_p50":        stage(hub.StageDeployed),
		"hub.stage_signed_ms_p50":          stage(hub.StageSigned),
		"hub.stage_executed_ms_p50":        stage(hub.StageExecuted),
		"hub.stage_submitted_ms_p50":       stage(hub.StageSubmitted),
		"hub.stage_settled_ms_p50":         stage(hub.StageSettled),
		"hub.stage_rolled-up_ms_p50":       stage(hub.StageRolledUp),
		"hub.stage_disputed_ms_p50":        stage(hub.StageDisputed),
		"hub.stage_resolved_ms_p50":        stage(hub.StageResolved),
		"cpu_ms_per_session":               ms(m.cpu) / n,
		"hub.cpu_utilisation":              m.cpu.Seconds() / (m.wall.Seconds() * float64(w.procs)),
		"hub.allocs_per_session":           float64(m.mallocs) / n,
		"hub.disputes_raised":              raised,
		"hub.disputes_won":                 won,
		"hub.disputes_deferred":            deferred,
		"hub.recover_sessions_folded":      float64(m.crash.Folded),
		"hub.recover_resumed":              float64(m.crash.Resumed),
		"hub.recover_abandoned":            float64(m.crash.Abandoned),
		"recover_ms_mean":                  recoverMs,
		"failed_share":                     0, // a run with any failed session prints no metrics at all
		"honest_latency_ms_p95":            quantile(t.honestMs, 0.95),
		"dispute_latency_ms_p95":           quantile(t.disputeMs, 0.95),
		"chain.blocks_per_session":         float64(m.blocks) / n,
		"chain.txs_per_block_mean":         ratio(float64(m.txs), float64(m.blocks)),
		"chain.mine_ms_p50":                p50ms("chain_mine"),
		"chain.exec_ms_p50":                p50ms("chain_exec"),
		"chain.txs_dropped":                d("chain_txs_dropped_total"),
		"keccak.permutes_per_session":      float64(m.permutes) / n,
		"secp256k1.glv_splits_per_session": float64(m.glvSplits) / n,
		"store.appends_per_session":        frames / n,
		"store.bytes_per_session":          d("store_bytes_total") / n,
		"store.frames_per_commit_mean":     ratio(frames, d("store_batch_frames_count")),
		"store.append_ms_p50":              p50ms("store_append"),
		"store.fsyncs_per_session":         d("store_fsync_seconds_count") / n,
		"store.fsync_ms_p50":               p50ms("store_fsync"),
		"whisper.posts_per_session":        d("whisper_posts_total") / n,
		"whisper.dropped":                  d(`whisper_dropped_total{reason="expired"}`) + d(`whisper_dropped_total{reason="backpressure"}`),
		"rollup.epochs":                    d("rollup_epochs_total"),
		"rollup.leaves_per_epoch_mean":     ratio(d("rollup_leaves_total"), d("rollup_epochs_total")),
		"rollup.epoch_ms_p50":              p50ms("rollup_epoch"),
		"rollup.post_gas_per_session":      d("rollup_post_gas_total") / n,
		"rollup.leaves_opened":             d("hub_rollup_leaves_opened_total"),
		"federation.guards_adopted":        float64(c1.fed.GuardsAdopted - c0.fed.GuardsAdopted),
		"federation.vouches_honored":       float64(c1.fed.VouchesHonored - c0.fed.VouchesHonored),
		"federation.intents_seen":          float64(c1.fed.IntentsSeen - c0.fed.IntentsSeen),
		"federation.escalations":           float64(c1.fed.Escalations - c0.fed.Escalations),
		"federation.disputes_filed":        filed,
		"federation.disputes_won":          fwon,
		"federation.won_per_filed":         ratio(fwon, filed),
		"federation.heartbeats_sent":       float64(c1.fed.HeartbeatsSent - c0.fed.HeartbeatsSent),
		// Against the untraced run's sessions_per_s this is the cost of
		// telemetry itself (telemetry.overhead_pct in the runner's output).
		"telemetry.traced_sessions_per_s": n / m.wall.Seconds(),
	}
	return v
}
