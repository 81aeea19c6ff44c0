package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/telemetry"
)

// The smoke test: every workload at toy size through the same code path
// and the same checker as the benchmark, one probe per module, and the
// manifest at the repo root held to the tables in this package. It does
// not run the benchmark and asserts no timing.

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in this package")

// toy shrinks a workload: few clients, short warm-up, rounds of 20
// sessions, epochs of 4, two crash cycles with early kills.
func toy(wl *workload) *workload {
	t := *wl
	if t.clients > 8 {
		t.clients = 8
	}
	t.warm, t.round = 8, 20
	if t.rollup != nil {
		rc := *t.rollup
		rc.Depth, rc.EpochCap = 2, 4
		t.rollup = &rc
	}
	if t.crash() {
		t.killMin, t.killMax, t.cycles = 5, 8, 2
	}
	return &t
}

func TestWorkloadsToySize(t *testing.T) {
	// A toy chain mines every 10 ms: the test checks the code path, and
	// would otherwise spend its time waiting for blocks.
	defer func(d time.Duration) { mineInterval = d }(mineInterval)
	mineInterval = 10 * time.Millisecond
	for _, full := range workloads {
		wl := toy(full)
		t.Run(wl.name, func(t *testing.T) {
			traced := wl.rollup != nil || wl.towers > 1 // exercise the traced path where it reads most
			var spans *spanLog
			if traced {
				spans = newSpanLog()
			}
			w, err := buildWorld(wl, 2, 7, traced, t.TempDir(), spans, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() { w.close() }()
			var c0 counters
			if traced {
				c0 = readCounters(w)
			}
			m, err := measure(w, 7)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range verifySessions(w, m.samples) {
				t.Error(bad)
			}
			tl := tallySamples(m.samples)
			if wl.crash() {
				for _, bad := range verifyCrash(&m.crash) {
					t.Error(bad)
				}
				if m.crash.Cycles != wl.cycles || len(m.recoverDur) != wl.cycles {
					t.Errorf("%d crash cycles, %d recover timings, want %d", m.crash.Cycles, len(m.recoverDur), wl.cycles)
				}
			} else {
				attempted := len(m.samples)
				if attempted != wl.round {
					t.Errorf("%d sessions in a round of %d", attempted, wl.round)
				}
				if want := attempted * wl.advOf / wl.blockLen; tl.lying != want {
					t.Errorf("%d of %d sessions lied, want exactly %d", tl.lying, attempted, want)
				}
				for _, bad := range verifyFleet(w, attempted+wl.warm, tl.lying+w.warmLying) {
					t.Error(bad)
				}
			}
			// Every end-to-end metric is reported by every workload and is
			// never zero: the driver divides by it. (A toy crash round
			// can end before any lying session finished un-resumed; a
			// full one holds several.)
			for name, v := range endToEndMetrics(m, 0.1) {
				if name == "dispute_latency_ms_p50" && wl.crash() && len(tl.disputeMs) == 0 {
					continue
				}
				if !(v.Value > 0) {
					t.Errorf("%s = %v, want > 0", name, v.Value)
				}
			}
			if !traced {
				return
			}
			layers := tracedMetrics(w, m, c0, readCounters(w))
			for _, d := range tracedLayers {
				if _, ok := layers[d.name]; !ok {
					t.Errorf("traced run does not report %s", d.name)
				}
			}
			if wl.rollup != nil {
				if got, want := layers["rollup.epochs"], float64(len(m.samples)/wl.rollup.EpochCap); got != want {
					t.Errorf("rollup.epochs = %v, want %v", got, want)
				}
				if layers["store.appends_per_session"] <= 0 {
					t.Error("WAL workload appended nothing")
				}
			}
			if wl.towers > 1 {
				if got, want := layers["federation.disputes_won"], float64(tl.lying); got != want {
					t.Errorf("federation.disputes_won = %v, want %v", got, want)
				}
			}
			// Spans: every child names a parent that exists in its trace.
			byID := map[uint64]span{}
			for _, s := range spans.spans {
				byID[s.ID] = s
			}
			children := 0
			for _, s := range spans.spans {
				if s.EndNs < s.StartNs {
					t.Errorf("span %d (%s) never ended", s.ID, s.Name)
				}
				if s.Parent == 0 {
					continue
				}
				children++
				if p, ok := byID[s.Parent]; !ok || p.Trace != s.Trace {
					t.Errorf("span %d (%s) has no parent %d in trace %d", s.ID, s.Name, s.Parent, s.Trace)
				}
			}
			if children < 2*len(m.samples) {
				t.Errorf("%d child spans for %d sessions, want Submit and Report under each", children, len(m.samples))
			}
			path := filepath.Join(t.TempDir(), "spans.jsonl")
			if err := spans.write(path); err != nil {
				t.Fatal(err)
			}
			if data, _ := os.ReadFile(path); strings.Count(string(data), "\n") != len(spans.spans) {
				t.Errorf("span file holds %d lines, want %d", strings.Count(string(data), "\n"), len(spans.spans))
			}
		})
	}
}

// TestProbePerModule runs the first probe of every module and all paper
// anchors; the anchors must match exactly.
func TestProbePerModule(t *testing.T) {
	only := map[string]bool{}
	seen := map[string]bool{}
	for _, pr := range probes {
		module, _, _ := strings.Cut(pr.def.name, ".")
		if !seen[module] || module == "experiments" {
			seen[module] = true
			only[pr.def.name] = true
		}
	}
	res, err := runProbes(nil, 0, only, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name := range only {
		if !(res[name].Value > 0) {
			t.Errorf("%s = %v, want > 0", name, res[name].Value)
		}
	}
	if err := checkAnchors(res); err != nil {
		t.Error(err)
	}
}

func TestScheduleIsSeededAndExact(t *testing.T) {
	wl := workloadByName("dispute_storm")
	a, b, c := newSchedule(wl, 5), newSchedule(wl, 5), newSchedule(wl, 6)
	same, lying := true, 0
	// b is asked out of order: the schedule may depend on the seed only.
	for _, i := range []int{399, 0, 200} {
		b.at(i)
	}
	for i := 0; i < 400; i++ {
		_, x := a.at(i)
		_, y := b.at(i)
		_, z := c.at(i)
		if x != y {
			t.Fatalf("index %d differs between two schedules of one seed", i)
		}
		same = same && x == z
		if x {
			lying++
		}
		if (i+1)%wl.blockLen == 0 && lying != (i+1)*wl.advOf/wl.blockLen {
			t.Fatalf("after %d indices %d lie, want exactly %d", i+1, lying, (i+1)*wl.advOf/wl.blockLen)
		}
	}
	if same {
		t.Error("seeds 5 and 6 drew the same schedule")
	}
}

// quantum is what a round's session count must be a multiple of, so that
// per-session counts repeat exactly: a whole number of adversarial blocks
// and, in rollup mode, of full epochs (no epoch may seal by age).
func (wl *workload) quantum() int {
	q := wl.blockLen
	if wl.rollup != nil {
		for q%wl.rollup.EpochCap != 0 {
			q += wl.blockLen
		}
	}
	return q
}

// TestWorkloadTable holds the round sizes to what makes per-session counts
// repeat: whole adversarial blocks and, in rollup mode, whole epochs — in
// the warm-up too, or set-up would wait for an epoch to seal by age.
func TestWorkloadTable(t *testing.T) {
	for _, wl := range workloads {
		if wl.crash() {
			if wl.cycles <= 0 || wl.cycles%2 != 0 {
				t.Errorf("%s: %d cycles, want a positive even number (kill points are drawn in pairs)", wl.name, wl.cycles)
			}
		} else if wl.round <= 0 || wl.round%wl.quantum() != 0 {
			t.Errorf("%s: round of %d is not a whole number of quanta of %d", wl.name, wl.round, wl.quantum())
		}
		if wl.warm < wl.clients {
			t.Errorf("%s: warm-up of %d leaves some of %d workers cold", wl.name, wl.warm, wl.clients)
		}
		if wl.rollup != nil && wl.warm%wl.rollup.EpochCap != 0 {
			t.Errorf("%s: warm-up of %d is not a whole number of epochs of %d", wl.name, wl.warm, wl.rollup.EpochCap)
		}
	}
}

func TestMedianOverRounds(t *testing.T) {
	defs := []metricDef{{"lat", "ms", "lower", 0}}
	var rounds []map[string]float64
	for _, v := range []float64{5, 1, 4, 2, 3} {
		rounds = append(rounds, map[string]float64{"lat": v})
	}
	if got := medianOverRounds(defs, rounds)["lat"]; got.Value != 3 || got.Unit != "ms" {
		t.Errorf("medianOverRounds = %+v, want 3 ms", got)
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.25: 2} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
	// The middle half of 8 samples is the 3rd to the 6th.
	if got := midmean([]float64{420, 360, 360, 420, 900, 360, 420, 60}); got != 390 {
		t.Errorf("midmean = %v, want 390", got)
	}
	if got := midmean(nil); got != 0 {
		t.Errorf("midmean of nothing = %v, want 0", got)
	}
}

// manifest mirrors BENCHMARK.json's exact key set.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestLayer  `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifestLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantManifest() manifest {
	m := manifest{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: runSeconds}
	for _, wl := range workloads {
		m.Workloads = append(m.Workloads, struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		}{wl.name, wl.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.name, d.unit, d.better, d.bound})
	}
	for _, d := range perLayer() {
		m.PerLayer = append(m.PerLayer, manifestLayer{d.name, d.unit, d.better})
	}
	return m
}

// TestManifest holds ../BENCHMARK.json to this package's tables, and the
// tables to the driver's limits. `go test -run TestManifest -update`
// rewrites the file.
func TestManifest(t *testing.T) {
	want := wantManifest()
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got manifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the tables in this package; run `go test -run TestManifest -update`\n got: %+v\nwant: %+v", got, want)
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, the driver takes 2 to 8", n)
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, the driver takes 1 to 16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, the driver takes 1 to 128", n)
	}
	names := map[string]bool{}
	setup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		if names[d.name] || len(d.name) > 64 || len(d.unit) > 16 {
			t.Errorf("metric %q: duplicate or over the driver's length limits", d.name)
		}
		names[d.name] = true
		if d.bound < 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", d.name, d.bound)
		}
		setup = setup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, wl := range workloads {
		if len(wl.why) > 200 || strings.Contains(wl.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.name, len(wl.why))
		}
	}
	// The driver's time budget: 4 + 22 runs per workload, all within 3420
	// s. A run ends with the round in progress when run_seconds are up; the
	// longest round (crash_recover's, set-up included) takes 4.7 s.
	if runs := 4 + 22*len(workloads); float64(runs)*(runSeconds+5) > 3420-2*90 {
		t.Errorf("%d runs of %d s plus the last round of each do not fit the driver's 3420 s with two builds", runs, runSeconds)
	}
}

func TestWindowQuantile(t *testing.T) {
	// Observations before the window must not count.
	h := telemetry.NewHistogram(telemetry.DurationBuckets())
	for i := 0; i < 100; i++ {
		h.Observe(0.5)
	}
	before := h.Snapshot()
	for i := 0; i < 10; i++ {
		h.Observe(0.0015) // the (0.8 ms, 1.6 ms] bucket
	}
	after := h.Snapshot()
	if got := windowQuantile(before, after, 0.5); got <= 0.0008 || got > 0.0016 {
		t.Errorf("windowed median = %v, want inside (0.0008, 0.0016]", got)
	}
	if got := windowQuantile(after, after, 0.5); got != 0 {
		t.Errorf("empty window median = %v, want 0", got)
	}
}
