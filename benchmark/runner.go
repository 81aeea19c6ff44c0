package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// The runner is the human-facing mode: every workload, each run in a
// fresh child process (the command re-executes itself with -workload) so
// heap, trie growth and peak RSS do not leak between workloads, repeated
// -reps times, summarised as median/min/max with the host's fingerprint.

// fingerprint is what a result is only comparable under.
type fingerprint struct {
	GitRev         string  `json:"git_rev"`
	GitDirty       bool    `json:"git_dirty"`
	NumCPU         int     `json:"nproc"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	CPUModel       string  `json:"cpu_model"`
	GoVersion      string  `json:"go_version"`
	Seed           int64   `json:"seed"`
	Seconds        float64 `json:"run_seconds"`
	Reps           int     `json:"reps"`
	MessageDelayMs float64 `json:"injected_message_delay_ms"` // the in-process whisper bus: always 0
	When           string  `json:"when"`
}

func hostFingerprint(seed int64, seconds float64, reps int) fingerprint {
	fp := fingerprint{
		GitRev: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: pinProcs(),
		CPUModel: "unknown", GoVersion: runtime.Version(),
		Seed: seed, Seconds: seconds, Reps: reps,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	// Plain git, if this is a git checkout at all (the driver's is not).
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		fp.GitRev = strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
			fp.GitDirty = len(bytes.TrimSpace(st)) > 0
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// summary is one metric of one workload over the repetitions.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Runs   []float64 `json:"runs"`
}

// workloadResult is one workload's repetitions. Details holds, per
// repetition, the sample counts behind each percentile and the crash
// ledger (see runDetail).
type workloadResult struct {
	Metrics map[string]*summary `json:"metrics"`
	Details []runDetail         `json:"details"`
}

type resultSet struct {
	Fingerprint fingerprint                `json:"fingerprint"`
	Traced      bool                       `json:"traced"`
	Workloads   map[string]*workloadResult `json:"workloads"`
}

// runDetail is what a single run writes beside its result line, for the
// runner: the contract fixes the result line's keys, and these do not
// fit in it.
type runDetail struct {
	Workload       string       `json:"workload"`
	Seed           int64        `json:"seed"`
	Clients        int          `json:"clients"`
	Rounds         int          `json:"rounds"`
	WindowSeconds  float64      `json:"window_seconds"` // measured windows of all rounds, set-up excluded
	Sessions       int          `json:"sessions"`
	Lying          int          `json:"lying"`
	HonestSamples  int          `json:"honest_latency_samples"`
	DisputeSamples int          `json:"dispute_latency_samples"`
	SetupSeconds   []float64    `json:"setup_seconds"`
	Crash          *crashLedger `json:"crash,omitempty"`
}

func detailPath(workload string) string {
	return filepath.Join(outDir(), workload+".run.json")
}

// runChild runs one workload once in a child process and parses its
// result line.
func runChild(self, workload string, seed int64, seconds float64, traced bool) (*runResult, *runDetail, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", trace)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", workload, err)
	}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var res runResult
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	var det runDetail
	data, err := os.ReadFile(detailPath(workload))
	if err == nil {
		err = json.Unmarshal(data, &det)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: run detail: %w", workload, err)
	}
	return &res, &det, nil
}

// runAll runs every workload reps times and prints and stores the
// summary. The set is also written to <out>/results[.traced].json.
func runAll(seed int64, seconds float64, reps int, traced, save bool) (*resultSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	if traced {
		reps = 1 // the traced set is one run per workload by definition
	}
	set := &resultSet{Fingerprint: hostFingerprint(seed, seconds, reps), Traced: traced, Workloads: map[string]*workloadResult{}}
	defs := endToEnd
	if traced {
		defs = perLayer()
	}
	for _, wl := range workloads {
		wr := &workloadResult{Metrics: map[string]*summary{}}
		set.Workloads[wl.name] = wr
		for r := 0; r < reps; r++ {
			fmt.Fprintf(os.Stderr, "running %s (%d/%d)\n", wl.name, r+1, reps)
			res, det, err := runChild(self, wl.name, seed, seconds, traced)
			if err != nil {
				return nil, err
			}
			wr.Details = append(wr.Details, *det)
			for _, d := range defs {
				s := wr.Metrics[d.name]
				if s == nil {
					s = &summary{Unit: d.unit}
					wr.Metrics[d.name] = s
				}
				s.Runs = append(s.Runs, res.Metrics[d.name].Value)
			}
		}
		for _, s := range wr.Metrics {
			s.Median, s.Min, s.Max = median(s.Runs), quantile(s.Runs, 0), quantile(s.Runs, 1)
		}
	}
	printSet(set, defs)
	if traced {
		printOverhead(set)
	}
	if save {
		name := "results.json"
		if traced {
			name = "results.traced.json"
		}
		data, err := json.MarshalIndent(set, "", "  ")
		if err != nil {
			return nil, err
		}
		path := filepath.Join(outDir(), name)
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Printf("\nwritten: %s\n", path)
	}
	return set, nil
}

func printSet(set *resultSet, defs []metricDef) {
	fp := set.Fingerprint
	dirty := ""
	if fp.GitDirty {
		dirty = "+dirty"
	}
	fmt.Printf("\nhost: %s, %d cores, GOMAXPROCS=%d, %s; rev %s%s; seed %d; run length %.0fs; reps %d; injected message delay 0 ms\n",
		fp.CPUModel, fp.NumCPU, fp.GOMAXPROCS, fp.GoVersion, fp.GitRev, dirty, fp.Seed, fp.Seconds, fp.Reps)
	for _, wl := range workloads {
		wr := set.Workloads[wl.name]
		det := wr.Details[len(wr.Details)-1]
		fmt.Printf("\n%s  (clients=%d; last run: %d sessions, %d honest and %d dispute latency samples)\n",
			wl.name, det.Clients, det.Sessions, det.HonestSamples, det.DisputeSamples)
		fmt.Printf("  %-44s %-8s %16s %16s %16s\n", "metric", "unit", "median", "min", "max")
		for _, d := range defs {
			s := wr.Metrics[d.name]
			fmt.Printf("  %-44s %-8s %16.4f %16.4f %16.4f\n", d.name, s.Unit, s.Median, s.Min, s.Max)
		}
	}
}

// printOverhead reports telemetry.overhead_pct: the traced set's
// throughput against the stored untraced set's. Informational; ROADMAP's
// bound is 2%.
func printOverhead(traced *resultSet) {
	data, err := os.ReadFile(filepath.Join(outDir(), "results.json"))
	var untraced resultSet
	if err == nil {
		err = json.Unmarshal(data, &untraced)
	}
	if err != nil {
		fmt.Println("\ntelemetry.overhead_pct: no untraced set stored yet; run without -trace first")
		return
	}
	fmt.Println()
	for _, wl := range workloads {
		u, t := untraced.Workloads[wl.name], traced.Workloads[wl.name]
		if u == nil || u.Metrics["sessions_per_s"] == nil {
			continue
		}
		off, on := u.Metrics["sessions_per_s"].Median, t.Metrics["telemetry.traced_sessions_per_s"].Median
		fmt.Printf("  %-20s telemetry.overhead_pct %7.2f %%  (untraced %.2f/s, traced %.2f/s)\n", wl.name, 100*(1-on/off), off, on)
	}
}

// runCheck is `-check`: two complete untraced sets back to back. It fails
// when a metric's two medians differ by more than the metric's own bound,
// or when a paper anchor differs at all between two probe runs.
func runCheck(seed int64, seconds float64, reps int) error {
	a, err := runAll(seed, seconds, reps, false, false)
	if err != nil {
		return err
	}
	b, err := runAll(seed, seconds, reps, false, false)
	if err != nil {
		return err
	}
	var bad []string
	for _, wl := range workloads {
		for _, d := range endToEnd {
			x, y := a.Workloads[wl.name].Metrics[d.name].Median, b.Workloads[wl.name].Metrics[d.name].Median
			if diff := math.Abs(y-x) / x; diff > d.bound {
				bad = append(bad, fmt.Sprintf("%-18s %-26s %14.4f vs %14.4f %s: differ by %.1f%%, bound %.1f%%",
					wl.name, d.name, x, y, d.unit, 100*diff, 100*d.bound))
			}
		}
	}
	anchors := map[string]bool{}
	for name := range anchorWant {
		anchors[name] = true
	}
	dir, err := scratchDir("check-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for set := 1; set <= 2; set++ {
		res, err := runProbes(nil, 0, anchors, dir)
		if err == nil {
			err = checkAnchors(res)
		}
		if err != nil {
			bad = append(bad, fmt.Sprintf("set %d: %v", set, err))
		}
	}
	if len(bad) > 0 {
		fmt.Println("\ncheck FAILED: the two sets disagree")
		for _, b := range bad {
			fmt.Println(" ", b)
		}
		return fmt.Errorf("%d metrics disagree between two sets of the same code", len(bad))
	}
	fmt.Println("\ncheck passed: the two sets agree within every metric's bound, anchors exactly")
	return nil
}
