// Command benchmark is the repo's benchmark: five pinned fleet workloads
// driven through the system's public functions, end-to-end metrics with
// regression bounds, per-layer probes and a traced run. BENCHMARK.json at
// the repo root names everything it reports; README.md explains it.
//
//	go run -C benchmark .                                       every workload, untraced, -reps times
//	go run -C benchmark . -workload dispute_storm -seed 7       one run of one workload; last line is JSON
//	go run -C benchmark . -trace 1                              traced set: per-layer metrics + span files
//	go run -C benchmark . -probes                               layer probes only
//	go run -C benchmark . -check                                two untraced sets; fail if they disagree
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// maxProcs caps GOMAXPROCS so that a result is comparable between a
// 2-core and a 64-core host; the pinned value is part of the fingerprint.
const maxProcs = 4

// runSeconds is the manifest's run_seconds and the default run length.
const runSeconds = 20

// runResult is the last line a single-workload run prints.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func pinProcs() int {
	p := runtime.NumCPU()
	if p > maxProcs {
		p = maxProcs
	}
	runtime.GOMAXPROCS(p)
	return p
}

// outDir is benchmark/out whether the command runs from the repo root
// (the driver, run.sh) or from benchmark/ itself (go run -C benchmark).
func outDir() string {
	if _, err := os.Stat(filepath.Join("benchmark", "go.mod")); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// scratchDir makes a fresh directory under outDir for WAL files and the
// like; the caller removes it.
func scratchDir(prefix string) (string, error) {
	out := outDir()
	if err := os.MkdirAll(out, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(out, prefix)
}

func main() {
	var (
		wlName  = flag.String("workload", "", "run this one workload in this process and print its result as a last line of JSON (default: run all, each in a child process)")
		seed    = flag.Int64("seed", 1, "workload seed: which sessions lie, and crash_recover's kill points")
		seconds = flag.Float64("seconds", runSeconds, "how long a run starts new rounds for (set-up + fixed work each); it ends with the round in progress")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		reps    = flag.Int("reps", 3, "repetitions per workload when running all (median, min and max are reported)")
		probes  = flag.Bool("probes", false, "run the layer probes only")
		check   = flag.Bool("check", false, "run two untraced sets back to back and exit non-zero if their medians disagree beyond the metrics' own bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	switch {
	case *probes:
		err = printProbes()
	case *wlName != "":
		err = runOne(*wlName, *seed, *seconds, *trace == 1)
	case *check:
		err = runCheck(*seed, *seconds, *reps)
	default:
		_, err = runAll(*seed, *seconds, *reps, *trace == 1, true)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne is a single run of one workload in this process: rounds of
// set-up + fixed work on a fresh world, started until `seconds` have
// passed, each checked for correctness, pooled into the run's metrics.
func runOne(name string, seed int64, seconds float64, traced bool) error {
	wl := workloadByName(name)
	if wl == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	procs := pinProcs()
	scratch, err := scratchDir("run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	var spans *spanLog
	if traced {
		spans = newSpanLog()
	}
	total := &measured{}
	var setups []float64
	var layers []map[string]float64 // traced runs: each round's per-layer values
	attempted := 0
	start := time.Now()
	for r := 0; r == 0 || time.Since(start).Seconds() < seconds; r++ {
		// Every round draws its own schedule and kill points from the seed.
		rd, err := runRound(wl, procs, seed*1_000_003+int64(r), traced, scratch, spans, uint64(r)<<32)
		if err != nil {
			return fmt.Errorf("%s: round %d: %w", name, r, err)
		}
		total.add(rd.m)
		setups = append(setups, rd.setupS)
		layers = append(layers, rd.layers)
		attempted += rd.attempted
	}

	res := runResult{Correct: true, Attempted: attempted}
	defs := endToEnd
	if traced {
		res.Metrics = medianOverRounds(tracedLayers, layers)
		psp := spans.begin(0, 0, "probes")
		pm, err := runProbes(spans, psp.id, nil, scratch)
		psp.end()
		if err != nil {
			return err
		}
		for k, v := range pm {
			res.Metrics[k] = v
		}
		defs = perLayer()
		if err := spans.write(filepath.Join(outDir(), name+".spans.jsonl")); err != nil {
			return err
		}
	} else {
		res.Metrics = endToEndMetrics(total, median(setups))
	}
	t := tallySamples(total.samples)
	det := runDetail{
		Workload: name, Seed: seed, Clients: wl.clients, Rounds: len(setups), WindowSeconds: total.wall.Seconds(),
		Sessions: t.completed, Lying: t.lying, HonestSamples: len(t.honestMs), DisputeSamples: len(t.disputeMs),
		SetupSeconds: setups,
	}
	if wl.crash() {
		det.Crash = &total.crash
	}
	if data, err := json.Marshal(det); err != nil {
		return err
	} else if err := os.WriteFile(detailPath(name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s  seed=%d  GOMAXPROCS=%d  clients=%d  rounds=%d  measured=%.2fs  sessions=%d (lying %d)  honest samples=%d  dispute samples=%d\n",
		name, seed, procs, det.Clients, det.Rounds, det.WindowSeconds, det.Sessions, det.Lying, det.HonestSamples, det.DisputeSamples)
	if c := det.Crash; c != nil {
		fmt.Printf("  crash cycles=%d  accepted=%d  resumed=%d  abandoned=%d  lost=%d\n", c.Cycles, c.Accepted, c.Resumed, c.Abandoned, c.Lost)
	}
	for _, d := range defs {
		fmt.Printf("  %-40s %16.4f %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// round is what one round hands back to runOne.
type round struct {
	m         *measured
	setupS    float64
	attempted int
	layers    map[string]float64 // traced runs only
}

// runRound is one round: build and warm a fresh world (timed: the round's
// set-up), serve the workload's fixed work, and check it. A round with any
// failure is an error, so a result line always says failed 0.
func runRound(wl *workload, procs int, seed int64, traced bool, scratch string, spans *spanLog, traceBase uint64) (*round, error) {
	sp := spans.begin(0, 0, "setup")
	t0 := time.Now()
	w, err := buildWorld(wl, procs, seed, traced, scratch, spans, traceBase)
	rd := &round{setupS: time.Since(t0).Seconds()}
	sp.end()
	if err != nil {
		return nil, err
	}
	defer w.close()
	// The previous round's world is garbage by now; collect it here rather
	// than inside the window.
	runtime.GC()

	var c0 counters
	if traced {
		c0 = readCounters(w)
	}
	sp = spans.begin(0, 0, "measure")
	rd.m, err = measure(w, seed)
	sp.end()
	if err != nil {
		return nil, err
	}
	m := rd.m

	// Correctness: per session, then the program's own counters.
	t := tallySamples(m.samples)
	bad := verifySessions(w, m.samples)
	failed := len(bad)
	for _, s := range m.samples {
		if !s.crashed() {
			rd.attempted++
		}
	}
	if wl.crash() {
		bad = append(bad, verifyCrash(&m.crash)...)
		failed += m.crash.Lost
		rd.attempted += m.crash.Abandoned + m.crash.Lost
	} else {
		bad = append(bad, verifyFleet(w, rd.attempted+wl.warm, t.lying+w.warmLying)...)
	}
	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "FAILED:", b)
		}
		return nil, fmt.Errorf("%d of %d sessions failed, %d checks failed", failed, rd.attempted, len(bad))
	}
	if traced {
		rd.layers = tracedMetrics(w, m, c0, readCounters(w))
	}
	return rd, nil
}
