package federation

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
)

// TestDisputeTraceCrossTower is the distributed-tracing headline: one
// adversarial session, admitted at a hub that dies at submission, must
// leave a SINGLE trace whose spans — merged from the hub's tracer and the
// two standalone backups' tracers, exactly as cmd/trace merges flight
// files after the cross-process split — cover the hub, chain, whisper,
// federation and tower layers across all three processes, with every
// parent edge resolvable (no orphans) and the hub's admission span as the
// one root.
func TestDisputeTraceCrossTower(t *testing.T) {
	c, net, faucetKey := fedWorld(t, "auto")
	keys, members := memberKeys(t, 3)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// One tracer per logical process, like one flight recorder per process.
	trHub := telemetry.NewTracer(0)
	trT1 := telemetry.NewTracer(0)
	trT2 := telemetry.NewTracer(0)

	var h *hub.Hub
	var killOnce sync.Once
	h = hub.New(c, net, faucetKey, hub.Config{Workers: 2, Store: st, Tracer: trHub,
		StageHook: func(sid uint64, s hub.Stage) bool {
			switch s {
			case hub.StageExecuted:
				// The owner's tower is dead when the lie lands; under AutoMine
				// the submission is mined before the next hook runs.
				h.Watchtower().Halt()
			case hub.StageSubmitted:
				killOnce.Do(h.Kill)
			}
			return !h.Crashed()
		}})
	hcfg := fedConfig(c, net, keys[0], members)
	hcfg.Tracer = trHub
	hubTower, err := AttachHub(h, hcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg1 := fedConfig(c, net, keys[1], members)
	cfg1.Tracer = trT1
	s1, err := Join(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Stop()
	cfg2 := fedConfig(c, net, keys[2], members)
	cfg2.Tracer = trT2
	s2, err := Join(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Stop()

	tk := h.Submit(hub.BettingSpec(4, 600, true))
	tid := tk.TraceCtx().TraceID
	if tid == 0 {
		t.Fatal("admission minted no trace id")
	}
	rep := tk.Report()
	if !errors.Is(rep.Err, hub.ErrCrashed) {
		t.Fatalf("session should have crashed at submitted, got stage=%s err=%v", rep.Stage, rep.Err)
	}
	h.Stop()
	hubTower.Kill()
	hubTower.Stop()

	contract := submittedContract(t, c)
	waitUntil(t, 20*time.Second, "a backup tower's dispute", func() bool {
		return len(c.FilterLogs(chain.FilterQuery{Address: &contract, Topic: &hybrid.TopicDisputeResolved})) > 0
	})
	// Both backups adopted the dead hub's guard export; their adopt spans
	// land a beat after the chain event, as does the filer's dispute span.
	hasSpan := func(tr *telemetry.Tracer, layer, name string) bool {
		for _, s := range tr.ByTrace(tid) {
			if s.Layer == layer && strings.HasPrefix(s.Name, name) {
				return true
			}
		}
		return false
	}
	waitUntil(t, 10*time.Second, "both backups' adopt spans", func() bool {
		return hasSpan(trT1, "federation", "adopt") && hasSpan(trT2, "federation", "adopt")
	})
	waitUntil(t, 10*time.Second, "the filer's dispute span", func() bool {
		return hasSpan(trT1, "tower", "dispute") || hasSpan(trT2, "tower", "dispute")
	})

	// Merge the three processes' views, exactly as cmd/trace merges their
	// flight-recorder files.
	var merged []telemetry.FlightSpan
	procs := map[string]*telemetry.Tracer{"hub": trHub, "tower-1": trT1, "tower-2": trT2}
	for proc, tr := range procs {
		for _, s := range tr.ByTrace(tid) {
			merged = append(merged, telemetry.FlightSpan{Span: s, Proc: proc})
		}
	}

	byProc := map[string]int{}
	byLayer := map[string]int{}
	for _, s := range merged {
		if s.TraceID != tid {
			t.Fatalf("span %s/%s carries trace %#x, want the single trace %#x", s.Proc, s.Name, s.TraceID, tid)
		}
		byProc[s.Proc]++
		byLayer[s.Layer]++
	}
	for _, layer := range []string{"hub", "chain", "whisper", "federation", "tower"} {
		if byLayer[layer] == 0 {
			t.Errorf("no %q-layer spans in the merged trace (got %v)", layer, byLayer)
		}
	}
	towers := 0
	for _, proc := range []string{"tower-1", "tower-2"} {
		if byProc[proc] > 0 {
			towers++
		}
	}
	if byProc["hub"] == 0 || towers < 2 {
		t.Fatalf("merged trace spans by process = %v, want the hub and both standalone towers", byProc)
	}

	// The causal stitch: one root (the hub's admission span), every parent
	// edge resolvable across process boundaries, nothing dropped.
	tl := telemetry.BuildTimeline(merged, tid)
	if len(tl) != len(merged) {
		t.Fatalf("timeline has %d entries for %d merged spans", len(tl), len(merged))
	}
	if tl[0].Depth != 0 || tl[0].Proc != "hub" || tl[0].Name != "session" {
		t.Fatalf("timeline root is %s/%s at depth %d, want the hub's session span", tl[0].Proc, tl[0].Name, tl[0].Depth)
	}
	roots := 0
	for _, e := range tl {
		if e.Orphan {
			t.Errorf("span %s/%s (id %#x) has unresolvable parent %#x", e.Proc, e.Name, e.SpanID, e.Parent)
		}
		if e.Depth == 0 {
			roots++
		}
	}
	if roots != 1 {
		t.Errorf("merged timeline has %d roots, want exactly the admission span", roots)
	}
}
