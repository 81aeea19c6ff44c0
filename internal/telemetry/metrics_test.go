package telemetry

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	c := NewCounter()
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	r := NewRegistry()
	depth := 7.5
	r.GaugeFunc("depth", func() float64 { return depth })
	if got := r.Snapshot()["depth"]; got != 7.5 {
		t.Fatalf("gauge = %g, want 7.5", got)
	}
	depth = 2
	if got := r.Snapshot()["depth"]; got != 2 {
		t.Fatalf("gauge = %g, want the scrape-time value 2", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must stay 0")
	}
	h := r.Histogram("z", SizeBuckets())
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram must stay empty")
	}
	if s := h.Snapshot(); s.Count != 0 || s.Buckets != nil {
		t.Fatal("nil histogram snapshot must be zero")
	}
	r.GaugeFunc("f", func() float64 { return 1 })
	r.RegisterCounter(NewCounter(), "w")
	r.WritePrometheus(&strings.Builder{})
	r.RegisterRuntimeMetrics()
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for _, v := range []float64{0.5, 1.5, 1.5, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if h.Sum() != 113.5 {
		t.Fatalf("sum = %g, want 113.5", h.Sum())
	}
	if h.Max() != 100 {
		t.Fatalf("max = %g, want 100", h.Max())
	}
	// rank(0.5) = 3 → third obs lives in the (1,2] bucket.
	if q := h.Quantile(0.5); q < 1 || q > 2 {
		t.Fatalf("p50 = %g, want within (1,2]", q)
	}
	// p99 lands in the +Inf bucket → clamped to last finite bound.
	if q := h.Quantile(0.99); q != 8 {
		t.Fatalf("p99 = %g, want 8 (clamped)", q)
	}
	s := h.Snapshot()
	if len(s.Buckets) != 5 {
		t.Fatalf("buckets = %d, want 5", len(s.Buckets))
	}
	if !math.IsInf(s.Buckets[4].UpperBound, 1) || s.Buckets[4].Count != 6 {
		t.Fatalf("last bucket = %+v, want +Inf cum 6", s.Buckets[4])
	}
	if s.Buckets[0].Count != 1 || s.Buckets[1].Count != 3 {
		t.Fatalf("cumulative counts wrong: %+v", s.Buckets)
	}
}

func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared_total").Inc()
				r.Counter("labeled_total", "worker", string(rune('a'+id))).Inc()
				r.GaugeFunc("depth", func() float64 { return 1 })
				r.Histogram("lat_seconds", DurationBuckets()).Observe(0.001 * float64(j))
				if j%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
					_ = r.Snapshot()
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != 8*500 {
		t.Fatalf("shared counter = %d, want %d", got, 8*500)
	}
	if got := r.Histogram("lat_seconds", nil).Count(); got != 8*500 {
		t.Fatalf("histogram count = %d, want %d", got, 8*500)
	}
}

func TestRegistryGetOrCreateIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "k", "v")
	b := r.Counter("x_total", "k", "v")
	if a != b {
		t.Fatal("same series must return the same handle")
	}
	own := NewCounter()
	own.Add(7)
	got := r.RegisterCounter(own, "whisper_dropped_total", "reason", "expired")
	if got != own {
		t.Fatal("first registration must adopt the provided counter")
	}
	again := r.RegisterCounter(NewCounter(), "whisper_dropped_total", "reason", "expired")
	if again != own {
		t.Fatal("re-registration must return the original handle")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch must panic")
		}
	}()
	r.GaugeFunc("x_total", func() float64 { return 0 }, "k", "v")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("hub_sessions_total").Add(3)
	r.Counter("hub_stage_total", "stage", "split").Add(2)
	r.GaugeFunc("chain_pool_depth", func() float64 { return 5 })
	r.GaugeFunc("live", func() float64 { return 1.5 })
	h := r.Histogram("store_fsync_seconds", []float64{0.001, 0.01})
	h.Observe(0.002)
	h.Observe(5)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE hub_sessions_total counter\nhub_sessions_total 3\n",
		"hub_stage_total{stage=\"split\"} 2\n",
		"# TYPE chain_pool_depth gauge\nchain_pool_depth 5\n",
		"live 1.5\n",
		"# TYPE store_fsync_seconds histogram\n",
		"store_fsync_seconds_bucket{le=\"0.001\"} 0\n",
		"store_fsync_seconds_bucket{le=\"0.01\"} 1\n",
		"store_fsync_seconds_bucket{le=\"+Inf\"} 2\n",
		"store_fsync_seconds_sum 5.002\n",
		"store_fsync_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestHistogramLabeledExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hub_stage_seconds", []float64{1}, "stage", "split")
	h.Observe(0.5)
	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`hub_stage_seconds_bucket{stage="split",le="1"} 1`,
		`hub_stage_seconds_sum{stage="split"} 0.5`,
		`hub_stage_seconds_count{stage="split"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("labeled exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshotAndExpvar(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(2)
	r.Histogram("b_seconds", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap["a_total"] != 2 {
		t.Fatalf("snapshot a_total = %g", snap["a_total"])
	}
	if snap["b_seconds_count"] != 1 || snap["b_seconds_sum"] != 0.5 {
		t.Fatalf("snapshot histogram views wrong: %v", snap)
	}
}

func TestRegisterRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	r.RegisterRuntimeMetrics()
	snap := r.Snapshot()
	if snap["go_goroutines"] < 1 {
		t.Fatalf("go_goroutines = %g, want >= 1", snap["go_goroutines"])
	}
	if snap["go_heap_alloc_bytes"] <= 0 {
		t.Fatalf("go_heap_alloc_bytes = %g, want > 0", snap["go_heap_alloc_bytes"])
	}
}

func TestExpBucketsValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { expBuckets(0, 2, 3) },
		func() { expBuckets(1, 1, 3) },
		func() { expBuckets(1, 2, 0) },
		func() { NewHistogram(nil) },
		func() { NewHistogram([]float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("want panic")
				}
			}()
			fn()
		}()
	}
}
