// Package telemetry is the observability substrate for the whole stack: a
// zero-dependency metrics registry (counters, scrape-time gauges,
// bounded-bucket histograms with labeled series, Prometheus text
// exposition), a ring-buffered span tracer with its two
// queries (SummarizeTraces, BuildTimeline), a flight recorder writing the
// one span encoding, health checks, and opt-in HTTP surfaces (/metrics,
// /healthz, /debug/pprof/*, /debug/trace).
//
// Every handle type is nil-safe: methods on a nil *Registry, *Counter,
// *Histogram or *Tracer are no-ops, so instrumentation call sites are
// unconditional and telemetry-off costs only a nil check — no background
// goroutines, no listener, no allocation.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing series.
type Counter struct {
	v atomic.Uint64
}

// NewCounter creates a standalone counter not yet bound to a registry.
// Components that own their counters (whisper's drop tallies) create them
// up front and register them into zero or more registries later, so the
// counter is the single source of truth no matter how many views exist.
func NewCounter() *Counter { return &Counter{} }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by delta.
func (c *Counter) Add(delta uint64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket latency/size distribution. Bucket bounds are
// inclusive upper limits in ascending order; observations above the last
// bound land in an implicit +Inf bucket. All hot-path operations are
// lock-free atomics.
type Histogram struct {
	bounds []float64       // immutable after construction
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	max    atomic.Uint64 // float64 bits
}

// NewHistogram creates a standalone histogram with the given ascending
// bucket upper bounds. Panics on an empty or unsorted layout: bucket
// layouts are compile-time decisions, not data.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("telemetry: histogram bounds must be strictly ascending")
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// expBuckets returns n bounds starting at start, each factor times the
// previous — the usual latency layout.
func expBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		panic("telemetry: expBuckets needs n>0, start>0, factor>1")
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// DurationBuckets is the default latency layout: 100µs to ~105s in
// exponential steps of 2, in seconds.
func DurationBuckets() []float64 { return expBuckets(100e-6, 2, 21) }

// SizeBuckets is the default count/size layout: 1 to 4096 in powers of 2.
func SizeBuckets() []float64 { return expBuckets(1, 2, 13) }

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= math.Float64frombits(old) {
			break
		}
		if h.max.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// ObserveSince records the elapsed wall time since t0, in seconds.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h == nil {
		return
	}
	h.Observe(time.Since(t0).Seconds())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the running total of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Max returns the largest observed value (0 before any observation).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.max.Load())
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the owning bucket, the standard Prometheus histogram_quantile
// approach. Returns 0 with no observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if cum+c >= rank && c > 0 {
			if i == len(h.bounds) { // +Inf bucket: report the last finite bound
				return h.bounds[len(h.bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (h.bounds[i]-lower)*((rank-cum)/c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// BucketCount is one (upper bound, cumulative count) pair of a snapshot.
type BucketCount struct {
	UpperBound float64 // +Inf for the overflow bucket
	Count      uint64  // cumulative, Prometheus-style
}

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64
	Sum     float64
	Buckets []BucketCount
}

// Snapshot copies the histogram state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Count:   h.count.Load(),
		Sum:     h.Sum(),
		Buckets: make([]BucketCount, len(h.counts)),
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		s.Buckets[i] = BucketCount{UpperBound: ub, Count: cum}
	}
	return s
}

type kind int

const (
	kindCounter kind = iota
	kindGaugeFunc
	kindHistogram
)

type entry struct {
	base   string   // metric name without labels
	full   string   // rendered series id: name{k="v",...}
	labels []string // k,v pairs, sorted by key
	kind   kind
	c      *Counter
	f      func() float64
	h      *Histogram
}

// Registry is a concurrent collection of named series. Get-or-create
// accessors make call sites idempotent; a second registration of the same
// (name, labels) returns the first handle. A nil *Registry hands out nil
// handles, which are themselves no-ops.
type Registry struct {
	mu      sync.RWMutex
	entries map[string]*entry
	health  healthChecks
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// seriesID renders name{k="v",...} with label keys sorted. Labels are
// passed as alternating key, value strings.
func seriesID(name string, labels []string) (string, []string) {
	if len(labels) == 0 {
		return name, nil
	}
	if len(labels)%2 != 0 {
		panic("telemetry: labels must be key,value pairs")
	}
	pairs := make([][2]string, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, [2]string{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	flat := make([]string, 0, len(labels))
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p[0], p[1])
		flat = append(flat, p[0], p[1])
	}
	b.WriteByte('}')
	return b.String(), flat
}

func (r *Registry) getOrCreate(name string, labels []string, k kind, make func() *entry) *entry {
	full, flat := seriesID(name, labels)
	r.mu.RLock()
	e := r.entries[full]
	r.mu.RUnlock()
	if e != nil {
		if e.kind != k {
			panic("telemetry: series " + full + " re-registered with a different kind")
		}
		return e
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.entries[full]; e != nil {
		if e.kind != k {
			panic("telemetry: series " + full + " re-registered with a different kind")
		}
		return e
	}
	e = make()
	e.base, e.full, e.labels, e.kind = name, full, flat, k
	r.entries[full] = e
	return e
}

// Counter returns the counter series, creating it on first use. Labels are
// alternating key, value strings.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, labels, kindCounter, func() *entry {
		return &entry{c: NewCounter()}
	}).c
}

// RegisterCounter binds an existing counter under the series name. If the
// series already exists its original handle wins and is returned, so the
// caller can detect (and adopt) a prior registration.
func (r *Registry) RegisterCounter(c *Counter, name string, labels ...string) *Counter {
	if r == nil || c == nil {
		return c
	}
	return r.getOrCreate(name, labels, kindCounter, func() *entry {
		return &entry{c: c}
	}).c
}

// GaugeFunc registers a series whose value is computed at scrape time —
// pool depth, live sessions, goroutine count. The function must be safe to
// call from the scrape goroutine. Re-registering an existing series keeps
// the first function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...string) {
	if r == nil || fn == nil {
		return
	}
	r.getOrCreate(name, labels, kindGaugeFunc, func() *entry {
		return &entry{f: fn}
	})
}

// Histogram returns the histogram series, creating it with the given
// bucket bounds on first use (later calls may pass nil bounds).
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	return r.getOrCreate(name, labels, kindHistogram, func() *entry {
		return &entry{h: NewHistogram(bounds)}
	}).h
}

func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// histSeries renders "name_bucket" plus the entry's labels and an le pair.
func histSeries(base string, suffix string, labels []string, le string) string {
	var b strings.Builder
	b.WriteString(base)
	b.WriteString(suffix)
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(&b, "%s=%q,", labels[i], labels[i+1])
	}
	if le != "" {
		fmt.Fprintf(&b, "le=%q", le)
	} else if len(labels) > 0 {
		// strip trailing comma
		s := b.String()
		return s[:len(s)-1] + "}"
	}
	b.WriteByte('}')
	s := b.String()
	if s[len(s)-2] == '{' { // no labels at all
		return s[:len(s)-2]
	}
	return s
}

// WritePrometheus renders every series in text exposition format (0.0.4),
// sorted by name so scrapes are diffable. GaugeFunc series are evaluated
// inline, which is what makes scrape-time runtime sampling possible
// without a background goroutine.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.RLock()
	list := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		list = append(list, e)
	}
	r.mu.RUnlock()
	sort.Slice(list, func(i, j int) bool {
		if list[i].base != list[j].base {
			return list[i].base < list[j].base
		}
		return list[i].full < list[j].full
	})
	lastBase := ""
	for _, e := range list {
		if e.base != lastBase {
			lastBase = e.base
			typ := "counter"
			switch e.kind {
			case kindGaugeFunc:
				typ = "gauge"
			case kindHistogram:
				typ = "histogram"
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", e.base, typ)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", e.full, e.c.Value())
		case kindGaugeFunc:
			fmt.Fprintf(w, "%s %s\n", e.full, formatFloat(e.f()))
		case kindHistogram:
			s := e.h.Snapshot()
			for _, bc := range s.Buckets {
				fmt.Fprintf(w, "%s %d\n", histSeries(e.base, "_bucket", e.labels, formatFloat(bc.UpperBound)), bc.Count)
			}
			fmt.Fprintf(w, "%s %s\n", histSeries(e.base, "_sum", e.labels, ""), formatFloat(s.Sum))
			fmt.Fprintf(w, "%s %d\n", histSeries(e.base, "_count", e.labels, ""), s.Count)
		}
	}
}

// Snapshot returns every series' current value keyed by rendered series
// id. Histograms contribute _sum and _count pseudo-series. Used by the
// benchmark's per-layer columns and tests.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	list := make([]*entry, 0, len(r.entries))
	for _, e := range r.entries {
		list = append(list, e)
	}
	r.mu.RUnlock()
	out := make(map[string]float64, len(list))
	for _, e := range list {
		switch e.kind {
		case kindCounter:
			out[e.full] = float64(e.c.Value())
		case kindGaugeFunc:
			out[e.full] = e.f()
		case kindHistogram:
			out[histSeries(e.base, "_sum", e.labels, "")] = e.h.Sum()
			out[histSeries(e.base, "_count", e.labels, "")] = float64(e.h.Count())
		}
	}
	return out
}
