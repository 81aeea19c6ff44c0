package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// FlightRecorder streams spans to a bounded, rotating JSONL file — the
// crash-forensics sibling of the in-memory ring. Records are OTLP-shaped
// (hex trace/span ids, unix-nano timestamps, key/value attributes) so the
// files remain readable by standard tooling, one line per span, one file
// sequence per process. The debug surface writes the same lines.
//
// Record never blocks the hot path: spans go through a bounded channel
// and a full channel drops the span and counts it, mirroring whisper's
// backpressure contract. Close drains what was accepted.
type FlightRecorder struct {
	dir  string
	proc string

	maxBytes int64
	maxFiles int

	ch      chan Span
	done    chan struct{}
	wg      sync.WaitGroup
	closed  atomic.Bool
	drops   atomic.Uint64
	written atomic.Uint64

	err atomic.Value // first writer error, if any
}

// The recorder's bounds: rotate a file past flightFileBytes, keep the
// newest flightFiles of them, queue at most flightBuffer spans. Variables
// only so the rotation and drop tests can shrink them.
var (
	flightFileBytes int64 = 4 << 20
	flightFiles           = 4
	flightBuffer          = 1024
)

// NewFlightRecorder starts a recorder writing <proc>-NNNNN.jsonl files
// under dir (created if missing). proc names the process/tower the file
// belongs to — cmd/trace uses it to label the merged timeline.
func NewFlightRecorder(dir, proc string) (*FlightRecorder, error) {
	if proc == "" {
		proc = "proc"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("telemetry: flight dir %s: %w", dir, err)
	}
	f := &FlightRecorder{
		dir:      dir,
		proc:     proc,
		maxBytes: flightFileBytes,
		maxFiles: flightFiles,
		ch:       make(chan Span, flightBuffer),
		done:     make(chan struct{}),
	}
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// Record enqueues one span, dropping (and counting) when the writer is
// behind or the recorder is closed. Nil-safe.
func (f *FlightRecorder) Record(s Span) {
	if f == nil {
		return
	}
	if f.closed.Load() {
		f.drops.Add(1)
		return
	}
	select {
	case f.ch <- s:
	default:
		f.drops.Add(1)
	}
}

// Drops returns how many spans were discarded because the writer could
// not keep up.
func (f *FlightRecorder) Drops() uint64 {
	if f == nil {
		return 0
	}
	return f.drops.Load()
}

// Written returns how many spans reached disk.
func (f *FlightRecorder) Written() uint64 {
	if f == nil {
		return 0
	}
	return f.written.Load()
}

// Err returns the first writer error, if any (disk full, permission).
func (f *FlightRecorder) Err() error {
	if f == nil {
		return nil
	}
	if v := f.err.Load(); v != nil {
		return v.(error)
	}
	return nil
}

// Close stops accepting spans, drains the queue to disk and syncs the
// current file. Safe to call more than once.
func (f *FlightRecorder) Close() error {
	if f == nil {
		return nil
	}
	if f.closed.CompareAndSwap(false, true) {
		close(f.done)
	}
	f.wg.Wait()
	return f.Err()
}

// RegisterMetrics exposes the recorder's counters on a registry.
func (f *FlightRecorder) RegisterMetrics(r *Registry) {
	if f == nil || r == nil {
		return
	}
	r.GaugeFunc("telemetry_flight_written_total", func() float64 { return float64(f.Written()) }, "proc", f.proc)
	r.GaugeFunc("telemetry_flight_dropped_total", func() float64 { return float64(f.Drops()) }, "proc", f.proc)
}

func (f *FlightRecorder) fail(err error) {
	if err != nil {
		f.err.CompareAndSwap(nil, err)
	}
}

func (f *FlightRecorder) run() {
	defer f.wg.Done()
	var (
		file  *os.File
		w     *bufio.Writer
		size  int64
		seq   int
		names []string // rotated file names, oldest first
	)
	open := func() bool {
		seq++
		name := fmt.Sprintf("%s-%05d.jsonl", f.proc, seq)
		fl, err := os.Create(filepath.Join(f.dir, name))
		if err != nil {
			f.fail(err)
			return false
		}
		file, w, size = fl, bufio.NewWriter(fl), 0
		names = append(names, name)
		for len(names) > f.maxFiles {
			os.Remove(filepath.Join(f.dir, names[0]))
			names = names[1:]
		}
		return true
	}
	closeFile := func() {
		if file == nil {
			return
		}
		if err := w.Flush(); err != nil {
			f.fail(err)
		}
		if err := file.Close(); err != nil {
			f.fail(err)
		}
		file = nil
	}
	defer closeFile()
	if !open() {
		// Writer dead on arrival: keep draining so Record keeps its
		// non-blocking contract, counting everything as dropped.
		for {
			select {
			case <-f.ch:
				f.drops.Add(1)
			case <-f.done:
				for {
					select {
					case <-f.ch:
						f.drops.Add(1)
					default:
						return
					}
				}
			}
		}
	}
	write := func(s Span) {
		s.Proc = f.proc
		line, err := MarshalSpan(s)
		if err != nil {
			f.fail(err)
			return
		}
		if size+int64(len(line))+1 > f.maxBytes && size > 0 {
			closeFile()
			if !open() {
				f.drops.Add(1)
				return
			}
		}
		n, err := w.Write(append(line, '\n'))
		if err != nil {
			f.fail(err)
			return
		}
		size += int64(n)
		f.written.Add(1)
	}
	for {
		select {
		case s := <-f.ch:
			write(s)
		default:
			// Idle: flush the buffered writer so a killed process (the
			// crash-forensics case) leaves complete lines on disk, then
			// park until the next span or shutdown.
			if file != nil {
				if err := w.Flush(); err != nil {
					f.fail(err)
				}
			}
			select {
			case s := <-f.ch:
				write(s)
			case <-f.done:
				for {
					select {
					case s := <-f.ch:
						write(s)
					default:
						return
					}
				}
			}
		}
	}
}

// flightValue is the OTLP AnyValue JSON shape (ints are strings, per the
// OTLP/JSON mapping of 64-bit values).
type flightValue struct {
	StringValue string `json:"stringValue,omitempty"`
	IntValue    string `json:"intValue,omitempty"`
}

type flightAttr struct {
	Key   string      `json:"key"`
	Value flightValue `json:"value"`
}

// flightRecord is one JSONL line: a single OTLP-shaped span with the
// producing process tucked into the resource. It is the one encoding of a
// span — the recorder's files and /debug/trace/{sid} both write it.
type flightRecord struct {
	Resource     map[string]string `json:"resource"`
	Name         string            `json:"name"`
	TraceID      string            `json:"traceId,omitempty"`
	SpanID       string            `json:"spanId,omitempty"`
	ParentSpanID string            `json:"parentSpanId,omitempty"`
	Start        int64             `json:"startTimeUnixNano"`
	End          int64             `json:"endTimeUnixNano"`
	Attributes   []flightAttr      `json:"attributes"`
}

// MarshalSpan renders one span as a recorder line (without the newline):
// the recorder's files and the live /debug/trace/{sid} share this format.
func MarshalSpan(s Span) ([]byte, error) {
	rec := flightRecord{
		Resource: map[string]string{"proc": s.Proc},
		Name:     s.Name,
		Start:    s.Start.UnixNano(),
		End:      s.Start.Add(s.Dur).UnixNano(),
		Attributes: []flightAttr{
			{Key: "layer", Value: flightValue{StringValue: s.Layer}},
			{Key: "sid", Value: flightValue{IntValue: strconv.FormatUint(s.SID, 10)}},
		},
	}
	if s.TraceID != 0 {
		rec.TraceID = fmt.Sprintf("%032x", s.TraceID)
		rec.SpanID = fmt.Sprintf("%016x", s.SpanID)
	}
	if s.Parent != 0 {
		rec.ParentSpanID = fmt.Sprintf("%016x", s.Parent)
	}
	if s.Attrs != "" {
		rec.Attributes = append(rec.Attributes, flightAttr{Key: "attrs", Value: flightValue{StringValue: s.Attrs}})
	}
	return json.Marshal(rec)
}

func parseHexID(s string) uint64 {
	if s == "" {
		return 0
	}
	if len(s) > 16 {
		s = s[len(s)-16:]
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0
	}
	return v
}

// ReadFlightFile parses a file of recorder lines — a recorder's own file
// or a saved /debug/trace/{sid} response — back into spans. Unparseable
// lines are skipped (a crash can truncate the tail mid-line); an
// unreadable file is an error.
func ReadFlightFile(path string) ([]Span, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Span
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var rec flightRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			continue
		}
		s := Span{
			Proc:    rec.Resource["proc"],
			Name:    rec.Name,
			TraceID: parseHexID(rec.TraceID),
			SpanID:  parseHexID(rec.SpanID),
			Parent:  parseHexID(rec.ParentSpanID),
			Start:   time.Unix(0, rec.Start),
		}
		if rec.End > rec.Start {
			s.Dur = time.Duration(rec.End - rec.Start)
		}
		for _, a := range rec.Attributes {
			switch a.Key {
			case "layer":
				s.Layer = a.Value.StringValue
			case "sid":
				s.SID, _ = strconv.ParseUint(a.Value.IntValue, 10, 64)
			case "attrs":
				s.Attrs = a.Value.StringValue
			}
		}
		out = append(out, s)
	}
	return out, sc.Err()
}
