package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The harness's own spans: one around every call it makes into the
// system (warm-up, Submit, Report, Kill, Stop, Recover, resumed-ticket
// drain, each probe batch). They are recorded only in a traced run, kept
// in memory, and written to <out>/<workload>.spans.jsonl at exit. Spans
// inside the program are the program's own (telemetry.Tracer) and are not
// touched here.

// span is one record of the JSONL file. Trace groups the spans of one
// session (schedule index + 1); trace 0 holds the run-level spans.
type span struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent"` // 0: a root
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the log was created
	EndNs   int64  `json:"end_ns"`
}

type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// liveSpan is an open span. The zero value (from a nil log: every
// untraced run) is inert, so call sites need no branches.
type liveSpan struct {
	log *spanLog
	at  int
	id  uint64
}

func (l *spanLog) begin(trace, parent uint64, name string) liveSpan {
	if l == nil {
		return liveSpan{}
	}
	now := time.Since(l.origin).Nanoseconds()
	l.mu.Lock()
	id := uint64(len(l.spans) + 1)
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name, StartNs: now})
	l.mu.Unlock()
	return liveSpan{log: l, at: int(id - 1), id: id}
}

func (s liveSpan) end() {
	if s.log == nil {
		return
	}
	now := time.Since(s.log.origin).Nanoseconds()
	s.log.mu.Lock()
	s.log.spans[s.at].EndNs = now
	s.log.mu.Unlock()
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	l.mu.Lock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
