// Package telemetryhttp serves the telemetry registry and tracer over HTTP:
// /metrics, /healthz, /debug/trace[/sid] and /debug/pprof/*. It is the only
// package under internal/ that imports the network stack, and only the
// binaries that take a -telemetry flag import it, so a process that never
// listens does not link net/http (DESIGN §10).
package telemetryhttp

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"onoffchain/internal/telemetry"
)

func writeIndentedJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// newMux builds the telemetry HTTP surface:
//
//	/metrics               Prometheus text exposition of the registry
//	/healthz               component health rollup (JSON; 503 when unhealthy)
//	/debug/trace           traces index: one JSON TraceSummary per line (?layer= filters)
//	/debug/trace/{sid}     the session's spans as flight-recorder lines (?layer= filters; 0 = all)
//	/debug/pprof/*         the standard runtime profiles
//
// Both trace endpoints answer over Tracer.Spans() with the same Select,
// SummarizeTraces and line format that cmd/trace applies to recorder
// files, so a saved /debug/trace/{sid} merges with them. The live spans
// are labelled with the serving executable's name, as a recorder labels
// its file. reg and tr may each be nil; the endpoints degrade to empty
// output.
func newMux(reg *telemetry.Registry, tr *telemetry.Tracer) *http.ServeMux {
	proc := filepath.Base(os.Args[0])
	live := func(r *http.Request, sid uint64) []telemetry.Span {
		spans := telemetry.Select(tr.Spans(), sid, r.URL.Query().Get("layer"))
		for i := range spans {
			spans[i].Proc = proc
		}
		return spans
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		rep := reg.HealthReport()
		if rep.Status == telemetry.HealthUnhealthy {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		writeIndentedJSON(w, rep)
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc := json.NewEncoder(w)
		for _, sum := range telemetry.SummarizeTraces(live(r, 0)) {
			enc.Encode(sum)
		}
	})
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		sid, err := strconv.ParseUint(strings.TrimPrefix(r.URL.Path, "/debug/trace/"), 10, 64)
		if err != nil {
			http.Error(w, "bad session id", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, s := range live(r, sid) {
			line, err := telemetry.MarshalSpan(s)
			if err != nil {
				continue
			}
			w.Write(append(line, '\n'))
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Server is a running telemetry listener.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the telemetry surface on addr (e.g. ":6060"). Telemetry is
// opt-in: nothing listens unless this is called. The returned server is
// already accepting; Close to stop.
func Serve(addr string, reg *telemetry.Registry, tr *telemetry.Tracer) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: newMux(reg, tr)}
	go srv.Serve(ln)
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and any in-flight handlers.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}
