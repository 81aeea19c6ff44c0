package telemetryhttp

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/telemetry"
)

func TestHTTPSurfaces(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("hub_sessions_completed_total").Add(5)
	tr := telemetry.NewTracer(64)
	start := time.Now()
	tc := tr.NewTrace()
	tr.RecordSpan(tc, 0, 42, "hub", "session", start, 3*time.Millisecond, "")
	tr.RecordChild(tc, 42, "chain", "tx", start.Add(time.Millisecond), 2*time.Millisecond, "kind=submit")
	tr.Record(43, "store", "append", start, time.Millisecond, "")

	ts := httptest.NewServer(newMux(reg, tr))
	defer ts.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "hub_sessions_completed_total 5") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	code, body := get("/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	var sum telemetry.TraceSummary
	if len(lines) != 1 || json.Unmarshal([]byte(lines[0]), &sum) != nil {
		t.Fatalf("/debug/trace index = %q, want one summary line", body)
	}
	if sum.TraceID != tc.TraceID || sum.SID != 42 || sum.Spans != 2 || sum.Layers["chain"] != 2*time.Millisecond ||
		len(sum.Procs) != 1 || sum.Procs[0] != filepath.Base(os.Args[0]) {
		t.Fatalf("index row %+v", sum)
	}
	if _, body := get("/debug/trace?layer=store"); strings.TrimSpace(body) != "" {
		t.Fatalf("store holds no traced span, index says %q", body)
	}
	if _, body := get("/debug/trace/42?layer=chain"); strings.Count(body, "\n") != 1 || !strings.Contains(body, `"kind=submit"`) {
		t.Fatalf("/debug/trace/42?layer=chain = %q, want the one chain span", body)
	}
	if code, _ := get("/debug/trace/nope"); code != http.StatusBadRequest {
		t.Fatalf("bad sid must 400, got %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
}

// One format: a saved /debug/trace/{sid} response is a recorder file —
// ReadFlightFile parses it back into exactly the spans the tracer recorded
// for the session, labelled with the serving process.
func TestDebugTraceReadsBackAsRecorderFile(t *testing.T) {
	tr := telemetry.NewTracer(64)
	t0 := time.Unix(1_700_000_000, 123_000)
	tc := tr.NewTrace()
	tr.RecordSpan(tc, 0, 9, "hub", "session", t0, 5*time.Millisecond, "scenario=betting")
	tr.RecordChild(tc, 9, "whisper", "sign_exchange", t0.Add(time.Millisecond), time.Millisecond, "")
	tr.Record(9, "store", "append", t0.Add(2*time.Millisecond), 0, "kind=signed")
	tr.Record(10, "hub", "other-session", t0, 0, "")

	ts := httptest.NewServer(newMux(nil, tr))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/debug/trace/9")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	path := filepath.Join(t.TempDir(), "s.jsonl")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := telemetry.ReadFlightFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := telemetry.Select(tr.Spans(), 9, "")
	if len(got) != len(want) {
		t.Fatalf("read back %d spans, the tracer holds %d for the session", len(got), len(want))
	}
	proc := filepath.Base(os.Args[0])
	for i, g := range got {
		w := want[i]
		if g.Proc != proc || g.TraceID != w.TraceID || g.SpanID != w.SpanID || g.Parent != w.Parent ||
			g.SID != w.SID || g.Layer != w.Layer || g.Name != w.Name || !g.Start.Equal(w.Start) ||
			g.Dur != w.Dur || g.Attrs != w.Attrs {
			t.Fatalf("span %d read back as %+v, recorded as %+v", i, g, w)
		}
	}
	if tl := telemetry.BuildTimeline(got, tc.TraceID); len(tl) != 2 || tl[0].Name != "session" || tl[1].Depth != 1 || tl[1].Orphan {
		t.Fatalf("timeline over the saved response: %+v", tl)
	}
}

func TestServeAndClose(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("x_total").Inc()
	srv, err := Serve("127.0.0.1:0", reg, nil)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "x_total 1") {
		t.Fatalf("scrape body: %q", body)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Fatal("nil server must be inert")
	}
	if _, err := Serve("256.0.0.1:99999", reg, nil); err == nil {
		t.Fatal("bad addr must error")
	}
}
