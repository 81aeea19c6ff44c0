package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHTTPSurfaces(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("hub_sessions_completed_total").Add(5)
	tr := NewTracer(64)
	start := time.Now()
	tr.Record(42, "hub", "stage:split", start, time.Millisecond, "")
	tr.Record(42, "chain", "tx", start.Add(time.Millisecond), 2*time.Millisecond, "kind=submit")

	ts := httptest.NewServer(NewMux(reg, tr))
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
	code, body := get("/debug/trace/42")
	if code != 200 {
		t.Fatalf("/debug/trace/42 = %d", code)
	}
	var out struct {
		SID   uint64 `json:"sid"`
		Spans []struct {
			Layer string `json:"layer"`
			Name  string `json:"name"`
			DurUS int64  `json:"dur_us"`
		} `json:"spans"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("trace JSON: %v in %q", err, body)
	}
	if out.SID != 42 || len(out.Spans) != 2 || out.Spans[1].Layer != "chain" || out.Spans[1].DurUS != 2000 {
		t.Fatalf("trace payload wrong: %+v", out)
	}
	if code, _ := get("/debug/trace/nope"); code != http.StatusBadRequest {
		t.Fatalf("bad sid must 400, got %d", code)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
}

func TestServeAndClose(t *testing.T) {
	reg := NewRegistry()
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
