package hub

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"onoffchain/internal/chain"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// TestSessionTraceCrossLayer is the end-to-end tracing contract: one
// completed session, driven through a hub with a WAL attached, must leave
// spans in at least four distinct layers (hub stages, chain transactions,
// whisper exchange, store appends, tower window) with timestamps that
// read as a coherent timeline.
func TestSessionTraceCrossLayer(t *testing.T) {
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		t.Fatal(err)
	}
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		types.Address(faucetKey.EthereumAddress()): new(uint256.Int).Mul(uint256.NewInt(1_000_000), uint256.NewInt(1e18)),
	})
	net := whisper.NewNetwork(c.Now)
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(0)
	st, err := store.Open(t.TempDir(), store.Options{Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := New(c, net, faucetKey, Config{Workers: 2, Telemetry: reg, Tracer: tr, Store: st})
	rep := h.Submit(BettingSpec(16, 600, false)).Report()
	if rep.Err != nil {
		t.Fatalf("session failed: %v", rep.Err)
	}
	h.Stop() // drain the journal so every store append span has landed

	spans := tr.SID(rep.ID)
	if len(spans) == 0 {
		t.Fatal("no spans recorded for the session")
	}
	layers := map[string]int{}
	for _, s := range spans {
		layers[s.Layer]++
	}
	if len(layers) < 4 {
		t.Fatalf("spans cover %d layers (%v), want >= 4", len(layers), layers)
	}
	for _, l := range []string{"hub", "chain", "whisper", "store", "tower"} {
		if layers[l] == 0 {
			t.Errorf("no spans in layer %q (got %v)", l, layers)
		}
	}

	// The timeline is monotonic: SID sorts by start time, and every span
	// must carry a sane start and a non-negative duration.
	for i, s := range spans {
		if s.SID != rep.ID {
			t.Fatalf("span %d belongs to session %d, want %d", i, s.SID, rep.ID)
		}
		if s.Start.IsZero() || s.Dur < 0 {
			t.Errorf("span %d (%s/%s) has start=%v dur=%v", i, s.Layer, s.Name, s.Start, s.Dur)
		}
		if i > 0 && s.Start.Before(spans[i-1].Start) {
			t.Errorf("span %d (%s) starts before span %d (%s): timeline not monotonic",
				i, s.Name, i-1, spans[i-1].Name)
		}
	}

	// The hub's stage spans appear in lifecycle order.
	wantStages := []string{"stage:split", "stage:deployed", "stage:signed", "stage:executed", "stage:submitted", "stage:settled"}
	var gotStages []string
	for _, s := range spans {
		if s.Layer == "hub" && strings.HasPrefix(s.Name, "stage:") {
			gotStages = append(gotStages, s.Name)
		}
	}
	if len(gotStages) != len(wantStages) {
		t.Fatalf("hub stage spans = %v, want %v", gotStages, wantStages)
	}
	for i := range wantStages {
		if gotStages[i] != wantStages[i] {
			t.Fatalf("stage span order = %v, want %v", gotStages, wantStages)
		}
	}

	// The two waits no stage span covers are spans of their own: the
	// deposits' block (setup) and the tower barrier in front of the finalize.
	for _, name := range []string{"setup", "barrier"} {
		found := false
		for _, s := range spans {
			found = found || (s.Layer == "hub" && s.Name == name)
		}
		if !found {
			t.Errorf("no hub/%s span in the session's trace", name)
		}
	}

	// The per-layer rollup accounts real time in the layers that do work.
	rollup := tr.Layers(rep.ID)
	for _, l := range []string{"hub", "chain"} {
		if rollup[l] <= 0 {
			t.Errorf("layer %q rolled up %v of work, want > 0", l, rollup[l])
		}
	}
}

// TestTraceDisabledIsNoOp pins the zero-cost-when-off contract: a hub
// without a tracer or registry must run a full session without creating
// any telemetry state (nil handles all the way down).
func TestTraceDisabledIsNoOp(t *testing.T) {
	h, _ := newTestHub(t, 2)
	rep := h.Submit(BettingSpec(16, 600, false)).Report()
	if rep.Err != nil {
		t.Fatalf("session failed: %v", rep.Err)
	}
	if h.tracer != nil {
		t.Fatal("hub grew a tracer without one configured")
	}
	var tr *telemetry.Tracer
	if got := tr.SID(rep.ID); got != nil {
		t.Fatalf("nil tracer returned spans: %v", got)
	}
}

// TestTowerDisputesHealth: the tower_disputes reporter reads the backlog of
// undecided windows — degraded above two per sandbox slot — and recovers once
// they are decided.
func TestTowerDisputesHealth(t *testing.T) {
	const held = 2*sandboxSlots + 1
	c, net, faucetKey := miningWorld(t, "auto")
	reg := telemetry.NewRegistry()
	// An owner waits for its own verdict, so each held window takes a worker.
	h := New(c, net, faucetKey, Config{Workers: held, Telemetry: reg})
	defer h.Stop()
	var release atomic.Bool
	h.tower.Federate(nil, func(*Watch, Window) (GateDecision, time.Duration) {
		if release.Load() {
			return GateFile, 0
		}
		return GateDefer, 5 * time.Millisecond
	})
	status := func() telemetry.HealthStatus {
		return reg.HealthReport().Components["tower_disputes"].Status
	}
	if got := status(); got != telemetry.HealthOK {
		t.Fatalf("idle tower reports %s", got)
	}
	tickets := make([]*Ticket, held)
	for i := range tickets {
		tickets[i] = h.Submit(BettingSpec(4, 600, true))
	}
	waitFor(t, 20*time.Second, "every window to be held undecided", func() bool { return h.tower.PendingDisputes() == held })
	if got := status(); got != telemetry.HealthDegraded {
		t.Errorf("%d undecided windows report %s, want degraded", held, got)
	}
	release.Store(true)
	for _, tk := range tickets {
		if rep := tk.Report(); rep.Err != nil || rep.Stage != StageResolved {
			t.Fatalf("after gate release: stage=%s err=%v, want a resolved dispute", rep.Stage, rep.Err)
		}
	}
	waitFor(t, 5*time.Second, "the pipeline to drain", func() bool { return h.tower.PendingDisputes() == 0 })
	if got := status(); got != telemetry.HealthOK {
		t.Errorf("drained tower reports %s, want healthy", got)
	}
}
