package hub

import (
	"sync/atomic"
	"testing"
	"time"

	"onoffchain/internal/secp256k1"
	"onoffchain/internal/whisper"
)

// TestDisputeGateHoldsBarrier pins the async pipeline's safety seam: a
// window whose dispute decision is deferred by the gate keeps the
// caught-up barrier held (nobody may advance the clock past an undecided
// window), and releasing the gate lets the dispute file and the barrier
// fall.
func TestDisputeGateHoldsBarrier(t *testing.T) {
	c, net, faucetKey := miningWorld(t, "auto")
	var release atomic.Bool
	var deferred atomic.Int64
	gate := func(e *Watch, w Window) (GateDecision, time.Duration) {
		if e.SID() != 0 {
			if exp, ok := e.ExpectedCached(); ok && exp == w.Result {
				return GateStandDown, 0 // honest windows don't hold the barrier
			}
		}
		if release.Load() {
			return GateFile, 0
		}
		deferred.Add(1)
		return GateDefer, 5 * time.Millisecond
	}
	h := New(c, net, faucetKey, Config{Workers: 2})
	defer h.Stop()
	h.tower.Federate(nil, gate) // on a live hub, as federation.AttachHub does

	tk := h.Submit(BettingSpec(4, 600, true))
	// The adversarial window opens, the gate defers, the pipeline holds
	// the barrier: the session cannot terminate.
	waitFor(t, 10*time.Second, "the gate to start deferring", func() bool { return deferred.Load() > 0 })
	if h.tower.PendingDisputes() == 0 {
		t.Fatal("deferred window is not pending — the barrier would not hold")
	}
	select {
	case <-tk.Done():
		t.Fatal("session terminated while its dispute decision was deferred")
	case <-time.After(100 * time.Millisecond):
	}
	release.Store(true)
	rep := tk.Report()
	if rep.Err != nil || rep.Stage != StageResolved || !rep.Disputed {
		t.Fatalf("after gate release: stage=%s disputed=%v err=%v, want a resolved dispute", rep.Stage, rep.Disputed, rep.Err)
	}
	waitFor(t, 5*time.Second, "the pipeline to drain", func() bool { return h.tower.PendingDisputes() == 0 })
	m := h.Metrics()
	if m.DisputesDeferred == 0 {
		t.Error("gate deferrals not counted in metrics")
	}
	if m.DisputesRaised != 1 || m.DisputesWon != 1 {
		t.Errorf("disputes raised/won = %d/%d, want 1/1", m.DisputesRaised, m.DisputesWon)
	}
}

// TestUnenforcedDisputeIsNeverFinalized: a verdict that reads "filed, not
// enforced" leaves a lie standing in an open contract. The owner must fail
// the session there — not jump the clock and finalize it (per-session) or
// call the leaf rolled up (rollup).
func TestUnenforcedDisputeIsNeverFinalized(t *testing.T) {
	for _, rc := range []*RollupConfig{nil, {Depth: 2, EpochAge: 20 * time.Millisecond}} {
		c, net, faucetKey := miningWorld(t, "auto")
		var h *Hub
		h = New(c, net, faucetKey, Config{Workers: 1, Rollup: rc, StageHook: func(sid uint64, s Stage) bool {
			if s == StageSubmitted {
				// What a tower whose filing errored out leaves behind.
				for _, e := range h.tower.Watches() {
					e.mu.Lock()
					e.disputed = true
					e.mu.Unlock()
				}
			}
			return true
		}})
		rep := h.Submit(BettingSpec(4, 600, false)).Report()
		h.Stop()
		if rep.Err == nil || rep.Stage != StageFailed {
			t.Fatalf("rollup=%t: stage=%s err=%v, want the session failed", rc != nil, rep.Stage, rep.Err)
		}
		if settled, err := rep.Session.IsSettled(); err != nil || settled {
			t.Errorf("rollup=%t: contract settled=%t (err %v) behind an unenforced dispute", rc != nil, settled, err)
		}
	}
}

func waitFor(tb testing.TB, d time.Duration, what string, cond func() bool) {
	tb.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	tb.Fatalf("timed out waiting for %s", what)
}

// TestWhisperDropsInHubMetrics: envelope loss on the hub's whisper
// network surfaces in the hub's metrics snapshot.
func TestWhisperDropsInHubMetrics(t *testing.T) {
	c, net, faucetKey := miningWorld(t, "auto")
	h := New(c, net, faucetKey, Config{Workers: 1})
	defer h.Stop()
	if d := h.Metrics().WhisperDrops; d != 0 {
		t.Fatalf("fresh hub reports %d whisper drops", d)
	}
	key, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xBEEF))
	if err != nil {
		t.Fatal(err)
	}
	nd := net.NewNode(key)
	topic := whisper.TopicFromString("stuck-subscriber")
	stuckKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xBEF0))
	if err != nil {
		t.Fatal(err)
	}
	_ = net.NewNode(stuckKey).Subscribe(topic) // never drained
	for i := 0; i < 300; i++ {
		if _, err := nd.Post(topic, []byte{byte(i)}, whisper.PostOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if d := h.Metrics().WhisperDrops; d == 0 {
		t.Error("whisper drops not surfaced in hub metrics")
	}
}
