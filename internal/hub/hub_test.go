package hub

import (
	"testing"

	"onoffchain/internal/chain"
	"onoffchain/internal/secp256k1"
	"onoffchain/internal/types"
	"onoffchain/internal/uint256"
	"onoffchain/internal/whisper"
)

// newHub builds a dev chain with a rich faucet and a hub on top of it.
func newTestHub(tb testing.TB, workers int) (*Hub, *chain.Chain) {
	tb.Helper()
	faucetKey, err := secp256k1.PrivateKeyFromScalar(secp256k1.ScalarFromUint64(0xFA0CE7))
	if err != nil {
		tb.Fatal(err)
	}
	faucetAddr := types.Address(faucetKey.EthereumAddress())
	c := chain.NewDefault(map[types.Address]*uint256.Int{
		faucetAddr: new(uint256.Int).Mul(uint256.NewInt(100_000_000), uint256.NewInt(1e18)),
	})
	net := whisper.NewNetwork(c.Now)
	h := New(c, net, faucetKey, Config{Workers: workers})
	tb.Cleanup(h.Stop)
	return h, c
}

// requireWinnerPaid asserts the settled pot went to the true winner: each
// party was funded 5 ether and deposited 1, so the winner ends above the
// funding line and the loser below it.
func requireWinnerPaid(t *testing.T, rep *Report) {
	t.Helper()
	sess := rep.Session
	winner := sess.Parties[rep.Result]
	loser := sess.Parties[1-rep.Result]
	if got := winner.Chain.BalanceAt(winner.Addr); got.Lt(eth(5)) {
		t.Errorf("winner balance %s, want > 5 ether", got)
	}
	if got := loser.Chain.BalanceAt(loser.Addr); !got.Lt(eth(5)) {
		t.Errorf("loser balance %s, want < 5 ether", got)
	}
	if settled, err := sess.IsSettled(); err != nil || !settled {
		t.Errorf("contract not settled: %v", err)
	}
}

func TestHubHonestLifecycle(t *testing.T) {
	h, _ := newTestHub(t, 2)
	rep := h.Submit(BettingSpec(16, 600, false)).Report()
	if rep.Err != nil {
		t.Fatalf("session failed: %v", rep.Err)
	}
	if rep.Stage != StageSettled {
		t.Fatalf("terminal stage = %s, want settled", rep.Stage)
	}
	if rep.Disputed {
		t.Error("honest session was disputed")
	}
	requireWinnerPaid(t, rep)
	// The state machine passed through every stage.
	for _, s := range []Stage{StageSplit, StageDeployed, StageSigned, StageExecuted, StageSubmitted, StageSettled} {
		if _, ok := rep.Latency[s]; !ok {
			t.Errorf("no latency recorded for stage %s", s)
		}
	}
	m := h.Metrics()
	if m.SessionsCompleted != 1 || m.SessionsFailed != 0 {
		t.Errorf("metrics completed=%d failed=%d", m.SessionsCompleted, m.SessionsFailed)
	}
	if m.DisputesRaised != 0 {
		t.Errorf("metrics disputes=%d, want 0", m.DisputesRaised)
	}
	if m.SubmissionsSeen != 1 {
		t.Errorf("watchtower saw %d submissions, want 1", m.SubmissionsSeen)
	}
}

// TestWatchtowerAutoDispute is the headline safety property: a dishonest
// representative submits a flipped result; the watchtower catches the
// mismatch from chain events and files the dispute inside the challenge
// window; the dispute machinery recomputes and enforces the TRUE result.
func TestWatchtowerAutoDispute(t *testing.T) {
	h, _ := newTestHub(t, 2)
	rep := h.Submit(BettingSpec(16, 600, true)).Report()
	if rep.Err != nil {
		t.Fatalf("session failed: %v", rep.Err)
	}
	if rep.Stage != StageResolved {
		t.Fatalf("terminal stage = %s, want resolved", rep.Stage)
	}
	if !rep.Disputed {
		t.Fatal("adversarial submission was not disputed")
	}
	if rep.Submitted == rep.Result {
		t.Fatal("fixture bug: adversary submitted the true result")
	}
	// The pot went to the true winner despite the lie.
	requireWinnerPaid(t, rep)
	// The dispute landed before the challenge window expired.
	at, deadline := rep.Watch.DisputeTiming()
	if at == 0 || deadline == 0 || at > deadline {
		t.Errorf("dispute at t=%d, window deadline t=%d: not within the window", at, deadline)
	}
	if w := h.Watchtower().OpenWindows(); w != 0 {
		t.Errorf("%d windows still open after resolution", w)
	}
	m := h.Metrics()
	if m.DisputesRaised != 1 || m.DisputesWon != 1 {
		t.Errorf("disputes raised=%d won=%d, want 1/1", m.DisputesRaised, m.DisputesWon)
	}
}

// TestHubConcurrentMixed drives a mixed fleet — honest and adversarial,
// betting and auction — through the pool concurrently and checks every
// session terminates in the right state with the right payout.
func TestHubConcurrentMixed(t *testing.T) {
	h, _ := newTestHub(t, 8)
	var specs []*Spec
	for i := 0; i < 10; i++ {
		specs = append(specs,
			BettingSpec(8, 600, false),
			AuctionSpec(600, false),
			BettingSpec(8, 600, i%2 == 0),
			AuctionSpec(600, i%3 == 0),
		)
	}
	reports := h.Run(specs)
	adversarial := 0
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("session %d (%s) failed: %v", i, rep.Scenario, rep.Err)
		}
		if specs[i].Adversarial {
			adversarial++
			if rep.Stage != StageResolved || !rep.Disputed {
				t.Errorf("session %d (%s): stage=%s disputed=%v, want resolved dispute", i, rep.Scenario, rep.Stage, rep.Disputed)
			}
		} else {
			if rep.Stage != StageSettled || rep.Disputed {
				t.Errorf("session %d (%s): stage=%s disputed=%v, want clean settle", i, rep.Scenario, rep.Stage, rep.Disputed)
			}
		}
		requireWinnerPaid(t, rep)
	}
	m := h.Metrics()
	if int(m.SessionsCompleted) != len(specs) {
		t.Errorf("completed %d of %d", m.SessionsCompleted, len(specs))
	}
	if int(m.DisputesRaised) != adversarial || int(m.DisputesWon) != adversarial {
		t.Errorf("disputes raised=%d won=%d, want %d", m.DisputesRaised, m.DisputesWon, adversarial)
	}
	if int(m.SubmissionsSeen) != len(specs) {
		t.Errorf("watchtower saw %d submissions, want %d", m.SubmissionsSeen, len(specs))
	}
}

// TestHubManySessions pushes a large concurrent batch through one chain, at
// a size the regular (race-enabled) test suite can afford; benchmark/ runs
// the fleets of record.
func TestHubManySessions(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 24
	}
	h, _ := newTestHub(t, 8)
	specs := make([]*Spec, n)
	for i := range specs {
		specs[i] = BettingSpec(4, 600, i%10 == 0)
	}
	reports := h.Run(specs)
	for i, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("session %d failed: %v", i, rep.Err)
		}
		want := StageSettled
		if specs[i].Adversarial {
			want = StageResolved
		}
		if rep.Stage != want {
			t.Errorf("session %d: stage %s, want %s", i, rep.Stage, want)
		}
	}
	m := h.Metrics()
	if int(m.SessionsCompleted) != n {
		t.Errorf("completed %d of %d", m.SessionsCompleted, n)
	}
	if m.SessionsPerSec <= 0 {
		t.Error("sessions/sec not reported")
	}
	t.Logf("%d sessions, %.1f sessions/sec, %d disputes won", n, m.SessionsPerSec, m.DisputesWon)
}
