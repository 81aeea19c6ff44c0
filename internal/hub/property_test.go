package hub

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"onoffchain/internal/store"
)

// honestPath / disputedPath are the only stage sequences a successful
// session may record.
var (
	honestPath   = []Stage{StageSplit, StageDeployed, StageSigned, StageExecuted, StageSubmitted, StageSettled}
	disputedPath = []Stage{StageSplit, StageDeployed, StageSigned, StageExecuted, StageSubmitted, StageDisputed, StageResolved}
)

// TestLifecycleProperties drives random interleavings — mixed scenarios,
// random adversarial picks, random worker counts, and a chaos goroutine
// injecting chain events (empty blocks, clock jumps) while sessions run —
// and asserts the state-machine invariants hold in every schedule:
//
//   - every session records exactly one of the two legal stage paths, and
//     every transition the hub took passed ValidTransition (the hub
//     self-checks; IllegalTransitions must stay 0);
//   - the Metrics counters agree with the session table: all started
//     sessions terminated, disputes raised == won == adversarial count,
//     the tower saw exactly one submission per session, and nothing is
//     left live or guarded after quiescence.
//
// Half the iterations run with the WAL attached, so the journal's mirror
// bookkeeping is exercised under the same schedules.
func TestLifecycleProperties(t *testing.T) {
	iters := 4
	if testing.Short() {
		iters = 2
	}
	for iter := 0; iter < iters; iter++ {
		iter := iter
		t.Run("", func(t *testing.T) {
			rng := rand.New(rand.NewSource(0xD15EA5E + int64(iter)))
			c, net, faucetKey := durableWorld(t)
			cfg := Config{Workers: 1 + rng.Intn(8)}
			if iter%2 == 0 {
				st, err := store.Open(t.TempDir(), store.Options{SegmentSize: 128 << 10})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				cfg.Store = st
				compactingEvery(t, 4+rng.Intn(8))
			}
			h := New(c, net, faucetKey, cfg)
			defer h.Stop()

			n := 12 + rng.Intn(16)
			specs := make([]*Spec, n)
			adversarial := 0
			for i := range specs {
				adv := rng.Float64() < 0.2
				if adv {
					adversarial++
				}
				rounds := uint64(2 << rng.Intn(3))
				if rng.Intn(2) == 0 {
					specs[i] = BettingSpec(rounds, 600, adv)
				} else {
					specs[i] = AuctionSpec(600, adv)
				}
			}

			// Chaos: empty blocks and clock jumps racing the fleet. Clock
			// jumps are exactly the hazard the WaitCaughtUp barrier exists
			// for — a lie must be disputed no matter when time moves.
			done := make(chan struct{})
			var chaos sync.WaitGroup
			chaos.Add(1)
			chaosRng := rand.New(rand.NewSource(0xC4A05 + int64(iter)))
			go func() {
				defer chaos.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					switch chaosRng.Intn(3) {
					case 0:
						c.MineBlock()
					case 1:
						c.AdvanceTime(uint64(1 + chaosRng.Intn(50)))
					case 2:
						time.Sleep(time.Duration(chaosRng.Intn(500)) * time.Microsecond)
					}
				}
			}()
			reports := h.Run(specs)
			close(done)
			chaos.Wait()

			for i, rep := range reports {
				if rep.Err != nil {
					t.Fatalf("iter %d session %d (%s) failed: %v", iter, i, rep.Scenario, rep.Err)
				}
				path := honestPath
				if specs[i].Adversarial {
					path = disputedPath
					if rep.Stage != StageResolved || !rep.Disputed {
						t.Errorf("adversarial session %d: stage=%s disputed=%v", i, rep.Stage, rep.Disputed)
					}
				} else if rep.Stage != StageSettled || rep.Disputed {
					t.Errorf("honest session %d: stage=%s disputed=%v", i, rep.Stage, rep.Disputed)
				}
				// The recorded path is exactly the legal one, in order, and
				// every consecutive pair is a legal transition.
				if len(rep.Latency) != len(path) {
					t.Errorf("session %d recorded %d stages, want %d", i, len(rep.Latency), len(path))
				}
				prev := StagePending
				for _, s := range path {
					if _, ok := rep.Latency[s]; !ok {
						t.Errorf("session %d: stage %s missing from its path", i, s)
					}
					if !ValidTransition(prev, s) {
						t.Errorf("session %d: path step %s -> %s is not a legal transition", i, prev, s)
					}
					prev = s
				}
			}

			h.Watchtower().WaitCaughtUp(c.Height())
			m := h.Metrics()
			if m.IllegalTransitions != 0 {
				t.Errorf("iter %d: hub took %d illegal transitions", iter, m.IllegalTransitions)
			}
			if int(m.SessionsStarted) != n || int(m.SessionsCompleted) != n || m.SessionsFailed != 0 {
				t.Errorf("iter %d: started/completed/failed = %d/%d/%d, want %d/%d/0",
					iter, m.SessionsStarted, m.SessionsCompleted, m.SessionsFailed, n, n)
			}
			if int(m.DisputesRaised) != adversarial || int(m.DisputesWon) != adversarial {
				t.Errorf("iter %d: disputes raised/won = %d/%d, want %d/%d",
					iter, m.DisputesRaised, m.DisputesWon, adversarial, adversarial)
			}
			if int(m.SubmissionsSeen) != n {
				t.Errorf("iter %d: tower saw %d submissions, want %d", iter, m.SubmissionsSeen, n)
			}
			if h.LiveSessions() != 0 {
				t.Errorf("iter %d: %d sessions still in the mirror after quiescence", iter, h.LiveSessions())
			}
			if w := h.Watchtower().OpenWindows(); w != 0 {
				t.Errorf("iter %d: %d windows still open after quiescence", iter, w)
			}
		})
	}
}

// TestValidTransitionRelation pins the transition relation itself.
func TestValidTransitionRelation(t *testing.T) {
	legal := [][2]Stage{
		{StagePending, StageSplit}, {StageSplit, StageDeployed},
		{StageDeployed, StageSigned}, {StageSigned, StageExecuted},
		{StageExecuted, StageSubmitted}, {StageSubmitted, StageSettled},
		{StageSubmitted, StageDisputed}, {StageDisputed, StageResolved},
		{StagePending, StageFailed}, {StageSubmitted, StageFailed},
	}
	for _, p := range legal {
		if !ValidTransition(p[0], p[1]) {
			t.Errorf("%s -> %s should be legal", p[0], p[1])
		}
	}
	illegal := [][2]Stage{
		{StagePending, StageDeployed}, // skipping a stage
		{StageSplit, StageSigned},
		{StageExecuted, StageSettled}, // settling without submitting
		{StageSettled, StageDisputed}, // terminal means terminal
		{StageResolved, StageSubmitted},
		{StageFailed, StageSplit},
		{StageSettled, StageFailed},
		{StageDeployed, StageDeployed},  // self-loop
		{StageSubmitted, StageResolved}, // resolving without the dispute step
	}
	for _, p := range illegal {
		if ValidTransition(p[0], p[1]) {
			t.Errorf("%s -> %s should be illegal", p[0], p[1])
		}
	}
}
