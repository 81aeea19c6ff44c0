package main

import (
	"fmt"

	"onoffchain/internal/chain"
	"onoffchain/internal/hub"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/types"
)

// This file is the benchmark's whole definition of "a successful
// session" and "a correct run". A run that fails any check here exits
// non-zero with the reasons instead of numbers.
//
// Outcome VALUES are never compared across runs: party keys come from a
// hub-global counter bumped in worker scheduling order, and the betting
// outcome is seeded from the party addresses (ROADMAP item 1).

// verifySessions checks each sample on its own and returns one line per
// failed session:
//
//   - the report carries no error;
//   - an honest spec ends Settled (RolledUp in rollup mode) undisputed, a
//     lying spec ends Resolved with Disputed set — a lie that settled is
//     a lie that went undisputed;
//   - a resumed session (crash_recover) may legitimately end either way:
//     recovery re-submits honestly when the lying representative died
//     before submitting, and finishes the dispute when it did not;
//   - the value the chain enforced (the one ResultFinalized or
//     DisputeResolved log of the session's contract) equals the unanimous
//     off-chain result;
//     an honest rolled-up leaf has no transaction of its own, so there
//     the submitted leaf value is compared instead.
//
// Crashed tickets are not sessions that ended; verifyCrash accounts for
// them.
func verifySessions(w *world, samples []*sample) []string {
	var bad []string
	fail := func(s *sample, format string, args ...interface{}) {
		bad = append(bad, fmt.Sprintf("session %d (index %d, adversarial=%v): %s", s.id, s.idx, s.adversarial, fmt.Sprintf(format, args...)))
	}
	honestEnd := hub.StageSettled
	if w.wl.rollup != nil {
		honestEnd = hub.StageRolledUp
	}
	for _, s := range samples {
		if s.crashed() {
			continue
		}
		if s.err != nil {
			fail(s, "error: %v", s.err)
			continue
		}
		switch {
		case s.recovered:
			if !(s.stage == honestEnd && !s.disputed) && !(s.stage == hub.StageResolved && s.disputed) {
				fail(s, "resumed session ended %s, disputed=%v", s.stage, s.disputed)
				continue
			}
		case s.adversarial:
			if s.stage != hub.StageResolved || !s.disputed {
				fail(s, "lie ended %s, disputed=%v (want resolved by dispute)", s.stage, s.disputed)
				continue
			}
		default:
			if s.stage != honestEnd || s.disputed {
				fail(s, "honest session ended %s, disputed=%v (want %s undisputed)", s.stage, s.disputed, honestEnd)
				continue
			}
		}
		if s.stage == hub.StageRolledUp {
			if s.submitted != s.result {
				fail(s, "rolled-up leaf %d differs from the off-chain result %d", s.submitted, s.result)
			}
			continue
		}
		// Which log carries the enforced value follows from the stage —
		// except for a resumed session, where the chain is asked for
		// either: when the dead hub's finalization was still in the pool
		// at the kill and is mined during recovery, the recovered hub finds
		// the contract settled behind its back and reports the session
		// resolved by dispute, though no dispute was ever filed (seen once
		// in ~50 cycles; the enforced value is right, the label is not).
		topics := []types.Hash{hybrid.TopicResultFinalized}
		if s.recovered {
			topics = append(topics, hybrid.TopicDisputeResolved)
		} else if s.stage == hub.StageResolved {
			topics[0] = hybrid.TopicDisputeResolved
		}
		var logs []*types.Log
		for i := range topics {
			logs = append(logs, w.chain.FilterLogs(chain.FilterQuery{Address: &s.addr, Topic: &topics[i]})...)
		}
		if len(logs) != 1 {
			fail(s, "%d settlement logs on chain, want exactly 1", len(logs))
			continue
		}
		if v, err := hybrid.DecodeResultWord(logs[0]); err != nil || v != s.result {
			fail(s, "chain enforced %d (err %v), off-chain result %d", v, err, s.result)
		}
	}
	return bad
}

// verifyFleet checks the counters the program itself exports against
// what the harness submitted during one hub generation's lifetime
// (warm-up included). It is skipped for crash_recover, whose generations
// die mid-flight; verifyCrash covers those.
//
//   - hub.Metrics(): SessionsCompleted equals the sessions attempted,
//     IllegalTransitions and WhisperDrops are zero;
//   - disputes won equal the lying sessions exactly — summed over every
//     federation member when federated, where filed ≥ won (a filing that
//     lost the race reverts and is never enforced);
//   - rollup mode: epochs posted = sessions ÷ EpochCap exactly, i.e. no
//     epoch sealed by age.
func verifyFleet(w *world, attempted, lying int) []string {
	var bad []string
	m := w.hub.Metrics()
	if int(m.SessionsCompleted) != attempted {
		bad = append(bad, fmt.Sprintf("hub completed %d sessions, harness attempted %d", m.SessionsCompleted, attempted))
	}
	if m.IllegalTransitions != 0 {
		bad = append(bad, fmt.Sprintf("%d illegal lifecycle transitions", m.IllegalTransitions))
	}
	if m.WhisperDrops != 0 {
		bad = append(bad, fmt.Sprintf("%d whisper envelopes dropped", m.WhisperDrops))
	}
	filed, won := m.DisputesRaised, m.DisputesWon
	if len(w.towers) > 0 {
		filed, won = 0, 0
		for _, t := range w.towers {
			fm := t.Metrics()
			filed += fm.DisputesFiled
			won += fm.DisputesWon
		}
	}
	if int(won) != lying || filed < won {
		bad = append(bad, fmt.Sprintf("disputes filed %d / won %d for %d lying sessions", filed, won, lying))
	}
	if rc := w.wl.rollup; rc != nil {
		// Settlement commits in rollup mode are epoch posts, nothing else.
		if want := attempted / rc.EpochCap; attempted%rc.EpochCap != 0 || int(m.SettleTxs) != want {
			bad = append(bad, fmt.Sprintf("%d epochs posted for %d sessions, want exactly %d (an epoch sealed by age?)", m.SettleTxs, attempted, want))
		}
	}
	return bad
}

// verifyCrash checks crash_recover's ledger: every session a hub accepted
// either reached a terminal stage (before the kill, or as a resumed
// ticket) or was reported abandoned by Recover. A session that is neither
// is lost, and that is a failure.
func verifyCrash(l *crashLedger) []string {
	if l.Lost != 0 {
		return []string{fmt.Sprintf("%d accepted sessions neither terminal nor reported abandoned over %d crash cycles", l.Lost, l.Cycles)}
	}
	return nil
}
