package hub

// Stage is one state of the per-session lifecycle state machine. A session
// moves strictly forward; the terminal states are StageSettled (honest
// finalization), StageResolved (dispute enforced the true result),
// StageRolledUp (outcome committed under a posted rollup epoch root) and
// StageFailed.
//
//	Pending → Split → Deployed → Signed → Executed → Submitted
//	                                                     │
//	                            ┌────────────────────────┼──────────┐
//	                            ▼                        ▼          ▼
//	                        Disputed → Resolved      Settled    RolledUp
//
// In rollup settlement, StageSubmitted means "leaf enqueued with the
// sequencer" rather than "result transaction mined"; the submit record
// (the leaf's own, in rollup mode) is the same durable fact either way. Any stage can fall into StageFailed
// on error.
type Stage int

const (
	// StagePending: queued, no worker has picked the session up yet.
	StagePending Stage = iota
	// StageSplit: stage 1 (split/generate) artifacts are ready.
	StageSplit
	// StageDeployed: the on-chain half is live (first half of stage 2).
	StageDeployed
	// StageSigned: every participant holds the verified signed copy
	// (second half of stage 2, deploy/sign).
	StageSigned
	// StageExecuted: the off-chain contract ran privately and unanimously
	// (first half of stage 3).
	StageExecuted
	// StageSubmitted: a result is on-chain and the challenge window is
	// open (second half of stage 3, submit/challenge).
	StageSubmitted
	// StageSettled: the unchallenged result finalized after the window.
	StageSettled
	// StageDisputed: the watchtower (or a party) opened stage 4 with
	// deployVerifiedInstance.
	StageDisputed
	// StageResolved: returnDisputeResolution enforced the recomputed
	// result; the contract is settled with the true outcome.
	StageResolved
	// StageFailed: the session aborted; Report.Err has the cause.
	StageFailed
	// StageRolledUp: rollup settlement — the session's outcome leaf is
	// committed under a posted epoch root and its batch challenge window
	// opened without a dispute. Appended after StageFailed so the numeric
	// values of pre-rollup stages stay stable in the WAL.
	StageRolledUp
)

var stageNames = map[Stage]string{
	StagePending:   "pending",
	StageSplit:     "split",
	StageDeployed:  "deployed",
	StageSigned:    "signed",
	StageExecuted:  "executed",
	StageSubmitted: "submitted",
	StageSettled:   "settled",
	StageDisputed:  "disputed",
	StageResolved:  "resolved",
	StageFailed:    "failed",
	StageRolledUp:  "rolled-up",
}

func (s Stage) String() string {
	if n, ok := stageNames[s]; ok {
		return n
	}
	return "unknown"
}

// Terminal reports whether the state machine stops at s.
func (s Stage) Terminal() bool {
	return s == StageSettled || s == StageResolved || s == StageFailed || s == StageRolledUp
}

// validNext encodes the lifecycle DAG drawn above: the only legal
// successors of each stage. StageFailed is reachable from every
// non-terminal stage and is handled in ValidTransition directly.
var validNext = map[Stage][]Stage{
	StagePending:   {StageSplit},
	StageSplit:     {StageDeployed},
	StageDeployed:  {StageSigned},
	StageSigned:    {StageExecuted},
	StageExecuted:  {StageSubmitted},
	StageSubmitted: {StageSettled, StageDisputed, StageRolledUp},
	StageDisputed:  {StageResolved},
}

// ValidTransition reports whether a session may move from stage `from`
// directly to stage `to`. The hub checks every transition it takes
// against this relation and counts violations in Metrics (the lifecycle
// property test asserts the count stays zero).
func ValidTransition(from, to Stage) bool {
	if from.Terminal() {
		return false // terminal means terminal
	}
	if to == StageFailed {
		return true
	}
	for _, n := range validNext[from] {
		if n == to {
			return true
		}
	}
	return false
}
