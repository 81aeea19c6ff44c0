package hub

import (
	"sync"
	"time"

	"onoffchain/internal/telemetry"
)

// metrics is the hub's counter set, backed by a telemetry registry so the
// same numbers appear in Snapshot() and on /metrics without ever being
// tracked twice. When the hub isn't given a registry it creates a private
// one: the counters always exist, only the exposition surface is opt-in.
type metrics struct {
	startedAt time.Time
	reg       *telemetry.Registry

	sessionsStarted   *telemetry.Counter
	sessionsCompleted *telemetry.Counter
	sessionsFailed    *telemetry.Counter

	sessionsRecovered  *telemetry.Counter // sessions resumed from the WAL by Recover
	sessionsAbandoned  *telemetry.Counter // sessions Recover could not safely resume
	illegalTransitions *telemetry.Counter // lifecycle moves outside ValidTransition

	// Settlement-commit cost, the axis the rollup amortizes: transactions
	// and gas spent committing outcomes on chain — submit+finalize in
	// per-session mode, one postEpoch per batch in rollup mode. Dispute
	// enforcement cost is NOT included (identical machinery either way).
	settleTxs *telemetry.Counter
	settleGas *telemetry.Counter

	stageMu sync.Mutex
	stages  map[Stage]*telemetry.Histogram // hub_stage_seconds{stage=...}
}

func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &metrics{
		startedAt:          time.Now(),
		reg:                reg,
		sessionsStarted:    reg.Counter("hub_sessions_started_total"),
		sessionsCompleted:  reg.Counter("hub_sessions_completed_total"),
		sessionsFailed:     reg.Counter("hub_sessions_failed_total"),
		sessionsRecovered:  reg.Counter("hub_sessions_recovered_total"),
		sessionsAbandoned:  reg.Counter("hub_sessions_abandoned_total"),
		illegalTransitions: reg.Counter("hub_illegal_transitions_total"),
		settleTxs:          reg.Counter("hub_settle_txs_total"),
		settleGas:          reg.Counter("hub_settle_gas_total"),
		stages:             make(map[Stage]*telemetry.Histogram),
	}
}

// stageHistogram lazily creates the per-stage latency histogram. Stages
// are a small fixed set, so the map stops growing after the first few
// sessions.
func (m *metrics) stageHistogram(s Stage) *telemetry.Histogram {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	h := m.stages[s]
	if h == nil {
		h = m.reg.Histogram("hub_stage_seconds", telemetry.DurationBuckets(), "stage", s.String())
		m.stages[s] = h
	}
	return h
}

func (m *metrics) recordStage(s Stage, d time.Duration) {
	m.stageHistogram(s).Observe(d.Seconds())
}

// StageStats summarizes the observed latency of one lifecycle stage.
type StageStats struct {
	Count uint64
	Avg   time.Duration
	Max   time.Duration
}

// Snapshot is a point-in-time copy of the hub's counters. The dispute,
// submission and leaf-open counts are its tower's (tower.Snapshot).
type Snapshot struct {
	Elapsed           time.Duration
	SessionsStarted   uint64
	SessionsCompleted uint64
	SessionsFailed    uint64
	// SessionsPerSec is completed sessions divided by elapsed wall time.
	SessionsPerSec float64
	DisputesRaised uint64
	DisputesWon    uint64
	// DisputesDeferred counts dispute-gate deferrals: windows this tower
	// left to a federated peer (at least for one arbitration round).
	DisputesDeferred uint64
	// DisputesEscalated counts filings sent after at least one gate
	// deferral: a federated backup filing once its slot's stagger ran out.
	DisputesEscalated uint64
	SubmissionsSeen   uint64
	// WhisperDrops is the whisper network's envelope-loss counter (expiry
	// + backpressure) at snapshot time; growth means gossip — federation
	// records included — is being dropped. It reads the whisper-owned
	// telemetry counters that whisper_dropped_total exports.
	WhisperDrops int
	// SessionsRecovered / SessionsAbandoned count hub.Recover outcomes.
	SessionsRecovered uint64
	SessionsAbandoned uint64
	// IllegalTransitions counts lifecycle moves outside ValidTransition;
	// it must be zero in a correct hub.
	IllegalTransitions uint64
	// SettleTxs / SettleGas meter settlement COMMITS: submit+finalize
	// transactions in per-session mode, postEpoch transactions in rollup
	// mode. Dispute-enforcement cost is excluded from both, so the pair is
	// a like-for-like comparison of what batching amortizes.
	SettleTxs uint64
	SettleGas uint64
	// LeavesOpened counts rollup leaves pinned on chain by disputes.
	LeavesOpened uint64
	Stages       map[Stage]StageStats
}

func (m *metrics) snapshot() Snapshot {
	elapsed := time.Since(m.startedAt)
	snap := Snapshot{
		Elapsed:            elapsed,
		SessionsStarted:    m.sessionsStarted.Value(),
		SessionsCompleted:  m.sessionsCompleted.Value(),
		SessionsFailed:     m.sessionsFailed.Value(),
		SessionsRecovered:  m.sessionsRecovered.Value(),
		SessionsAbandoned:  m.sessionsAbandoned.Value(),
		IllegalTransitions: m.illegalTransitions.Value(),
		SettleTxs:          m.settleTxs.Value(),
		SettleGas:          m.settleGas.Value(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		snap.SessionsPerSec = float64(snap.SessionsCompleted) / sec
	}
	m.stageMu.Lock()
	snap.Stages = make(map[Stage]StageStats, len(m.stages))
	for s, h := range m.stages {
		st := StageStats{Count: h.Count(), Max: time.Duration(h.Max() * float64(time.Second))}
		if st.Count > 0 {
			st.Avg = time.Duration(h.Sum() / float64(st.Count) * float64(time.Second))
		}
		snap.Stages[s] = st
	}
	m.stageMu.Unlock()
	return snap
}
