package tower

import "onoffchain/internal/telemetry"

// metrics is the tower's counter set. The series keep the names they had
// when the tower lived in the hub's package (hub_disputes_*, ...): a hub
// hands its tower the registry it publishes into, so one scrape reads both,
// and the hub's Snapshot reads these counters through Watchtower.Metrics.
type metrics struct {
	disputesRaised    *telemetry.Counter
	disputesWon       *telemetry.Counter
	disputesDeferred  *telemetry.Counter // gate deferrals (slot 0 or a rival filer goes first)
	disputesEscalated *telemetry.Counter // filings sent after at least one deferral
	submissionsSeen   *telemetry.Counter // submissions the watchtower examined
	leavesOpened      *telemetry.Counter // rollup leaves pinned on chain by disputes
}

func newMetrics(reg *telemetry.Registry) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	return &metrics{
		disputesRaised:    reg.Counter("hub_disputes_raised_total"),
		disputesWon:       reg.Counter("hub_disputes_won_total"),
		disputesDeferred:  reg.Counter("hub_disputes_deferred_total"),
		disputesEscalated: reg.Counter("hub_disputes_escalated_total"),
		submissionsSeen:   reg.Counter("hub_submissions_seen_total"),
		leavesOpened:      reg.Counter("hub_rollup_leaves_opened_total"),
	}
}

// Snapshot is a point-in-time copy of the tower's counters; hub.Snapshot
// documents each.
type Snapshot struct {
	DisputesRaised, DisputesWon, DisputesDeferred, DisputesEscalated uint64
	SubmissionsSeen, LeavesOpened                                    uint64
}

func (m *metrics) snapshot() Snapshot {
	return Snapshot{
		DisputesRaised:    m.disputesRaised.Value(),
		DisputesWon:       m.disputesWon.Value(),
		DisputesDeferred:  m.disputesDeferred.Value(),
		DisputesEscalated: m.disputesEscalated.Value(),
		SubmissionsSeen:   m.submissionsSeen.Value(),
		LeavesOpened:      m.leavesOpened.Value(),
	}
}
