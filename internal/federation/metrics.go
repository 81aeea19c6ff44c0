package federation

import "onoffchain/internal/telemetry"

// metrics is the tower's counter set, backed by a telemetry registry
// under federation_* series names (labeled with the tower so a fleet
// sharing one registry keeps distinct series). Without a configured
// registry the tower keeps a private one — Snapshot always works, only
// the exposition surface is opt-in.
type metrics struct {
	guardsExported *telemetry.Counter // own sessions gossiped to the fleet
	guardsAdopted  *telemetry.Counter // peers' sessions taken under guard
	escalations    *telemetry.Counter // backup filings after the staggered wait
	disputesFiled  *telemetry.Counter // disputes this tower filed
	disputesWon    *telemetry.Counter // ... that the chain enforced
	dropWarnings   *telemetry.Counter // gossip-loss warnings logged
	sigRejected    *telemetry.Counter // signed-gossip mode: envelopes dropped for bad/missing sender signature
}

func newMetrics(reg *telemetry.Registry, tower string) *metrics {
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	c := func(name string) *telemetry.Counter {
		return reg.Counter(name, "tower", tower)
	}
	return &metrics{
		guardsExported: c("federation_guards_exported_total"),
		guardsAdopted:  c("federation_guards_adopted_total"),
		escalations:    c("federation_escalations_total"),
		disputesFiled:  c("federation_disputes_filed_total"),
		disputesWon:    c("federation_disputes_won_total"),
		dropWarnings:   c("federation_drop_warnings_total"),
		sigRejected:    c("federation_sig_rejected_total"),
	}
}

// Snapshot is a point-in-time copy of one federation tower's counters.
type Snapshot struct {
	// HeartbeatsSent is always 0 (towers post no heartbeats); it stays
	// because the benchmark's federation.heartbeats_sent column reads it.
	HeartbeatsSent uint64
	GuardsExported uint64
	GuardsAdopted  uint64
	// VouchesHonored is always 0 (every tower verifies every window
	// itself); it stays because the benchmark's federation.vouches_honored
	// column reads it.
	VouchesHonored uint64
	// IntentsSeen is always 0 (towers gossip no dispute intents); it stays
	// because the benchmark's federation.intents_seen column reads it.
	IntentsSeen   uint64
	Escalations   uint64
	DisputesFiled uint64
	DisputesWon   uint64
	DropWarnings  uint64
	// SigRejected counts envelopes dropped by signed-gossip verification
	// (always 0 when Config.SignGossip is off).
	SigRejected uint64
	// Guards counts contracts currently under this tower's guard.
	Guards int
}

func (m *metrics) snapshot() Snapshot {
	return Snapshot{
		GuardsExported: m.guardsExported.Value(),
		GuardsAdopted:  m.guardsAdopted.Value(),
		Escalations:    m.escalations.Value(),
		DisputesFiled:  m.disputesFiled.Value(),
		DisputesWon:    m.disputesWon.Value(),
		DropWarnings:   m.dropWarnings.Value(),
		SigRejected:    m.sigRejected.Value(),
	}
}
