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
	sigRejected    *telemetry.Counter // envelopes dropped for a bad or missing sender signature
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
	IntentsSeen uint64
	// Escalations, DisputesFiled and DisputesWon are the wrapped tower's
	// hub.Snapshot DisputesEscalated, DisputesRaised and DisputesWon: the
	// tower counts its own filings, and Tower.Metrics reads them there.
	Escalations   uint64
	DisputesFiled uint64
	DisputesWon   uint64
	// SigRejected counts envelopes dropped for a missing or invalid sender
	// signature.
	SigRejected uint64
	// Guards counts contracts currently under this tower's guard.
	Guards int
}

func (m *metrics) snapshot() Snapshot {
	return Snapshot{
		GuardsExported: m.guardsExported.Value(),
		GuardsAdopted:  m.guardsAdopted.Value(),
		SigRejected:    m.sigRejected.Value(),
	}
}
