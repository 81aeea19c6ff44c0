package federation

import (
	"bytes"
	"sort"

	"onoffchain/internal/keccak"
	"onoffchain/internal/types"
)

// Guard assignment: rendezvous (highest-random-weight) hashing of the
// contract address over the member set. Every member computes the same
// ranking independently, with no coordination and no reshuffling storm
// when membership changes — removing one member only reassigns the
// contracts it was ranked first for.
//
// The ranking is always taken over the FULL configured member set, and a
// tower's rank in it is its SLOT for the contract:
//
//   - Slot 0 files at once.
//   - Slot k files k*EscalateAfter after its own pacer first found the lie.
//
// No view of who is alive enters the decision. Slots are
// partition-independent: two towers whose gossip is severed still hold
// different slots, so their filings stay time-staggered and the second
// one hits the chain's settled veto instead of double-filing. A dead slot
// 0 costs one EscalateAfter of dispute latency, never the dispute.
func rendezvousRank(members []types.Address, contract types.Address) []types.Address {
	type scored struct {
		m     types.Address
		score []byte
	}
	ranked := make([]scored, len(members))
	for i, m := range members {
		ranked[i] = scored{m: m, score: keccak.Sum256Bytes(contract[:], m[:])}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if c := bytes.Compare(ranked[i].score, ranked[j].score); c != 0 {
			return c > 0 // highest score first
		}
		return bytes.Compare(ranked[i].m[:], ranked[j].m[:]) < 0
	})
	out := make([]types.Address, len(ranked))
	for i, r := range ranked {
		out[i] = r.m
	}
	return out
}

// slotOf returns self's escalation slot for the contract: its index in
// the full-member rendezvous ranking (0 = files at once). Returns
// len(members) if self is not a configured member.
func slotOf(members []types.Address, contract, self types.Address) int {
	for i, m := range rendezvousRank(members, contract) {
		if m == self {
			return i
		}
	}
	return len(members)
}
