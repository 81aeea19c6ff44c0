package federation

import (
	"fmt"
	"sync"

	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// journal is the tower's durable state: the guard states it shares duty
// for and which contracts have closed — enough for a restarted member to
// re-arm every guard, which reads its contract's chain history. It reuses the hub's WAL store (internal/store) with
// the federation record kinds; the store is this tower's own, never shared
// with a hub WAL.
type journal struct {
	st   *store.Store // nil: in-memory tower, no durability
	logf func(string, ...interface{})
	lost sync.Once // the first append failure is reported, the rest are not
}

// log appends one record. Callers come from the tower's event loop, dispute
// workers and all three federation loops at once; the store orders and
// group-commits them, and once an append fails it refuses every later one.
// Unlike the hub's WAL (where lost durability must fail sessions), a
// federation tower keeps guarding from memory when its disk dies —
// protecting open windows NOW outranks surviving a restart.
func (j *journal) log(rec *store.Record) {
	if j.st == nil {
		return
	}
	if err := j.st.Append(rec); err != nil {
		j.lost.Do(func() {
			j.logf("federation: journal lost durability (guarding continues in memory): %v", err)
		})
	}
}

// guardExport is the durable identity of one guarded session — exactly
// what a federated backup tower needs to share guard duty: rebuild the
// session from the registry spec and the party scalars, and (if it comes to
// that) dispute as party 0. It travels and rests as one KindFedGuard record.
type guardExport struct {
	SID      uint64
	Scenario string
	Contract types.Address
	Scalars  [][]byte
	CopyEnc  []byte
	// Trace is the session's causal identity, so a backup tower's adoption
	// (and any dispute it files) appears in the same trace as the hub's own
	// spans. It rides the gossip envelope, not the record: zero when the hub
	// runs untraced and for guards re-armed from a journal.
	Trace telemetry.TraceContext
}

// guardRecord encodes a guard export. Layout documented on KindFedGuard:
// Blobs[0] = contract, Blobs[1] = signed copy, Blobs[2:] = party scalars.
func guardRecord(g *guardExport) *store.Record {
	blobs := make([][]byte, 0, len(g.Scalars)+2)
	blobs = append(blobs, g.Contract[:], g.CopyEnc)
	blobs = append(blobs, g.Scalars...)
	return &store.Record{Kind: store.KindFedGuard, SID: g.SID, Str: g.Scenario, Blobs: blobs}
}

func decodeGuardRecord(rec *store.Record) (*guardExport, error) {
	if len(rec.Blobs) < 3 || len(rec.Blobs[0]) != 20 {
		return nil, fmt.Errorf("federation: malformed guard record")
	}
	return &guardExport{
		SID: rec.SID, Scenario: rec.Str,
		Contract: types.BytesToAddress(rec.Blobs[0]),
		CopyEnc:  rec.Blobs[1], Scalars: rec.Blobs[2:],
	}, nil
}

// foldState is what a federation store replays to: the latest guard per
// contract, minus closed ones. Windows are not kept — a re-armed guard
// reopens them from the chain. Member, intent, window and cursor records,
// which older journals carry, fold to nothing (a window record's verdict
// hint included).
type foldState struct {
	guards map[types.Address]*guardExport
	closed map[types.Address]bool
}

// foldFederation replays a federation store's record stream. Malformed
// records are skipped (the store's CRC framing already rejects torn
// frames; a skipped guard merely means the tower re-adopts it from
// gossip).
func foldFederation(recs []*store.Record) *foldState {
	fs := &foldState{
		guards: make(map[types.Address]*guardExport),
		closed: make(map[types.Address]bool),
	}
	for _, rec := range recs {
		switch rec.Kind {
		case store.KindFedGuard:
			if g, err := decodeGuardRecord(rec); err == nil {
				fs.guards[g.Contract] = g
			}
		case store.KindFedClosed:
			if len(rec.Blob) == 20 {
				c := types.BytesToAddress(rec.Blob)
				fs.closed[c] = true
				delete(fs.guards, c)
			}
		}
	}
	return fs
}
