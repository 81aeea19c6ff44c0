package hub

import (
	"sync"
	"time"

	"onoffchain/internal/store"
	"onoffchain/internal/telemetry"
	"onoffchain/internal/types"
)

// sessionState is the durable view of one session: exactly what can be
// folded back out of the WAL. The hub keeps an in-memory mirror of it for
// every live session (so compaction can synthesize snapshots without
// re-reading the log), and hub.Recover folds crashed WALs into the same
// struct — one fold function, one meaning.
type sessionState struct {
	ID       uint64
	Scenario string

	// Parties is the session's party count. The keys themselves are never
	// logged: recovery re-derives them from the session ID (Hub.deriveKey).
	Parties int

	Addr    types.Address
	CopyEnc []byte

	SetupStarted bool
	SetupDone    bool

	Submitted    uint64
	SubmittedSet bool
}

// stage is the last stage whose fact the WAL holds: the submit record
// (KindSubmitted, or the rollup leaf), else the signed copy, else the
// contract address, else the party record. It labels a recovered session;
// recovery decides nothing from it.
func (ss *sessionState) stage() Stage {
	switch {
	case ss.SubmittedSet:
		return StageSubmitted
	case ss.CopyEnc != nil:
		return StageSigned
	case !ss.Addr.IsZero():
		return StageDeployed
	case ss.Parties > 0:
		return StageSplit
	}
	return StagePending
}

// journal owns the WAL and its in-memory mirror. Every mutation goes
// through log(), which reserves the record's WAL position and applies it
// to the mirror under one lock — so mirror order and durable order are
// identical even though durability itself is awaited outside the lock
// (group commit). Terminal records evict the session from the mirror
// and, every compactEvery terminals, trigger snapshot compaction.
type journal struct {
	mu           sync.Mutex
	st           *store.Store // nil: in-memory hub, no durability
	sessions     map[uint64]*sessionState
	sidHigh      uint64 // highest session ID ever issued
	terminals    int
	compactEvery int
	appendErr    error // sticky: first WAL failure poisons the journal
	// tracer, when set, records one store-layer span per durable append
	// (reserve through group-commit completion) under the record's SID.
	tracer *telemetry.Tracer
	// extra, when set, contributes subsystem state to compaction snapshots
	// (the rollup sequencer's registry + epoch records). It is called with
	// j.mu held and must not journal — the sequencer's StateRecords only
	// takes its own lock, and the sequencer never journals while holding
	// it, so the j.mu → sequencer-lock order is acyclic.
	extra func() []*store.Record
}

// compactEvery is how many terminal sessions pass between WAL snapshot
// compactions. A variable only so a test can compact often without
// running hundreds of sessions.
var compactEvery = 512

func newJournal(st *store.Store) *journal {
	return &journal{st: st, sessions: make(map[uint64]*sessionState), compactEvery: compactEvery}
}

// log applies one record to the mirror and makes it durable. An append
// failure is sticky: a hub that can no longer write its WAL must stop
// claiming durability, so every later log fails too.
//
// The record's WAL position is reserved (AppendAsync) and the mirror
// updated under j.mu, so mirror order and durable order can never
// diverge; the wait for durability happens OUTSIDE the lock, which is
// what lets many workers' records coalesce into one group commit at the
// store. The mirror may therefore briefly lead the WAL by records whose
// flush is still in flight — and a compaction triggered by another
// worker in that window snapshots them as if flushed. That direction of
// divergence is the safe one: it is written ahead of its side effect,
// which recovery is built to over-trust (the chain outranks the WAL for
// every on-chain fact, and a submit record without a matching chain
// event is simply redone or closed out). What must never happen is the
// WAL UNDER-claiming versus actions taken, and it cannot: the caller does
// not act (and no terminal-triggered compaction runs) until its own wait
// returns, queue order means a successful later flush implies every
// earlier reservation flushed, and a failed flush is sticky at BOTH
// layers — this journal stops logging and the store refuses further
// appends and compactions.
func (j *journal) log(rec *store.Record) error {
	j.mu.Lock()
	if j.appendErr != nil {
		j.mu.Unlock()
		return j.appendErr
	}
	var wait func() error
	var appendStart time.Time
	if j.st != nil {
		if j.tracer != nil {
			appendStart = time.Now()
		}
		wait = j.st.AppendAsync(rec)
	}
	j.applyLocked(rec)
	j.mu.Unlock()
	if wait == nil {
		return nil
	}
	if j.tracer != nil && rec.SID != 0 {
		defer func() {
			j.tracer.Record(rec.SID, "store", "append:"+rec.Kind.String(), appendStart, time.Since(appendStart), "")
		}()
	}
	if err := wait(); err != nil {
		j.mu.Lock()
		if j.appendErr == nil {
			j.appendErr = err
		}
		j.mu.Unlock()
		return err
	}
	if rec.Kind == store.KindTerminal {
		j.mu.Lock()
		defer j.mu.Unlock()
		j.terminals++
		if j.terminals >= j.compactEvery {
			j.terminals = 0
			if err := j.st.Compact(j.stateRecordsLocked()); err != nil {
				if j.appendErr == nil {
					j.appendErr = err
				}
				return err
			}
		}
	}
	return nil
}

// applyLocked is THE fold function: it gives a record its meaning. Both
// the live mirror and crash recovery go through it.
func (j *journal) applyLocked(rec *store.Record) {
	switch {
	case rec.Kind == store.KindEpochLeaf:
		// The rollup leaf is the submit record in batch settlement. Older
		// WALs carry a KindSubmitted with the same outcome in front of it.
	case rec.Kind >= store.KindFedMember:
		// The rest of the rollup kinds are the sequencer's (rollup.Fold).
		// Federation records belong to internal/federation's own journal;
		// a hub WAL never carries them, but a fold must not misread one as
		// a session record if the stores are ever mixed.
		return
	case rec.Kind == store.KindCursor, rec.Kind == store.KindWindow, rec.Kind == store.KindDisputed:
		// Chain facts older hubs copied into the WAL: the tower re-reads
		// them from the chain, so old WALs still replay and these fold to
		// nothing.
		return
	case rec.Kind == store.KindStage:
		// Stage intents older hubs wrote before every stage: the facts
		// below say how far a session got (sessionState.stage).
		return
	case rec.Kind == store.KindKeySeq:
		// U1 (and KindParties.U3 below) carried a key-sequence high mark
		// while keys came from a counter; WALs written then still replay,
		// the mark is just not read.
		if rec.U2 > j.sidHigh {
			j.sidHigh = rec.U2
		}
		return
	}
	if rec.SID > j.sidHigh {
		j.sidHigh = rec.SID // survives the session's later eviction
	}
	ss := j.sessions[rec.SID]
	if ss == nil {
		ss = &sessionState{ID: rec.SID}
		j.sessions[rec.SID] = ss
	}
	switch rec.Kind {
	case store.KindAccepted:
		ss.Scenario = rec.Str
	case store.KindParties:
		// One blob per party, empty: only the count is read. Older WALs
		// carry each party's address, or its private scalar from before
		// keys were re-derived, and the challenge period and disputing
		// party's index in U1 and U2; none of it is read.
		ss.Parties = len(rec.Blobs)
	case store.KindDeployed:
		ss.Addr = types.BytesToAddress(rec.Blob)
	case store.KindSigned:
		ss.CopyEnc = rec.Blob
	case store.KindSetupStart:
		ss.SetupStarted = true
	case store.KindSetupDone:
		ss.SetupDone = true
	case store.KindSubmitted, store.KindEpochLeaf:
		ss.Submitted = rec.U1
		ss.SubmittedSet = true
	case store.KindTerminal:
		delete(j.sessions, rec.SID)
	}
}

// stateRecordsLocked synthesizes the minimal record stream that re-folds
// to the current mirror: the snapshot content for Compact.
func (j *journal) stateRecordsLocked() []*store.Record {
	var out []*store.Record
	for _, ss := range j.sessions {
		out = append(out, encodeSessionState(ss)...)
	}
	if j.extra != nil {
		out = append(out, j.extra()...)
	}
	return append(out, &store.Record{Kind: store.KindKeySeq, U2: j.sidHigh})
}

// encodeSessionState is the inverse of applyLocked for one session.
func encodeSessionState(ss *sessionState) []*store.Record {
	recs := []*store.Record{
		{Kind: store.KindAccepted, SID: ss.ID, Str: ss.Scenario},
	}
	if ss.Parties > 0 {
		recs = append(recs, partiesRecord(ss.ID, ss.Parties))
	}
	if !ss.Addr.IsZero() {
		recs = append(recs, &store.Record{Kind: store.KindDeployed, SID: ss.ID, Blob: ss.Addr[:]})
	}
	if ss.CopyEnc != nil {
		recs = append(recs, &store.Record{Kind: store.KindSigned, SID: ss.ID, Blob: ss.CopyEnc})
	}
	if ss.SetupStarted {
		recs = append(recs, &store.Record{Kind: store.KindSetupStart, SID: ss.ID})
	}
	if ss.SetupDone {
		recs = append(recs, &store.Record{Kind: store.KindSetupDone, SID: ss.ID})
	}
	if ss.SubmittedSet {
		// KindSubmitted in either settlement mode: a rollup leaf in the
		// snapshot would read to rollup.Fold as not yet sealed, and the
		// sequencer snapshots its own leaves (journal.extra).
		recs = append(recs, &store.Record{Kind: store.KindSubmitted, SID: ss.ID, U1: ss.Submitted})
	}
	return recs
}

// partiesRecord is the party record, live and in snapshots alike: n empty
// blobs, because the fold reads only the count.
func partiesRecord(sid uint64, n int) *store.Record {
	return &store.Record{Kind: store.KindParties, SID: sid, Blobs: make([][]byte, n)}
}

// foldRecords replays a WAL record stream into per-session state. Used by
// hub.Recover; terminal sessions are folded and then remembered separately
// so "no session lost" is checkable. sidHigh is the high mark over EVERY
// generation's session IDs — terminal sessions included — so recovery can
// floor its allocator (and with it the derived party keys) above all of
// them.
func foldRecords(recs []*store.Record) (live map[uint64]*sessionState, terminal map[uint64]Stage, sidHigh uint64) {
	j := newJournal(nil)
	terminal = make(map[uint64]Stage)
	for _, rec := range recs {
		if rec.Kind == store.KindTerminal {
			terminal[rec.SID] = Stage(rec.U1)
		}
		j.applyLocked(rec)
	}
	return j.sessions, terminal, j.sidHigh
}

// live returns the number of live (non-terminal) sessions in the mirror.
func (j *journal) live() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.sessions)
}

// seed installs a recovered session state into the mirror (Recover calls
// it before re-arming the watchtower, so compaction snapshots keep
// carrying sessions that were recovered but not yet terminal).
func (j *journal) seed(ss *sessionState) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cp := *ss
	j.sessions[ss.ID] = &cp
}

// seedSIDHigh raises the durable session-ID high mark. Recover calls it with
// the allocator floor so a post-recovery compaction can never snapshot a
// mark below IDs any generation ever issued.
func (j *journal) seedSIDHigh(v uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if v > j.sidHigh {
		j.sidHigh = v
	}
}
