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
	// Stage is the latest write-ahead intent: the stage the session was
	// executing (not necessarily finished) when the record was written.
	Stage         Stage
	Terminal      bool
	TerminalStage Stage

	ChallengePeriod uint64
	Honest          int
	Scalars         [][]byte

	Addr    types.Address
	CopyEnc []byte

	SetupStarted bool
	SetupDone    bool

	Submitted    uint64
	SubmittedSet bool

	HasWindow                                    bool
	WindowResult, WindowOpenedAt, WindowDeadline uint64
	WindowSubmitter                              types.Address
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
	cursor       uint64
	sidHigh      uint64 // highest session ID ever issued
	terminals    int
	compactEvery int
	appendErr    error // sticky: first WAL failure poisons the journal
	// holdCursor drops KindCursor records while Recover's chain-event
	// replay is still pending: the live tower must not durably advance
	// the cursor past blocks of the outage range it has not re-examined,
	// or a second crash mid-recovery would skip them forever.
	holdCursor bool
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

func newJournal(st *store.Store, compactEvery int, holdCursor bool) *journal {
	if compactEvery <= 0 {
		compactEvery = 512
	}
	return &journal{st: st, sessions: make(map[uint64]*sessionState), compactEvery: compactEvery, holdCursor: holdCursor}
}

// log applies one record to the mirror and makes it durable. An append
// failure is sticky: a hub that can no longer write its WAL must stop
// claiming durability, so every later log (and checkpoint) fails too.
//
// The record's WAL position is reserved (AppendAsync) and the mirror
// updated under j.mu, so mirror order and durable order can never
// diverge; the wait for durability happens OUTSIDE the lock, which is
// what lets many workers' records coalesce into one group commit at the
// store. The mirror may therefore briefly lead the WAL by records whose
// flush is still in flight — and a compaction triggered by another
// worker in that window snapshots them as if flushed. That direction of
// divergence is the safe one: it is write-ahead intent, which recovery
// is built to over-trust (the chain outranks the WAL for every on-chain
// fact, and an intent without a matching chain event is simply redone or
// closed out). What must never happen is the WAL UNDER-claiming versus
// actions taken, and it cannot: the caller does not act (and no
// terminal-triggered compaction runs) until its own wait returns, queue
// order means a successful later flush implies every earlier reservation
// flushed, and a failed flush is sticky at BOTH layers — this journal
// stops logging and the store refuses further appends and compactions.
func (j *journal) log(rec *store.Record) error {
	j.mu.Lock()
	if j.appendErr != nil {
		j.mu.Unlock()
		return j.appendErr
	}
	if rec.Kind == store.KindCursor && j.holdCursor {
		j.mu.Unlock()
		return nil
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
	if rec.Kind >= store.KindFedMember {
		// Federation records belong to internal/federation's own journal;
		// a hub WAL never carries them, but a fold must not misread one as
		// a session record if the stores are ever mixed.
		return
	}
	if rec.Kind == store.KindCursor {
		if rec.U1 > j.cursor {
			j.cursor = rec.U1
		}
		return
	}
	if rec.Kind == store.KindKeySeq {
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
		ss = &sessionState{ID: rec.SID, Honest: -1}
		j.sessions[rec.SID] = ss
	}
	switch rec.Kind {
	case store.KindAccepted:
		ss.Scenario = rec.Str
	case store.KindParties:
		ss.ChallengePeriod = rec.U1
		ss.Honest = int(rec.U2)
		ss.Scalars = rec.Blobs
	case store.KindStage:
		ss.Stage = Stage(rec.U1)
	case store.KindDeployed:
		ss.Addr = types.BytesToAddress(rec.Blob)
	case store.KindSigned:
		ss.CopyEnc = rec.Blob
	case store.KindSetupStart:
		ss.SetupStarted = true
	case store.KindSetupDone:
		ss.SetupDone = true
	case store.KindSubmitted:
		ss.Submitted = rec.U1
		ss.SubmittedSet = true
	case store.KindWindow:
		ss.HasWindow = true
		ss.WindowResult, ss.WindowOpenedAt, ss.WindowDeadline = rec.U1, rec.U2, rec.U3
		ss.WindowSubmitter = types.BytesToAddress(rec.Blob)
	case store.KindTerminal:
		ss.Terminal = true
		ss.TerminalStage = Stage(rec.U1)
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
	out = append(out,
		&store.Record{Kind: store.KindCursor, U1: j.cursor},
		&store.Record{Kind: store.KindKeySeq, U2: j.sidHigh})
	return out
}

// encodeSessionState is the inverse of applyLocked for one session.
func encodeSessionState(ss *sessionState) []*store.Record {
	recs := []*store.Record{
		{Kind: store.KindAccepted, SID: ss.ID, Str: ss.Scenario},
	}
	if ss.Scalars != nil {
		recs = append(recs, &store.Record{
			Kind: store.KindParties, SID: ss.ID,
			U1: ss.ChallengePeriod, U2: uint64(ss.Honest),
			Blobs: ss.Scalars,
		})
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
		recs = append(recs, &store.Record{Kind: store.KindSubmitted, SID: ss.ID, U1: ss.Submitted})
	}
	if ss.HasWindow {
		recs = append(recs, &store.Record{
			Kind: store.KindWindow, SID: ss.ID,
			U1: ss.WindowResult, U2: ss.WindowOpenedAt, U3: ss.WindowDeadline,
			Blob: ss.WindowSubmitter[:],
		})
	}
	recs = append(recs, &store.Record{Kind: store.KindStage, SID: ss.ID, U1: uint64(ss.Stage)})
	return recs
}

// foldRecords replays a WAL record stream into per-session state. Used by
// hub.Recover; terminal sessions are folded and then remembered separately
// so "no session lost" is checkable. sidHigh is the high mark over EVERY
// generation's session IDs — terminal sessions included — so recovery can
// floor its allocator (and with it the derived party keys) above all of
// them.
func foldRecords(recs []*store.Record) (live map[uint64]*sessionState, terminal map[uint64]Stage, cursor, sidHigh uint64) {
	j := newJournal(nil, 0, false)
	terminal = make(map[uint64]Stage)
	for _, rec := range recs {
		if rec.Kind == store.KindTerminal {
			terminal[rec.SID] = Stage(rec.U1)
		}
		j.applyLocked(rec)
	}
	return j.sessions, terminal, j.cursor, j.sidHigh
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

// seedCursor raises the mirror's durable block cursor (Recover installs
// the folded cursor so a compaction snapshot never regresses it to 0).
func (j *journal) seedCursor(v uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if v > j.cursor {
		j.cursor = v
	}
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

// releaseCursor ends the recovery cursor hold; Recover calls it after the
// chain-event replay has covered the outage range.
func (j *journal) releaseCursor() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.holdCursor = false
}
