package hub

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"onoffchain/internal/keccak"
	"onoffchain/internal/rollup"
	"onoffchain/internal/store"
	"onoffchain/internal/types"
)

// renderFold prints a fold's outcome one line per session, in ID order: the
// text the golden WALs' expected states are written in.
func renderFold(live map[uint64]*sessionState, terminal map[uint64]Stage, sidHigh uint64) string {
	var b strings.Builder
	for _, ss := range sortedSessions(live) {
		fmt.Fprintf(&b, "live %d scenario=%s stage=%s parties=%d addr=%s copy=%x setup=%t/%t submitted=%t/%d\n",
			ss.ID, ss.Scenario, ss.stage(), ss.Parties, ss.Addr.Hex(), keccak.Sum256(ss.CopyEnc),
			ss.SetupStarted, ss.SetupDone, ss.SubmittedSet, ss.Submitted)
	}
	ids := make([]uint64, 0, len(terminal))
	for id := range terminal {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		fmt.Fprintf(&b, "terminal %d %s\n", id, terminal[id])
	}
	fmt.Fprintf(&b, "sidHigh %d\n", sidHigh)
	return b.String()
}

// TestGoldenWALFolds replays one WAL per settlement mode, written by the hub
// as it stood before the hub stopped writing stage intents (every session
// carries a KindStage before each stage; the rollup WAL carries both a
// KindSubmitted and a KindEpochLeaf per submitted session). One hub, one
// worker, ten sessions: sessions 1–8 each died at one stage — pending,
// split, deployed, signed, executed, submitted (honest), submitted (lying),
// and settled / rolled-up before the terminal record — and 9 and 10 reached
// their terminal stage. Each must fold to its committed expected state.
func TestGoldenWALFolds(t *testing.T) {
	for _, mode := range []string{"persession", "rollup"} {
		t.Run(mode, func(t *testing.T) {
			recs := replayGolden(t, filepath.Join("testdata", "wal", mode))
			got := renderFold(foldRecords(recs))
			if mode == "rollup" {
				f := rollup.Fold(recs)
				got += fmt.Sprintf("rollup registry=%s depth=%d postedThru=%d pending=%d sealed=%d\n",
					f.Registry.Hex(), f.Depth, f.PostedThru, len(f.Pending), len(f.Sealed))
			}
			want, err := os.ReadFile(filepath.Join("testdata", "wal", mode+".fold"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("golden WAL folds to\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// replayGolden replays a committed WAL directory from a copy: opening a
// store starts a segment of its own, which must not land in testdata.
func replayGolden(t *testing.T, dir string) []*store.Record {
	t.Helper()
	cp := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st, err := store.Open(cp, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	return mustReplay(t, st)
}

// FuzzHubFold: any stream of records that decode folds without panicking,
// and the fold is a fixpoint of its own snapshot — folding the records
// compaction would write for it gives back the same live sessions, the
// same derived stages and the same session-ID high mark. The input is a
// sequence of frames, each a 2-byte big-endian length and a record
// encoding; frames that do not decode are skipped.
func FuzzHubFold(f *testing.F) {
	frame := func(recs ...*store.Record) []byte {
		var out []byte
		for _, rec := range recs {
			enc := rec.Encode()
			out = binary.BigEndian.AppendUint16(out, uint16(len(enc)))
			out = append(out, enc...)
		}
		return out
	}
	f.Add(frame(encodeSessionState(snapshotFixture())...))
	f.Add(frame(
		&store.Record{Kind: store.KindAccepted, SID: 3, Str: "betting"},
		&store.Record{Kind: store.KindStage, SID: 3, U1: uint64(StageDeployed)},
		partiesRecord(3, 2),
		&store.Record{Kind: store.KindDeployed, SID: 3, Blob: []byte{7}},
		&store.Record{Kind: store.KindEpochLeaf, SID: 3, U1: 1, Blob: []byte{7}},
		&store.Record{Kind: store.KindAccepted, SID: 4, Str: "auction"},
		&store.Record{Kind: store.KindTerminal, SID: 4, U1: uint64(StageFailed)},
		&store.Record{Kind: store.KindKeySeq, U2: 9},
		&store.Record{Kind: store.KindFedGuard, SID: 5},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []*store.Record
		for len(data) >= 2 {
			n := int(binary.BigEndian.Uint16(data))
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			if rec, err := store.DecodeRecord(data[:n]); err == nil {
				recs = append(recs, rec)
			}
			data = data[n:]
		}
		live, _, high := foldRecords(recs)
		j := newJournal(nil)
		j.sessions, j.sidHigh = live, high
		var snap []*store.Record
		for _, rec := range j.stateRecordsLocked() {
			dec, err := store.DecodeRecord(rec.Encode())
			if err != nil {
				t.Fatalf("snapshot record %s does not decode: %v", rec.Kind, err)
			}
			snap = append(snap, dec)
		}
		live2, term2, high2 := foldRecords(snap)
		if high2 != high {
			t.Fatalf("snapshot folds to session-ID mark %d, want %d", high2, high)
		}
		if len(term2) != 0 {
			t.Fatalf("snapshot carries %d terminal records", len(term2))
		}
		if !reflect.DeepEqual(live2, live) {
			t.Fatalf("snapshot folds to\n%s\nwant\n%s", renderFold(live2, nil, high2), renderFold(live, nil, high))
		}
		for id, ss := range live {
			if live2[id].stage() != ss.stage() {
				t.Fatalf("session %d: snapshot stage %s, want %s", id, live2[id].stage(), ss.stage())
			}
		}
	})
}

// TestWALLossFailsSessions: a store that stops taking appends mid-session
// (closed here by the stage hook, right after the split) fails the session
// with the real cause, before any of its parties touches the chain, and
// refuses every later Submit. A hub that cannot write its WAL must neither
// pretend its sessions merely crashed nor fund parties recovery could not
// act for.
func TestWALLossFailsSessions(t *testing.T) {
	for _, mode := range []string{"persession", "rollup"} {
		t.Run(mode, func(t *testing.T) {
			c, net, faucetKey := durableWorld(t)
			st, err := store.Open(t.TempDir(), store.Options{})
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Workers: 1, Store: st, StageHook: func(sid uint64, s Stage) bool {
				if s == StageSplit {
					st.Close()
				}
				return true
			}}
			if mode == "rollup" {
				cfg.Rollup = &RollupConfig{Depth: 4, EpochAge: 20 * time.Millisecond}
			}
			h := New(c, net, faucetKey, cfg)
			defer h.Stop()
			spec := BettingSpec(4, 600, false)
			rep := h.Submit(spec).Report()
			if !errors.Is(rep.Err, store.ErrClosed) || errors.Is(rep.Err, ErrCrashed) || rep.Stage != StageFailed {
				t.Fatalf("session on a lost WAL: stage=%s err=%v, want failed with store.ErrClosed", rep.Stage, rep.Err)
			}
			split, err := h.split(spec)
			if err != nil {
				t.Fatal(err)
			}
			parties := map[types.Address]bool{}
			for i := 0; i < split.Participants; i++ {
				key, err := h.deriveKey(rep.ID, i)
				if err != nil {
					t.Fatal(err)
				}
				parties[types.Address(key.EthereumAddress())] = true
			}
			for n := uint64(0); n <= c.Height(); n++ {
				b, err := c.BlockByNumber(n)
				if err != nil {
					t.Fatal(err)
				}
				for _, tx := range b.Transactions {
					if tx.To != nil && parties[*tx.To] {
						t.Fatalf("block %d pays party %s of a session whose WAL was lost", n, tx.To.Hex())
					}
				}
			}
			if rep := h.Submit(spec).Report(); !errors.Is(rep.Err, store.ErrClosed) || rep.Stage != StageFailed {
				t.Fatalf("Submit after WAL loss: stage=%s err=%v, want refused with store.ErrClosed", rep.Stage, rep.Err)
			}
		})
	}
}

// TestRollupLeafIsTheSubmitRecord: in batch settlement the hub writes no
// stage intent and no KindSubmitted — each session's submitted outcome is
// carried by exactly one record, its rollup leaf — and a fold reads the
// leaf as the submit fact.
func TestRollupLeafIsTheSubmitRecord(t *testing.T) {
	c, net, faucetKey := durableWorld(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	h := New(c, net, faucetKey, Config{Workers: 2, Store: st, Rollup: &RollupConfig{Depth: 4, EpochAge: 20 * time.Millisecond}})
	reports := h.Run([]*Spec{BettingSpec(4, 600, false), BettingSpec(4, 600, true)})
	h.Stop()
	recs := mustReplay(t, st)
	leaves := map[uint64]int{}
	for _, rec := range recs {
		switch rec.Kind {
		case store.KindStage, store.KindSubmitted:
			t.Fatalf("rollup WAL holds a %s record", rec.Kind)
		case store.KindEpochLeaf:
			leaves[rec.SID]++
		}
	}
	for _, rep := range reports {
		if rep.Err != nil {
			t.Fatalf("session %d: %v", rep.ID, rep.Err)
		}
		if leaves[rep.ID] != 1 {
			t.Errorf("session %d: %d leaf records, want 1", rep.ID, leaves[rep.ID])
		}
	}
	// Cut every terminal record: the fold must see both sessions submitted.
	var open []*store.Record
	for _, rec := range recs {
		if rec.Kind != store.KindTerminal {
			open = append(open, rec)
		}
	}
	live, _, _ := foldRecords(open)
	for _, rep := range reports {
		ss := live[rep.ID]
		if ss == nil || !ss.SubmittedSet || ss.Submitted != rep.Submitted || ss.stage() != StageSubmitted {
			t.Errorf("session %d folds to %+v, want submitted %d", rep.ID, ss, rep.Submitted)
		}
	}
}
