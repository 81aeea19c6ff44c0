package federation

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"onoffchain/internal/store"
)

// TestGoldenJournalFolds: a committed journal of a standalone tower —
// four guards adopted from gossip, three closed at settlement, one left
// open when the tower was killed — folds to the committed guard set.
func TestGoldenJournalFolds(t *testing.T) {
	cp := t.TempDir() // opening a store starts a segment, which must not land in testdata
	dir := filepath.Join("testdata", "journal")
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
	recs, err := st.Replay()
	if err != nil {
		t.Fatal(err)
	}
	fs := foldFederation(recs)
	var lines []string
	for c, g := range fs.guards {
		lines = append(lines, fmt.Sprintf("guard %s sid=%d scenario=%s parties=%d", c.Hex(), g.SID, g.Scenario, len(g.Scalars)))
	}
	for c := range fs.closed {
		lines = append(lines, "closed "+c.Hex())
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(filepath.Join("testdata", "journal.fold"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("golden journal folds to\n%s\nwant\n%s", got, want)
	}
}

// TestFoldIgnoresIntentRecords: journals written while towers journaled
// membership, dispute intents, a block cursor and windows with the owner's
// verdict hint still carry KindFedMember, KindFedIntent, KindCursor and
// KindFedWindow records. They must survive the store round trip (the kinds
// still decode) and fold to exactly the state the same journal folds to
// without them — which is all a re-arm reads. A window folds to nothing
// with its hint or without.
func TestFoldIgnoresIntentRecords(t *testing.T) {
	open, settled, member := addrN(1), addrN(2), addrN(3)
	guard := func(sid uint64, c [20]byte) *store.Record {
		return guardRecord(&guardExport{
			SID: sid, Scenario: "betting/honest", Contract: c,
			CopyEnc: []byte{0xc0}, Scalars: [][]byte{{1}, {2}},
		})
	}
	intent := func(c [20]byte) *store.Record {
		return &store.Record{Kind: store.KindFedIntent, U1: 1234, Blob: c[:], Blobs: [][]byte{member[:]}}
	}
	window := func(c [20]byte, hint ...byte) *store.Record {
		blobs := [][]byte{member[:]}
		if hint != nil {
			blobs = append(blobs, hint)
		}
		return &store.Record{Kind: store.KindFedWindow, U1: 9, U2: 100, U3: 700, Blob: c[:], Blobs: blobs}
	}
	retired := func(c [20]byte) []*store.Record {
		return []*store.Record{
			intent(c), {Kind: store.KindFedMember, Blob: member[:]}, {Kind: store.KindCursor, U1: 42},
			window(c), window(c, binary.BigEndian.AppendUint64(nil, 7)...),
		}
	}
	plain := []*store.Record{
		guard(1, open),
		guard(2, settled),
		{Kind: store.KindFedClosed, U1: 1, Blob: settled[:]},
	}
	var withIntents []*store.Record
	for _, rec := range plain {
		withIntents = append(append(append(withIntents, retired(open)...), rec), retired(settled)...)
	}

	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, rec := range withIntents {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	replayed, err := st.Replay()
	if err != nil {
		t.Fatalf("journal with member, intent, cursor and window records no longer replays: %v", err)
	}
	if len(replayed) != len(withIntents) {
		t.Fatalf("replayed %d records, wrote %d", len(replayed), len(withIntents))
	}

	want, got := foldFederation(plain), foldFederation(replayed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold with member, intent, cursor and window records:\n got %+v\nwant %+v", got, want)
	}
	if len(got.guards) != 1 || got.guards[open] == nil || !got.closed[settled] {
		t.Fatalf("fold lost state: %+v", got)
	}
}
