package federation

import (
	"reflect"
	"testing"

	"onoffchain/internal/hub"
	"onoffchain/internal/store"
)

// TestFoldIgnoresIntentRecords: journals written while towers journaled
// membership and dispute intents still carry KindFedMember and
// KindFedIntent records. They must survive the store round trip (the kinds
// still decode) and fold to exactly the state the same journal folds to
// without them — which is all a re-arm reads.
func TestFoldIgnoresIntentRecords(t *testing.T) {
	open, settled, member := addrN(1), addrN(2), addrN(3)
	hint := uint64(7)
	guard := func(sid uint64, c [20]byte) *store.Record {
		return guardRecord(&guardExport{
			SID: sid, Scenario: "betting/honest", Contract: c, ChallengePeriod: 600, Honest: 1,
			CopyEnc: []byte{0xc0}, Scalars: [][]byte{{1}, {2}},
		})
	}
	intent := func(c [20]byte) *store.Record {
		return &store.Record{Kind: store.KindFedIntent, U1: 1234, Blob: c[:], Blobs: [][]byte{member[:]}}
	}
	retired := func(c [20]byte) []*store.Record {
		return []*store.Record{intent(c), {Kind: store.KindFedMember, Blob: member[:]}}
	}
	plain := []*store.Record{
		guard(1, open),
		guard(2, settled),
		windowRecord(hub.Window{Contract: open, Submitter: member, Result: 9, OpenedAt: 100, Deadline: 700}, &hint),
		{Kind: store.KindCursor, U1: 41},
		{Kind: store.KindFedClosed, U1: 1, Blob: settled[:]},
		{Kind: store.KindCursor, U1: 42},
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
		t.Fatalf("journal with member and intent records no longer replays: %v", err)
	}
	if len(replayed) != len(withIntents) {
		t.Fatalf("replayed %d records, wrote %d", len(replayed), len(withIntents))
	}

	want, got := foldFederation(plain), foldFederation(replayed)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fold with member and intent records:\n got %+v\nwant %+v", got, want)
	}
	if len(got.guards) != 1 || got.guards[open] == nil || got.cursor != 42 || !got.closed[settled] {
		t.Fatalf("fold lost state: %+v", got)
	}
	if w, h, err := decodeWindowRecord(got.windows[open]); err != nil || h == nil || *h != hint || w.Result != 9 {
		t.Fatalf("window did not survive: %+v hint %v err %v", w, h, err)
	}
}
