package rollup

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"onoffchain/internal/store"
	"onoffchain/internal/types"
)

// goldenRollupWAL replays the hub's committed rollup WAL from a copy:
// opening a store starts a segment of its own, which must not land in
// testdata.
func goldenRollupWAL(tb testing.TB, tmp string) []*store.Record {
	tb.Helper()
	dir := filepath.Join("..", "hub", "testdata", "wal", "rollup")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(tmp, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := store.Open(tmp, store.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	defer st.Close()
	recs, err := st.Replay()
	if err != nil {
		tb.Fatal(err)
	}
	return recs
}

// recordFrames packs records as the fuzz input: each a 2-byte big-endian
// length and a record encoding.
func recordFrames(recs []*store.Record) []byte {
	var out []byte
	for _, rec := range recs {
		enc := rec.Encode()
		out = binary.BigEndian.AppendUint16(out, uint16(len(enc)))
		out = append(out, enc...)
	}
	return out
}

// FuzzRollupSeed: any stream of records that decode folds, and Seed on a
// chain whose registry carries the golden WAL's posts either refuses it or
// installs it, never panicking. What it installs serves each epoch with the
// tree that re-folds to its root, and the snapshot of it seeds again. Every
// registry record is pointed at the deployed registry, so the posted
// epochs' times come from its logs. The corpus starts from the hub's
// golden rollup WAL.
func FuzzRollupSeed(f *testing.F) {
	golden := goldenRollupWAL(f, f.TempDir())
	folded := Fold(golden)
	c, party := seqFixture(f)
	bind, err := DeployRegistryAsync(party, folded.Depth, party.Addr, registryDeployGas)
	if err != nil {
		f.Fatal(err)
	}
	reg, err := bind()
	if err != nil {
		f.Fatal(err)
	}
	var posted []*sealedState
	for _, ss := range folded.postedEpochs {
		posted = append(posted, ss)
	}
	sort.Slice(posted, func(i, j int) bool { return posted[i].number < posted[j].number })
	for _, ss := range posted {
		hash, err := reg.PostEpochAsync(party, ss.root, uint64(len(ss.leaves)), epochPostGas)
		if err != nil {
			f.Fatal(err)
		}
		if r, err := party.WaitReceipt(hash); err != nil || !r.Succeeded() {
			f.Fatalf("posting golden epoch %d: %v", ss.number, err)
		}
	}
	f.Add(recordFrames(golden))
	f.Add(recordFrames(golden[len(golden)/2:]))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var recs []*store.Record
		for len(data) >= 2 {
			n := int(binary.BigEndian.Uint16(data))
			data = data[2:]
			if n > len(data) {
				n = len(data)
			}
			if rec, err := store.DecodeRecord(data[:n]); err == nil {
				if rec.Kind == store.KindRollupRegistry {
					rec.Blob = reg.Addr[:]
				}
				recs = append(recs, rec)
			}
			data = data[n:]
		}
		s, err := New(Config{Party: party, Depth: folded.Depth})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Seed(Fold(recs)); err != nil {
			return
		}
		for _, e := range s.CachedEpochs() {
			if e.Tree.Root() != e.Root {
				t.Fatalf("epoch %d served with a tree that does not fold to its root", e.Number)
			}
			if p, ok := reg.Posts(c)[e.Number]; e.PostedAt != 0 && (!ok || e.PostedAt != p.At) {
				t.Fatalf("epoch %d served as posted at %d, its log's block says %d (found %t)", e.Number, e.PostedAt, p.At, ok)
			}
		}
		again, err := New(Config{Party: party, Depth: folded.Depth})
		if err != nil {
			t.Fatal(err)
		}
		if err := again.Seed(Fold(s.StateRecords())); err != nil {
			t.Fatalf("the seeded state's snapshot does not seed: %v", err)
		}
	})
}

// FuzzDecodeEpochPosted: the one decoder of what the registry recorded
// accepts exactly the logs that carry EpochPosted's topic, three words of
// data and an epoch and a count that fit in uint64, and gives back the
// words it read.
func FuzzDecodeEpochPosted(f *testing.F) {
	word := func(v uint64) []byte { return binary.BigEndian.AppendUint64(make([]byte, 24), v) }
	valid := append(append(word(3), types.Hash{1}.Bytes()...), word(16)...)
	f.Add(true, valid)
	f.Add(true, valid[:95])
	f.Add(true, []byte{})
	f.Add(false, valid)
	overflow := append([]byte{}, valid...)
	overflow[0] = 1
	f.Add(true, overflow)
	overflow = append([]byte{}, valid...)
	overflow[64+23] = 1
	f.Add(true, overflow)
	f.Fuzz(func(t *testing.T, topic bool, data []byte) {
		l := &types.Log{Address: types.Address{0xEE}, Data: data}
		if topic {
			l.Topics = []types.Hash{TopicEpochPosted}
		} else {
			l.Topics = []types.Hash{TopicLeafOpened}
		}
		ev, err := DecodeEpochPosted(l)
		fits := func(w []byte) bool {
			for _, b := range w[:24] {
				if b != 0 {
					return false
				}
			}
			return true
		}
		want := topic && len(data) >= 96 && fits(data[0:32]) && fits(data[64:96])
		if (err == nil) != want {
			t.Fatalf("DecodeEpochPosted(topic=%t, %d bytes) err=%v, want accepted=%t", topic, len(data), err, want)
		}
		if err != nil {
			return
		}
		if ev.Epoch != binary.BigEndian.Uint64(data[24:32]) ||
			ev.Root != types.BytesToHash(data[32:64]) || ev.Count != binary.BigEndian.Uint64(data[88:96]) {
			t.Fatalf("decoded %+v from %x", ev, data)
		}
	})
}
