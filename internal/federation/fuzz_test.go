package federation

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"onoffchain/internal/chain"
	"onoffchain/internal/hybrid"
	"onoffchain/internal/store"
)

// goldenJournal replays the committed journal from a copy: opening a store
// starts a segment of its own, which must not land in testdata.
func goldenJournal(tb testing.TB) []*store.Record {
	tb.Helper()
	cp := tb.TempDir()
	dir := filepath.Join("testdata", "journal")
	entries, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			tb.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(cp, e.Name()), b, 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	st, err := store.Open(cp, store.Options{})
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

// frames packs records as the fuzz input: each a 2-byte big-endian length
// and a record encoding.
func frames(recs ...*store.Record) []byte {
	var out []byte
	for _, rec := range recs {
		enc := rec.Encode()
		out = binary.BigEndian.AppendUint16(out, uint16(len(enc)))
		out = append(out, enc...)
	}
	return out
}

// adoptable is what a gossiped record goes through before the tower guards
// it (handleEnvelope, adopt): the guard decoder, then the session rebuild.
func (t *Tower) adoptable(rec *store.Record) (*hybrid.Session, *guardExport, error) {
	g, err := decodeGuardRecord(rec)
	if err != nil {
		return nil, nil, err
	}
	sess, err := t.rebuild(g)
	return sess, g, err
}

// FuzzFederationFold drives hostile record streams through the journal's
// fold and each record, as a single gossiped one, through the guard decoder
// and the session rebuild that re-arm and adoption run. Nothing panics; a
// folded guard is keyed by its own contract and never closed; a record that
// rebuilds yields the session it names, one party per scalar. The corpus is
// the committed journal, whole and record by record, and one hostile
// mutation of its open guard per way a record can be wrong — each of which
// must be refused.
func FuzzFederationFold(f *testing.F) {
	golden := goldenJournal(f)
	tw := &Tower{
		cfg:    Config{Chain: chain.NewDefault(nil), Registry: fedRegistry()},
		splits: map[string]*hybrid.SplitResult{},
		ctx:    context.Background(),
	}
	var open *store.Record
	openGuards := foldFederation(golden).guards
	for _, rec := range golden {
		if g, err := decodeGuardRecord(rec); err == nil && openGuards[g.Contract] != nil {
			open = rec
		}
		f.Add(frames(rec))
	}
	if open == nil {
		f.Fatal("the golden journal folds to no open guard")
	}
	if _, _, err := tw.adoptable(open); err != nil {
		f.Fatalf("the golden open guard does not rebuild: %v", err)
	}
	mutate := func(edit func(*store.Record)) *store.Record {
		rec := *open
		rec.Blobs = append([][]byte(nil), open.Blobs...)
		edit(&rec)
		return &rec
	}
	for name, rec := range map[string]*store.Record{
		"short contract":      mutate(func(r *store.Record) { r.Blobs[0] = r.Blobs[0][:19] }),
		"no scalars":          mutate(func(r *store.Record) { r.Blobs = r.Blobs[:2] }),
		"zero scalar":         mutate(func(r *store.Record) { r.Blobs[2] = make([]byte, 32) }),
		"scalar past n":       mutate(func(r *store.Record) { r.Blobs[2] = bytes.Repeat([]byte{0xff}, 32) }),
		"long scalar":         mutate(func(r *store.Record) { r.Blobs[2] = bytes.Repeat([]byte{0x01}, 33) }),
		"missing party":       mutate(func(r *store.Record) { r.Blobs = r.Blobs[:len(r.Blobs)-1] }),
		"undecodable copy":    mutate(func(r *store.Record) { r.Blobs[1] = []byte{0xff, 0x00} }),
		"truncated copy":      mutate(func(r *store.Record) { r.Blobs[1] = r.Blobs[1][:len(r.Blobs[1])/2] }),
		"zero contract":       mutate(func(r *store.Record) { r.Blobs[0] = make([]byte, 20) }),
		"unknown scenario":    mutate(func(r *store.Record) { r.Str = "no/such/spec" }),
		"closed without blob": {Kind: store.KindFedClosed, U1: 1},
	} {
		if rec.Kind == store.KindFedGuard {
			if _, _, err := tw.adoptable(rec); err == nil {
				f.Fatalf("%s: the guard rebuilds", name)
			}
		}
		f.Add(frames(rec))
	}
	f.Add(frames(golden...))
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
				recs = append(recs, rec)
			}
			data = data[n:]
		}
		fs := foldFederation(recs)
		for c, g := range fs.guards {
			if g.Contract != c || fs.closed[c] {
				t.Fatalf("guard %x folded under %x (closed %t)", g.Contract, c, fs.closed[c])
			}
		}
		for _, rec := range recs {
			if rec.Kind != store.KindFedGuard {
				continue
			}
			sess, g, err := tw.adoptable(rec)
			if err != nil {
				continue
			}
			if sess.OnChainAddr != g.Contract || len(sess.Parties) != len(g.Scalars) || sess.Copy == nil {
				t.Fatalf("guard %x rebuilt as %x with %d parties for %d scalars", g.Contract, sess.OnChainAddr, len(sess.Parties), len(g.Scalars))
			}
		}
	})
}
