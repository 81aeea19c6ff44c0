package trie

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"onoffchain/internal/types"
)

func TestEmptyRootVector(t *testing.T) {
	// The famous constant every Ethereum client pins.
	want := "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421"
	if got := hex.EncodeToString(EmptyRoot.Bytes()); got != want {
		t.Fatalf("EmptyRoot = %s, want %s", got, want)
	}
	tr := New(nil)
	if tr.Hash() != EmptyRoot {
		t.Fatal("empty trie hash != EmptyRoot")
	}
}

// Canonical vector from the Ethereum trie test fixtures.
func TestKnownRootVector(t *testing.T) {
	tr := New(nil)
	entries := map[string]string{
		"do":    "verb",
		"dog":   "puppy",
		"doge":  "coin",
		"horse": "stallion",
	}
	for k, v := range entries {
		tr.Update([]byte(k), []byte(v))
	}
	want := "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84"
	if got := hex.EncodeToString(tr.Hash().Bytes()); got != want {
		t.Fatalf("root = %s, want %s", got, want)
	}
}

func TestGetUpdateDelete(t *testing.T) {
	tr := New(nil)
	tr.Update([]byte("key1"), []byte("value1"))
	tr.Update([]byte("key2"), []byte("value2"))
	if got := tr.Get([]byte("key1")); string(got) != "value1" {
		t.Errorf("Get(key1) = %q", got)
	}
	tr.Update([]byte("key1"), []byte("replaced"))
	if got := tr.Get([]byte("key1")); string(got) != "replaced" {
		t.Errorf("after update: %q", got)
	}
	tr.Delete([]byte("key1"))
	if got := tr.Get([]byte("key1")); got != nil {
		t.Errorf("after delete: %q", got)
	}
	if got := tr.Get([]byte("key2")); string(got) != "value2" {
		t.Errorf("sibling affected: %q", got)
	}
	if got := tr.Get([]byte("missing")); got != nil {
		t.Errorf("missing key returned %q", got)
	}
}

func TestEmptyValueDeletes(t *testing.T) {
	tr := New(nil)
	tr.Update([]byte("a"), []byte("1"))
	tr.Update([]byte("a"), nil)
	if tr.Hash() != EmptyRoot {
		t.Error("empty-value update did not delete")
	}
}

func TestPrefixKeys(t *testing.T) {
	// Keys that are prefixes of each other exercise the branch value slot.
	tr := New(nil)
	tr.Update([]byte("ab"), []byte("short"))
	tr.Update([]byte("abcd"), []byte("long"))
	tr.Update([]byte("abce"), []byte("long2"))
	if string(tr.Get([]byte("ab"))) != "short" ||
		string(tr.Get([]byte("abcd"))) != "long" ||
		string(tr.Get([]byte("abce"))) != "long2" {
		t.Fatal("prefix keys misread")
	}
	tr.Delete([]byte("ab"))
	if tr.Get([]byte("ab")) != nil || string(tr.Get([]byte("abcd"))) != "long" {
		t.Fatal("delete of prefix key broke others")
	}
	tr.Delete([]byte("abcd"))
	if string(tr.Get([]byte("abce"))) != "long2" {
		t.Fatal("collapse after delete lost sibling")
	}
}

// Model-based property test: the trie must agree with a plain map under a
// random workload, and deleting everything must return to the empty root.
func TestAgainstMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 20; round++ {
		tr := New(nil)
		model := map[string]string{}
		var keys []string
		for op := 0; op < 300; op++ {
			switch rng.Intn(4) {
			case 0, 1: // insert
				k := fmt.Sprintf("k%d", rng.Intn(60))
				v := fmt.Sprintf("v%d", rng.Intn(1000))
				tr.Update([]byte(k), []byte(v))
				if _, seen := model[k]; !seen {
					keys = append(keys, k)
				}
				model[k] = v
			case 2: // delete
				if len(keys) == 0 {
					continue
				}
				k := keys[rng.Intn(len(keys))]
				tr.Delete([]byte(k))
				delete(model, k)
			case 3: // read check
				k := fmt.Sprintf("k%d", rng.Intn(60))
				got := tr.Get([]byte(k))
				want, ok := model[k]
				if ok && string(got) != want {
					t.Fatalf("round %d: Get(%s) = %q, want %q", round, k, got, want)
				}
				if !ok && got != nil {
					t.Fatalf("round %d: Get(%s) = %q, want nil", round, k, got)
				}
			}
		}
		// Full verification sweep.
		for k, v := range model {
			if got := tr.Get([]byte(k)); string(got) != v {
				t.Fatalf("round %d: final Get(%s) = %q, want %q", round, k, got, v)
			}
		}
		// Delete everything: must return to the canonical empty root.
		for k := range model {
			tr.Delete([]byte(k))
		}
		if tr.Hash() != EmptyRoot {
			t.Fatalf("round %d: root after clearing != EmptyRoot", round)
		}
	}
}

// Root hash must be insertion-order independent (a core MPT property the
// state commitment relies on).
func TestRootOrderIndependence(t *testing.T) {
	f := func(seed int64) bool {
		entries := [][2]string{
			{"alpha", "1"}, {"beta", "2"}, {"gamma", "3"},
			{"alphabet", "4"}, {"al", "5"}, {"", "6"},
			{"gamma-ray", "7"}, {"b", "8"},
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
		tr1 := New(nil)
		for _, e := range entries {
			tr1.Update([]byte(e[0]), []byte(e[1]))
		}
		tr2 := New(nil)
		for i := len(entries) - 1; i >= 0; i-- {
			tr2.Update([]byte(entries[i][0]), []byte(entries[i][1]))
		}
		return tr1.Hash() == tr2.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Inserting then deleting a disjoint set must restore the previous root
// exactly (no residue in the commitment).
func TestDeleteRestoresRoot(t *testing.T) {
	tr := New(nil)
	tr.Update([]byte("permanent1"), []byte("a"))
	tr.Update([]byte("permanent2"), []byte("b"))
	before := tr.Hash()
	for i := 0; i < 40; i++ {
		tr.Update([]byte(fmt.Sprintf("temp%d", i)), []byte("x"))
	}
	for i := 0; i < 40; i++ {
		tr.Delete([]byte(fmt.Sprintf("temp%d", i)))
	}
	if tr.Hash() != before {
		t.Error("root not restored after add+delete cycle")
	}
}

func TestLargeValues(t *testing.T) {
	// Values above 32 bytes force hashed child references.
	tr := New(nil)
	big1 := bytes.Repeat([]byte{0xAB}, 100)
	big2 := bytes.Repeat([]byte{0xCD}, 500)
	tr.Update([]byte("k1"), big1)
	tr.Update([]byte("k2"), big2)
	if !bytes.Equal(tr.Get([]byte("k1")), big1) || !bytes.Equal(tr.Get([]byte("k2")), big2) {
		t.Fatal("large value mismatch")
	}
}

func TestFromRootReload(t *testing.T) {
	db := NewDatabase()
	tr := New(db)
	for i := 0; i < 50; i++ {
		tr.Update([]byte(fmt.Sprintf("key-%02d", i)), []byte(fmt.Sprintf("value-%d", i*i)))
	}
	root := tr.Hash()

	reloaded, err := FromRoot(db, root)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got := reloaded.Get([]byte(fmt.Sprintf("key-%02d", i)))
		if string(got) != fmt.Sprintf("value-%d", i*i) {
			t.Fatalf("reloaded Get(key-%02d) = %q", i, got)
		}
	}
	// Mutating the reloaded trie must produce a fresh consistent root.
	reloaded.Update([]byte("key-00"), []byte("mutated"))
	if reloaded.Hash() == root {
		t.Error("mutation did not change root")
	}
	if _, err := FromRoot(db, types.BytesToHash([]byte{1, 2, 3})); err == nil {
		t.Error("unknown root accepted")
	}
}

func TestProofRoundTrip(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 100; i++ {
		tr.Update([]byte(fmt.Sprintf("account%03d", i)), bytes.Repeat([]byte{byte(i)}, 40))
	}
	root := tr.Hash()
	for _, i := range []int{0, 1, 50, 99} {
		key := []byte(fmt.Sprintf("account%03d", i))
		proof := tr.Prove(key)
		if len(proof) == 0 {
			t.Fatalf("empty proof for %s", key)
		}
		val, err := VerifyProof(root, key, proof)
		if err != nil {
			t.Fatalf("VerifyProof(%s): %v", key, err)
		}
		if !bytes.Equal(val, bytes.Repeat([]byte{byte(i)}, 40)) {
			t.Fatalf("proof value mismatch for %s", key)
		}
	}
}

func TestProofAbsence(t *testing.T) {
	tr := New(nil)
	tr.Update([]byte("exists"), []byte("yes"))
	tr.Update([]byte("exile"), []byte("no"))
	root := tr.Hash()
	proof := tr.Prove([]byte("exit"))
	val, err := VerifyProof(root, []byte("exit"), proof)
	if err != nil {
		t.Fatalf("absence proof error: %v", err)
	}
	if val != nil {
		t.Fatalf("absent key proved value %q", val)
	}
}

func TestProofTamperDetected(t *testing.T) {
	tr := New(nil)
	for i := 0; i < 50; i++ {
		tr.Update([]byte(fmt.Sprintf("k%02d", i)), bytes.Repeat([]byte{byte(i + 1)}, 40))
	}
	root := tr.Hash()
	proof := tr.Prove([]byte("k25"))
	if len(proof) == 0 {
		t.Fatal("no proof")
	}
	proof[0][5] ^= 0xFF
	if _, err := VerifyProof(root, []byte("k25"), proof); err == nil {
		t.Error("tampered proof verified")
	}
}

func TestHexCompactRoundTrip(t *testing.T) {
	f := func(raw []byte, term bool) bool {
		hexKey := make([]byte, 0, len(raw)+1)
		for _, b := range raw {
			hexKey = append(hexKey, b%16)
		}
		if term {
			hexKey = append(hexKey, 16)
		}
		return bytes.Equal(compactToHex(hexToCompact(hexKey)), hexKey)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSecureTrie(t *testing.T) {
	st := NewSecure(nil)
	st.Update([]byte("balance"), []byte{1, 2, 3})
	if got := st.Get([]byte("balance")); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("secure get = %x", got)
	}
	st.Delete([]byte("balance"))
	if st.Get([]byte("balance")) != nil {
		t.Error("secure delete failed")
	}
	if st.Hash() != EmptyRoot {
		t.Error("secure trie not empty after delete")
	}
}

func BenchmarkTrieInsert1k(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := New(nil)
		for j := 0; j < 1000; j++ {
			tr.Update([]byte(fmt.Sprintf("key%04d", j)), []byte("value"))
		}
		tr.Hash()
	}
}

func BenchmarkTrieGet(b *testing.B) {
	tr := New(nil)
	for j := 0; j < 1000; j++ {
		tr.Update([]byte(fmt.Sprintf("key%04d", j)), []byte("value"))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Get([]byte(fmt.Sprintf("key%04d", i%1000)))
	}
}

// Hash must be idempotent: a second Hash on an unchanged (collapsed) trie
// returns the same root, and the trie stays fully usable afterwards.
func TestHashIdempotentAfterCollapse(t *testing.T) {
	tr := New(nil)
	for j := 0; j < 50; j++ {
		tr.Update([]byte(fmt.Sprintf("key%04d", j)), []byte(fmt.Sprintf("value%d", j)))
	}
	h1 := tr.Hash()
	h2 := tr.Hash()
	if h1 != h2 {
		t.Fatalf("Hash not idempotent: %s vs %s", h1.Hex(), h2.Hex())
	}
	// Reads and writes still work through the collapsed root.
	if got := tr.Get([]byte("key0007")); string(got) != "value7" {
		t.Fatalf("get after collapse = %q", got)
	}
	tr.Update([]byte("key0007"), []byte("rewritten"))
	h3 := tr.Hash()
	if h3 == h1 {
		t.Fatal("root unchanged after update")
	}
	if tr.Hash() != h3 {
		t.Fatal("Hash not idempotent after re-update")
	}
	if got := tr.Get([]byte("key0007")); string(got) != "rewritten" {
		t.Fatalf("get after second collapse = %q", got)
	}
}

// TestConcurrentDatabaseAccess: hammers one node store from hashing,
// reading, and committing goroutines at once — meaningful under -race.
func TestConcurrentDatabaseAccess(t *testing.T) {
	db := NewDatabase()
	roots := make([]types.Hash, 8)
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			tr := New(db)
			for i := 0; i < 50; i++ {
				k := []byte(fmt.Sprintf("g%d-key-%d", g, i))
				tr.Update(k, []byte(fmt.Sprintf("value-%d", i*g)))
			}
			roots[g] = tr.Hash()
			// Read back through a fresh handle while others still write.
			reload, err := FromRoot(db, roots[g])
			if err != nil {
				t.Errorf("g%d: reload: %v", g, err)
				return
			}
			if got := reload.Get([]byte(fmt.Sprintf("g%d-key-%d", g, 7))); string(got) != fmt.Sprintf("value-%d", 7*g) {
				t.Errorf("g%d: read back %q", g, got)
			}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}
