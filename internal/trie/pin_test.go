package trie

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"sort"
	"testing"
)

// pinnedRoots are the roots TestPinnedRootSequence reaches after every
// 100 operations. They were recorded when the trie still loaded its nodes
// from a hash-keyed store, so they pin the in-memory trie to the same
// commitments byte for byte.
var pinnedRoots = []string{
	"c67a037fbb9fa72da6a4ae211802a36b3efb53d743f72915a5a73caccdfd2222",
	"c5522e402ccfcbf357bc3327b0edb2ce4531e8ede98ce222e9a649206673e229",
	"66fb4a578438f808dcfc5c7f5e8f243e4ed297088cf1fbc06fe75d3770c38dee",
	"3b81c5660deb66fbd40e66ca6d703f190ec0b5810b1da54d5b52d0371e36090c",
	"24ca4ee2e25e00ae1dc6ce25120dcf482c7d097980b579e695106c04acf8710c",
	"0c12af2019260005999aaed6a9fea1904e75a8f7085202002f9d66b70ac4587e",
	"7cd04c8f31e3607046ab2b1356110f305e14ed4bd36ab7e5957996bdccde2bf8",
	"2be68421b70f6601e1909563187e45ab82dc60221ab7bc2dbdbc6ec85f245f23",
	"18b3ee2ac80a03081258095616bf9e93d63a9ff85ca8340d5b7a6ff30f107965",
	"31d3edf69742d7f6db1a2536fdfa947b124f2a27654369cbb2d43b787ece4468",
	"7cfd815d1cfbf8b0bf5f72d85a7eeb91307197119b60d386408fd9e2ab087854",
	"247ce4ed0a39915a2c97dcd12546a6a52a2556f01db1094478f0b0e69a58f174",
	"f2fb5f247cc6a45a34160dcb8ba69183a1e3e4ee8d3c3eca9face6137923d2c3",
	"1cf671880d59dfabe128c0d3b3d52caad504567146bcf004980dc1013b388a48",
	"ab5fe53711cbfb5d0e7e0b5011b8dbc6bab57f4f7b886aab5f0c5501387c57d0",
	"debf39ed0d74585ba32f76f484ac3d7d82e950f4b45ca2675a3fc4efc94622a3",
	"4b33aacb6a4e25c4d4c63e6e41a43bc2e95902aa0c94baa60374d2cd0ee57f61",
	"c0852655cade2582ca7c0047fdb9ce450ba1f0aa550040ef6b03de7c1f0ae16b",
	"85785c0bc11645da7a1fdab431ae6180c0699356602b64136a30e69a5caf974e",
	"189cf8cf68030fa039a264e8fa62bf04d34b39596dc724616aebceff4eeb57db",
}

// TestPinnedRootSequence runs 2,000 seeded operations (half inserts, a
// fifth overwrites, the rest deletes) over a small, dense key space. Keys
// are one to three bytes from a four-letter alphabet, so the trie holds
// 5 to 30 keys that mostly share prefixes, and most deletes leave a branch
// with one child, which must collapse into a short node for the root to
// stay canonical. Values run from 1 to 40 bytes, so nodes are both
// embedded inline and hashed.
func TestPinnedRootSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	alphabet := []byte{0x00, 0x01, 0x10, 0xff}
	randKey := func() []byte {
		k := make([]byte, 1+rng.Intn(3))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return k
	}
	randValue := func() []byte {
		v := make([]byte, 1+rng.Intn(40))
		rng.Read(v)
		return v
	}
	tr := New(nil)
	model := map[string][]byte{}
	var roots []string
	for op := 1; op <= 2000; op++ {
		var live []string
		for k := range model {
			live = append(live, k)
		}
		sort.Strings(live)
		switch r := rng.Intn(20); {
		case r < 10 || len(live) == 0: // insert (or overwrite, if the key exists)
			k, v := randKey(), randValue()
			tr.Update(k, v)
			model[string(k)] = v
		case r < 14: // overwrite a live key
			k := live[rng.Intn(len(live))]
			v := randValue()
			tr.Update([]byte(k), v)
			model[k] = v
		default: // delete a live key
			k := live[rng.Intn(len(live))]
			tr.Delete([]byte(k))
			delete(model, k)
		}
		if op%100 != 0 {
			continue
		}
		root := tr.Hash()
		rebuilt := New(nil)
		for k, v := range model {
			rebuilt.Update([]byte(k), v)
			if got := tr.Get([]byte(k)); !bytes.Equal(got, v) {
				t.Fatalf("op %d: Get(%x) = %x, want %x", op, k, got, v)
			}
		}
		if rebuilt.Hash() != root {
			t.Fatalf("op %d: root %x differs from a trie rebuilt from the same %d keys", op, root, len(model))
		}
		roots = append(roots, hex.EncodeToString(root.Bytes()))
	}
	if len(roots) != len(pinnedRoots) {
		t.Fatalf("%d checkpoints, want %d", len(roots), len(pinnedRoots))
	}
	for i, r := range roots {
		if r != pinnedRoots[i] {
			t.Errorf("root after %d ops = %s, want %s", (i+1)*100, r, pinnedRoots[i])
		}
	}
}
