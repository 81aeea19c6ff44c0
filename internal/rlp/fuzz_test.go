package rlp

import (
	"bytes"
	"math/big"
	"testing"
)

// FuzzRLPRoundTrip checks the codec's two halves against each other on
// arbitrary inputs:
//
//   - decode direction: Decode must never panic, and anything it accepts
//     must re-encode byte-identically (the canonical-form checks make
//     valid RLP a bijection);
//   - encode direction: an item tree built from the fuzz input must
//     survive Encode → Decode structurally unchanged.
func FuzzRLPRoundTrip(f *testing.F) {
	f.Add([]byte{0x80})
	f.Add([]byte{0x01})
	f.Add(Encode(List(Uint(1<<40), String("hub"), List(Bytes(nil)))))
	f.Add(Encode(Bytes(new(big.Int).Lsh(big.NewInt(1), 200).Bytes())))
	f.Add([]byte{0xb8, 0x38})              // long-string header, truncated
	f.Add([]byte{0xf8, 0x01, 0x00, 0x00})  // non-canonical long list
	f.Add(bytes.Repeat([]byte{0xc1}, 128)) // deep nesting

	f.Fuzz(func(t *testing.T, data []byte) {
		if item, err := Decode(data); err == nil {
			if got := Encode(item); !bytes.Equal(got, data) {
				t.Fatalf("decode/encode not canonical:\n in  %x\n out %x", data, got)
			}
		}

		// Build a tree from the input and round-trip it. The builder
		// consumes bytes as instructions; whatever it produces must be
		// encodable and decode back to the same structure.
		tree, _ := buildItem(data, 0)
		if tree == nil {
			return
		}
		enc := Encode(tree)
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("encoder produced undecodable RLP for %x: %v", data, err)
		}
		if !sameItem(tree, back) {
			t.Fatalf("structural round trip mismatch for %x", data)
		}
	})
}

// buildItem interprets fuzz bytes as a tree constructor: 0 starts a list
// (children until a 1 byte or input ends), anything else emits a byte
// string of length b%17 drawn from the input.
func buildItem(data []byte, depth int) (*Item, []byte) {
	if len(data) == 0 || depth > 8 {
		return nil, data
	}
	op, rest := data[0], data[1:]
	if op == 0 {
		var items []*Item
		for len(rest) > 0 && rest[0] != 1 && len(items) < 8 {
			var child *Item
			child, rest = buildItem(rest, depth+1)
			if child == nil {
				break
			}
			items = append(items, child)
		}
		if len(rest) > 0 && rest[0] == 1 {
			rest = rest[1:]
		}
		return List(items...), rest
	}
	n := int(op) % 17
	if n > len(rest) {
		n = len(rest)
	}
	return Bytes(rest[:n]), rest[n:]
}

func sameItem(a, b *Item) bool {
	if a.Kind != b.Kind {
		return false
	}
	if a.Kind == KindBytes {
		return bytes.Equal(a.Bytes, b.Bytes)
	}
	if len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Items {
		if !sameItem(a.Items[i], b.Items[i]) {
			return false
		}
	}
	return true
}
