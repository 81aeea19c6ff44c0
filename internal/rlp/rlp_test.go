package rlp

import (
	"bytes"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

func enc(t *testing.T, it *Item) string {
	t.Helper()
	return hex.EncodeToString(Encode(it))
}

// Canonical vectors from the Ethereum RLP specification.
func TestEncodeVectors(t *testing.T) {
	cases := []struct {
		name string
		item *Item
		want string
	}{
		{"dog", String("dog"), "83646f67"},
		{"cat-dog list", List(String("cat"), String("dog")), "c88363617483646f67"},
		{"empty string", String(""), "80"},
		{"empty list", List(), "c0"},
		{"zero", Uint(0), "80"},
		{"0x0f", Uint(15), "0f"},
		{"0x0400", Uint(1024), "820400"},
		{"set of three", List(List(), List(List()), List(List(), List(List()))),
			"c7c0c1c0c3c0c1c0"},
		{"lorem ipsum", String("Lorem ipsum dolor sit amet, consectetur adipisicing elit"),
			"b838" + hex.EncodeToString([]byte("Lorem ipsum dolor sit amet, consectetur adipisicing elit"))},
		{"single byte 0x00", Bytes([]byte{0}), "00"},
		{"single byte 0x7f", Bytes([]byte{0x7f}), "7f"},
		{"single byte 0x80", Bytes([]byte{0x80}), "8180"},
	}
	for _, c := range cases {
		if got := enc(t, c.item); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestEncodeLongString(t *testing.T) {
	s := strings.Repeat("a", 1024)
	got := Encode(String(s))
	// 1024 = 0x0400 needs two length bytes: prefix 0xb9 0x04 0x00.
	want := append([]byte{0xb9, 0x04, 0x00}, []byte(s)...)
	if !bytes.Equal(got, want) {
		t.Errorf("long string prefix: got %x", got[:4])
	}
}

func TestEncodeLongList(t *testing.T) {
	var items []*Item
	for i := 0; i < 100; i++ {
		items = append(items, String("abcdefgh")) // 9 bytes each encoded
	}
	got := Encode(List(items...))
	// payload = 900 bytes = 0x0384, prefix 0xf9 0x03 0x84
	if got[0] != 0xf9 || got[1] != 0x03 || got[2] != 0x84 {
		t.Errorf("long list prefix: got %x", got[:3])
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(b []byte, small uint8, v uint64) bool {
		item := List(
			Bytes(b),
			Uint(uint64(small)),
			Uint(v),
			List(Bytes(b), List()),
			String("fixed"),
		)
		encoded := Encode(item)
		decoded, err := Decode(encoded)
		if err != nil {
			return false
		}
		// Re-encode must be identical (canonical encoding).
		return bytes.Equal(Encode(decoded), encoded)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDecodeValues(t *testing.T) {
	item, err := Decode(Encode(List(Uint(42), String("hi"), List())))
	if err != nil {
		t.Fatal(err)
	}
	if item.Kind != KindList || len(item.Items) != 3 {
		t.Fatalf("bad decode shape: %+v", item)
	}
	v, err := item.Items[0].Uint64()
	if err != nil || v != 42 {
		t.Errorf("Uint64: %v, %v", v, err)
	}
	if string(item.Items[1].Bytes) != "hi" {
		t.Errorf("string: %q", item.Items[1].Bytes)
	}
	if item.Items[2].Kind != KindList || len(item.Items[2].Items) != 0 {
		t.Errorf("empty list: %+v", item.Items[2])
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"truncated string", "83646f"},
		{"truncated list", "c883636174"},
		{"trailing bytes", "83646f6700"},
		{"non-canonical single byte", "8100"},
		{"non-canonical long length", "b800"},
		{"leading zero in length", "b90001" + strings.Repeat("61", 1)},
		{"empty input", ""},
	}
	for _, c := range cases {
		data, err := hex.DecodeString(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestUint64NonCanonical(t *testing.T) {
	// 0x820001 encodes integer 1 with a leading zero byte: invalid as int.
	item, err := Decode([]byte{0x82, 0x00, 0x01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := item.Uint64(); err == nil {
		t.Error("expected canonical-form error")
	}
}

func TestNestingDepthLimit(t *testing.T) {
	// Build a 100-deep nested list: c1 c1 c1 ... c0
	data := make([]byte, 0, 101)
	for i := 0; i < 100; i++ {
		data = append(data, 0xc1)
	}
	data = append(data, 0xc0)
	if _, err := Decode(data); err == nil {
		t.Error("expected depth error")
	}
}

// The famous Ethereum constant: keccak256(rlp("")) is the empty trie root.
// Here we only verify rlp of empty string is 0x80, the hashing is checked
// in the trie package.
func TestEmptyStringEncoding(t *testing.T) {
	if got := EncodeBytes(nil); !bytes.Equal(got, []byte{0x80}) {
		t.Errorf("rlp(\"\") = %x", got)
	}
}

func BenchmarkEncodeTxShape(b *testing.B) {
	item := List(
		Uint(7),
		Uint(20_000_000_000),
		Uint(21000),
		Bytes(make([]byte, 20)),
		Uint(1e18),
		Bytes(make([]byte, 100)),
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(item)
	}
}
