package keccak

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// Known-answer tests for Keccak-256 with the original (Ethereum) padding.
func TestKeccak256Vectors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		// The empty-string hash is Ethereum's famous emptyCodeHash.
		{"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"},
		{"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"},
		{"The quick brown fox jumps over the lazy dog",
			"4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15"},
	}
	for _, c := range cases {
		got := Sum256([]byte(c.in))
		if hex.EncodeToString(got[:]) != c.want {
			t.Errorf("Keccak256(%q) = %x, want %s", c.in, got, c.want)
		}
	}
}

func TestSHA3256EmptyVector(t *testing.T) {
	// NIST SHA3-256("") — distinguishes the 0x06 padding from Keccak's 0x01.
	got := refSum(nil, rate256, 32, dsSHA3)
	want := mustHex(t, "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a")
	if !bytes.Equal(got, want) {
		t.Errorf("SHA3-256(\"\") = %x, want %x", got, want)
	}
}

func TestKeccak512EmptyVector(t *testing.T) {
	got := refSum(nil, rate512, 64, dsKeccak)
	want := mustHex(t, "0eab42de4c3ceb9235fc91acffe746b29c29a8c366b7c60e4e67c466f36a4304"+
		"c00fa9caf9d87976ba469bcbe06713b435f091ef2769fb160cdab33d3670680e")
	if !bytes.Equal(got, want) {
		t.Errorf("Keccak512(\"\") = %x, want %x", got, want)
	}
}

// Incremental writes must produce the same digest as a single write,
// regardless of how the input is split (exercises the absorb loop across
// rate boundaries).
func TestIncrementalWrites(t *testing.T) {
	f := func(data []byte, splitRaw uint16) bool {
		oneShot := Sum256(data)

		h := New256()
		split := 0
		if len(data) > 0 {
			split = int(splitRaw) % (len(data) + 1)
		}
		h.Write(data[:split])
		h.Write(data[split:])
		inc := h.Sum(nil)
		return bytes.Equal(oneShot[:], inc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Multi-block inputs (longer than the 136-byte rate) must flow through the
// sponge consistently: hashing in many tiny writes equals one big write.
func TestMultiBlockManyWrites(t *testing.T) {
	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 7)
	}
	oneShot := Sum256(data)
	h := New256()
	for _, b := range data {
		h.Write([]byte{b})
	}
	if got := h.Sum(nil); !bytes.Equal(got, oneShot[:]) {
		t.Errorf("byte-at-a-time = %x, one-shot = %x", got, oneShot)
	}
}

// Sum must not disturb the running state (hash.Hash contract).
func TestSumDoesNotMutate(t *testing.T) {
	h := New256()
	h.Write([]byte("hello "))
	first := h.Sum(nil)
	second := h.Sum(nil)
	if !bytes.Equal(first, second) {
		t.Error("consecutive Sum calls differ")
	}
	h.Write([]byte("world"))
	full := h.Sum(nil)
	want := Sum256([]byte("hello world"))
	if !bytes.Equal(full, want[:]) {
		t.Errorf("Sum after more writes = %x, want %x", full, want)
	}
}

func TestReset(t *testing.T) {
	h := New256()
	h.Write([]byte("garbage"))
	h.Reset()
	h.Write([]byte("abc"))
	got := h.Sum(nil)
	want := Sum256([]byte("abc"))
	if !bytes.Equal(got, want[:]) {
		t.Errorf("after Reset: got %x want %x", got, want)
	}
}

// Different inputs should essentially never collide; sanity-check avalanche
// behaviour (a single flipped bit changes the digest).
func TestAvalanche(t *testing.T) {
	base := []byte("the quick brown fox")
	h0 := Sum256(base)
	for i := range base {
		mod := append([]byte{}, base...)
		mod[i] ^= 1
		h1 := Sum256(mod)
		if bytes.Equal(h0[:], h1[:]) {
			t.Fatalf("bit flip at byte %d did not change digest", i)
		}
	}
}

func TestSum256MultipleSlices(t *testing.T) {
	a := Sum256([]byte("foo"), []byte("bar"))
	b := Sum256([]byte("foobar"))
	if a != b {
		t.Error("Sum256 over split slices differs from concatenation")
	}
}

func TestSizesAndBlockSizes(t *testing.T) {
	if New256().Size() != 32 || New256().BlockSize() != 136 {
		t.Error("Keccak-256 size/rate wrong")
	}
}

func BenchmarkKeccak256_32B(b *testing.B) {
	data := make([]byte, 32)
	b.SetBytes(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}

func BenchmarkKeccak256_1KB(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
