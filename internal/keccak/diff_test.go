package keccak

import (
	"bytes"
	"encoding/hex"
	"math/rand"
	"runtime"
	"testing"
)

// The unrolled flat-state permutation must match the reference nested-loop
// permutation on random states. Flat lane i corresponds to reference lane
// (x, y) = (i%5, i/5), exactly the order the sponge absorbs blocks.
func TestPermuteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 200; iter++ {
		var flat [25]uint64
		var ref [5][5]uint64
		for i := 0; i < 25; i++ {
			v := rng.Uint64()
			flat[i] = v
			ref[i%5][i/5] = v
		}
		permute(&flat)
		refPermute(&ref)
		for i := 0; i < 25; i++ {
			if flat[i] != ref[i%5][i/5] {
				t.Fatalf("iter %d: lane %d differs: %016x vs %016x",
					iter, i, flat[i], ref[i%5][i/5])
			}
		}
	}
}

// Differential sweep over every length crossing the first few rate
// boundaries — the zone where the buffered-write and padding rewrites could
// diverge from the oracle. Sum256 is swept too: below the rate it takes the
// one-block path, from the rate up the streaming one.
func TestDigestMatchesOracleBoundaries(t *testing.T) {
	data := make([]byte, 3*rate256+2)
	for i := range data {
		data[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(data); n++ {
		want := refSum(data[:n], rate256, 32, dsKeccak)
		var d digest
		d.Write(data[:n])
		var got [32]byte
		d.finalize(&got)
		if !bytes.Equal(got[:], want) {
			t.Fatalf("len=%d: got %x want %x", n, got, want)
		}
		if sum := Sum256(data[:n]); !bytes.Equal(sum[:], want) {
			t.Fatalf("Sum256 len=%d: got %x want %x", n, sum, want)
		}
	}
}

// FuzzKeccakDiff pins the rewritten sponge against the pre-rewrite oracle
// over arbitrary inputs and write splits.
func FuzzKeccakDiff(f *testing.F) {
	f.Add([]byte{}, uint16(0))
	f.Add([]byte("abc"), uint16(1))
	f.Add(bytes.Repeat([]byte{0xa5}, rate256-1), uint16(3))
	f.Add(bytes.Repeat([]byte{0x5a}, rate256), uint16(70))
	f.Add(bytes.Repeat([]byte{0xff}, 2*rate256+1), uint16(200))
	f.Add(bytes.Repeat([]byte{0x01}, rate512), uint16(8))
	f.Fuzz(func(t *testing.T, data []byte, split uint16) {
		want256 := refSum(data, rate256, 32, dsKeccak)
		if got := Sum256(data); !bytes.Equal(got[:], want256) {
			t.Fatalf("Sum256 diverges from oracle on %d bytes: %x vs %x",
				len(data), got, want256)
		}
		// Streaming path with an arbitrary split point.
		s := 0
		if len(data) > 0 {
			s = int(split) % (len(data) + 1)
		}
		h := New256()
		h.Write(data[:s])
		h.Write(data[s:])
		if got := h.Sum(nil); !bytes.Equal(got, want256) {
			t.Fatalf("streaming split=%d diverges: %x vs %x", s, got, want256)
		}
	})
}

// NIST / Keccak known-answer vectors beyond the unit-test basics: the
// SHA3-256, original-Keccak-256 and Keccak-512 digests of fixed patterns,
// checked against published values so the oracle itself is anchored to the
// spec, not merely to its own history. The package hashes Keccak-256 only;
// the other two run through the oracle's refSum.
func TestKnownAnswerVectors(t *testing.T) {
	cases := []struct {
		name string
		hash func([]byte) []byte
		in   []byte
		want string
	}{
		{
			// SHA3-256 one-block message sample (NIST CSRC example): "abc".
			"sha3-256/abc",
			func(b []byte) []byte { return refSum(b, rate256, 32, dsSHA3) },
			[]byte("abc"),
			"3a985da74fe225b2045c172d6bd390bd855f086e3e9d525b46bfe24511431532",
		},
		{
			// SHA3-256 two-block message sample (NIST CSRC example).
			"sha3-256/two-block",
			func(b []byte) []byte { return refSum(b, rate256, 32, dsSHA3) },
			[]byte("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
			"41c0dba2a9d6240849100376a8235e2c82e1b9998a999e21db32dd97496d3376",
		},
		{
			// Keccak-256 of 135 zero bytes (rate-1: padding collapses to a
			// single 0x81 byte — the trickiest padding case).
			"keccak-256/135-zeros",
			func(b []byte) []byte { h := Sum256(b); return h[:] },
			make([]byte, 135),
			hex.EncodeToString(refSum(make([]byte, 135), rate256, 32, dsKeccak)),
		},
		{
			// Keccak-256("testing") — a fixed external vector.
			"keccak-256/testing",
			func(b []byte) []byte { h := Sum256(b); return h[:] },
			[]byte("testing"),
			"5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
		},
		{
			// Keccak-512("abc") — published original-Keccak vector.
			"keccak-512/abc",
			func(b []byte) []byte { return refSum(b, rate512, 64, dsKeccak) },
			[]byte("abc"),
			"18587dc2ea106b9a1563e32b3312421ca164c7f1f07bc922a9c83d77cea3a1e5" +
				"d0c69910739025372dc14ac9642629379540c17e2a65b19d77aa511a9d00bb96",
		},
	}
	for _, c := range cases {
		got := c.hash(c.in)
		if hex.EncodeToString(got) != c.want {
			t.Errorf("%s = %x, want %s", c.name, got, c.want)
		}
	}
}

func TestPermuteCounter(t *testing.T) {
	before := Permutes()
	Sum256([]byte("x"))
	if Permutes() != before {
		t.Fatal("counter moved while metrics disabled")
	}
	EnableMetrics()
	Sum256([]byte("x"))
	if Permutes() != before+1 {
		t.Fatalf("counter = %d, want %d", Permutes(), before+1)
	}
}

// Zero-allocation CI gate: the one-shot helpers and the streaming digest
// with a caller-provided output buffer must not touch the heap. (The race detector instruments allocations, so the gate
// only runs on pure builds.)
func TestZeroAllocHashing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	data := make([]byte, 200)
	var sink [32]byte
	if n := testing.AllocsPerRun(100, func() { sink = Sum256(data) }); n != 0 {
		t.Errorf("Sum256 allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sink = Sum256(data[:32]) }); n != 0 {
		t.Errorf("one-block Sum256 allocs/op = %v, want 0", n)
	}
	h := New256()
	out := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		h.Reset()
		h.Write(data)
		out = h.Sum(out[:0])
	}); n != 0 {
		t.Errorf("streaming Reset/Write/Sum allocs/op = %v, want 0", n)
	}
	_ = sink
	runtime.KeepAlive(out)
}

func BenchmarkKeccak256_136B(b *testing.B) {
	data := make([]byte, 136)
	b.SetBytes(136)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Sum256(data)
	}
}
