package keccak

import (
	"math/bits"
	"sync/atomic"
)

// roundConstants are the 24 iota-step constants of Keccak-f[1600].
var roundConstants = [24]uint64{
	0x0000000000000001, 0x0000000000008082, 0x800000000000808A, 0x8000000080008000,
	0x000000000000808B, 0x0000000080000001, 0x8000000080008081, 0x8000000000008009,
	0x000000000000008A, 0x0000000000000088, 0x0000000080008009, 0x000000008000000A,
	0x000000008000808B, 0x800000000000008B, 0x8000000000008089, 0x8000000000008003,
	0x8000000000008002, 0x8000000000000080, 0x000000000000800A, 0x800000008000000A,
	0x8000000080008081, 0x8000000000008080, 0x0000000080000001, 0x8000000080008008,
}

// permuteMetrics gates the fleet-wide permutation counter. Counting costs
// one predictable branch when off; telemetry wiring (chain.New) turns it
// on, and the registry samples Permutes at scrape time.
var (
	permuteMetrics atomic.Bool
	permuteCount   atomic.Uint64
)

// EnableMetrics turns on the package's permutation counter.
func EnableMetrics() { permuteMetrics.Store(true) }

// Permutes returns the number of Keccak-f[1600] applications since process
// start (zero until EnableMetrics).
func Permutes() uint64 { return permuteCount.Load() }

// permute applies the full 24-round Keccak-f[1600] permutation. The state
// is one flat [25]uint64 with lane (x, y) of the reference indexing at
// a[5*y+x] — the same order the sponge absorbs little-endian lanes, so
// lane i of a block XORs straight into a[i].
//
// The rounds follow the in-place form of the Keccak team's
// Keccak-inplace.c. Theta's five column parities go into c0..c4, and its
// twists into d0..d4. Then rho, pi, chi and iota run one output row at a
// time: the row's five source lanes are read into c0..c4 and the five
// results are written back over those same slots. So a round moves no
// lane, and instead the lanes' positions are renamed. That renaming has
// period 4, so the loop body spells out 4 rounds and the state is back in
// standard order at every iteration's start. Every rotation is a
// bits.RotateLeft64 the compiler lowers to a single instruction. The
// reference nested-loop implementation is kept verbatim in oracle_test.go
// and pins every digest bit for bit.
func permute(a *[25]uint64) {
	if permuteMetrics.Load() {
		permuteCount.Add(1)
	}
	var c0, c1, c2, c3, c4, d0, d1, d2, d3, d4 uint64
	for round := 0; round < 24; round += 4 {
		// Round 1.
		c0 = a[0] ^ a[5] ^ a[10] ^ a[15] ^ a[20]
		c1 = a[1] ^ a[6] ^ a[11] ^ a[16] ^ a[21]
		c2 = a[2] ^ a[7] ^ a[12] ^ a[17] ^ a[22]
		c3 = a[3] ^ a[8] ^ a[13] ^ a[18] ^ a[23]
		c4 = a[4] ^ a[9] ^ a[14] ^ a[19] ^ a[24]
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)

		c0 = a[0] ^ d0
		c1 = bits.RotateLeft64(a[6]^d1, 44)
		c2 = bits.RotateLeft64(a[12]^d2, 43)
		c3 = bits.RotateLeft64(a[18]^d3, 21)
		c4 = bits.RotateLeft64(a[24]^d4, 14)
		a[0] = c0 ^ (c2 &^ c1) ^ roundConstants[round]
		a[6] = c1 ^ (c3 &^ c2)
		a[12] = c2 ^ (c4 &^ c3)
		a[18] = c3 ^ (c0 &^ c4)
		a[24] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[3]^d3, 28)
		c1 = bits.RotateLeft64(a[9]^d4, 20)
		c2 = bits.RotateLeft64(a[10]^d0, 3)
		c3 = bits.RotateLeft64(a[16]^d1, 45)
		c4 = bits.RotateLeft64(a[22]^d2, 61)
		a[10] = c0 ^ (c2 &^ c1)
		a[16] = c1 ^ (c3 &^ c2)
		a[22] = c2 ^ (c4 &^ c3)
		a[3] = c3 ^ (c0 &^ c4)
		a[9] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[1]^d1, 1)
		c1 = bits.RotateLeft64(a[7]^d2, 6)
		c2 = bits.RotateLeft64(a[13]^d3, 25)
		c3 = bits.RotateLeft64(a[19]^d4, 8)
		c4 = bits.RotateLeft64(a[20]^d0, 18)
		a[20] = c0 ^ (c2 &^ c1)
		a[1] = c1 ^ (c3 &^ c2)
		a[7] = c2 ^ (c4 &^ c3)
		a[13] = c3 ^ (c0 &^ c4)
		a[19] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[4]^d4, 27)
		c1 = bits.RotateLeft64(a[5]^d0, 36)
		c2 = bits.RotateLeft64(a[11]^d1, 10)
		c3 = bits.RotateLeft64(a[17]^d2, 15)
		c4 = bits.RotateLeft64(a[23]^d3, 56)
		a[5] = c0 ^ (c2 &^ c1)
		a[11] = c1 ^ (c3 &^ c2)
		a[17] = c2 ^ (c4 &^ c3)
		a[23] = c3 ^ (c0 &^ c4)
		a[4] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[2]^d2, 62)
		c1 = bits.RotateLeft64(a[8]^d3, 55)
		c2 = bits.RotateLeft64(a[14]^d4, 39)
		c3 = bits.RotateLeft64(a[15]^d0, 41)
		c4 = bits.RotateLeft64(a[21]^d1, 2)
		a[15] = c0 ^ (c2 &^ c1)
		a[21] = c1 ^ (c3 &^ c2)
		a[2] = c2 ^ (c4 &^ c3)
		a[8] = c3 ^ (c0 &^ c4)
		a[14] = c4 ^ (c1 &^ c0)

		// Round 2.
		c0 = a[0] ^ a[10] ^ a[20] ^ a[5] ^ a[15]
		c1 = a[6] ^ a[16] ^ a[1] ^ a[11] ^ a[21]
		c2 = a[12] ^ a[22] ^ a[7] ^ a[17] ^ a[2]
		c3 = a[18] ^ a[3] ^ a[13] ^ a[23] ^ a[8]
		c4 = a[24] ^ a[9] ^ a[19] ^ a[4] ^ a[14]
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)

		c0 = a[0] ^ d0
		c1 = bits.RotateLeft64(a[16]^d1, 44)
		c2 = bits.RotateLeft64(a[7]^d2, 43)
		c3 = bits.RotateLeft64(a[23]^d3, 21)
		c4 = bits.RotateLeft64(a[14]^d4, 14)
		a[0] = c0 ^ (c2 &^ c1) ^ roundConstants[round+1]
		a[16] = c1 ^ (c3 &^ c2)
		a[7] = c2 ^ (c4 &^ c3)
		a[23] = c3 ^ (c0 &^ c4)
		a[14] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[18]^d3, 28)
		c1 = bits.RotateLeft64(a[9]^d4, 20)
		c2 = bits.RotateLeft64(a[20]^d0, 3)
		c3 = bits.RotateLeft64(a[11]^d1, 45)
		c4 = bits.RotateLeft64(a[2]^d2, 61)
		a[20] = c0 ^ (c2 &^ c1)
		a[11] = c1 ^ (c3 &^ c2)
		a[2] = c2 ^ (c4 &^ c3)
		a[18] = c3 ^ (c0 &^ c4)
		a[9] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[6]^d1, 1)
		c1 = bits.RotateLeft64(a[22]^d2, 6)
		c2 = bits.RotateLeft64(a[13]^d3, 25)
		c3 = bits.RotateLeft64(a[4]^d4, 8)
		c4 = bits.RotateLeft64(a[15]^d0, 18)
		a[15] = c0 ^ (c2 &^ c1)
		a[6] = c1 ^ (c3 &^ c2)
		a[22] = c2 ^ (c4 &^ c3)
		a[13] = c3 ^ (c0 &^ c4)
		a[4] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[24]^d4, 27)
		c1 = bits.RotateLeft64(a[10]^d0, 36)
		c2 = bits.RotateLeft64(a[1]^d1, 10)
		c3 = bits.RotateLeft64(a[17]^d2, 15)
		c4 = bits.RotateLeft64(a[8]^d3, 56)
		a[10] = c0 ^ (c2 &^ c1)
		a[1] = c1 ^ (c3 &^ c2)
		a[17] = c2 ^ (c4 &^ c3)
		a[8] = c3 ^ (c0 &^ c4)
		a[24] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[12]^d2, 62)
		c1 = bits.RotateLeft64(a[3]^d3, 55)
		c2 = bits.RotateLeft64(a[19]^d4, 39)
		c3 = bits.RotateLeft64(a[5]^d0, 41)
		c4 = bits.RotateLeft64(a[21]^d1, 2)
		a[5] = c0 ^ (c2 &^ c1)
		a[21] = c1 ^ (c3 &^ c2)
		a[12] = c2 ^ (c4 &^ c3)
		a[3] = c3 ^ (c0 &^ c4)
		a[19] = c4 ^ (c1 &^ c0)

		// Round 3.
		c0 = a[0] ^ a[20] ^ a[15] ^ a[10] ^ a[5]
		c1 = a[16] ^ a[11] ^ a[6] ^ a[1] ^ a[21]
		c2 = a[7] ^ a[2] ^ a[22] ^ a[17] ^ a[12]
		c3 = a[23] ^ a[18] ^ a[13] ^ a[8] ^ a[3]
		c4 = a[14] ^ a[9] ^ a[4] ^ a[24] ^ a[19]
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)

		c0 = a[0] ^ d0
		c1 = bits.RotateLeft64(a[11]^d1, 44)
		c2 = bits.RotateLeft64(a[22]^d2, 43)
		c3 = bits.RotateLeft64(a[8]^d3, 21)
		c4 = bits.RotateLeft64(a[19]^d4, 14)
		a[0] = c0 ^ (c2 &^ c1) ^ roundConstants[round+2]
		a[11] = c1 ^ (c3 &^ c2)
		a[22] = c2 ^ (c4 &^ c3)
		a[8] = c3 ^ (c0 &^ c4)
		a[19] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[23]^d3, 28)
		c1 = bits.RotateLeft64(a[9]^d4, 20)
		c2 = bits.RotateLeft64(a[15]^d0, 3)
		c3 = bits.RotateLeft64(a[1]^d1, 45)
		c4 = bits.RotateLeft64(a[12]^d2, 61)
		a[15] = c0 ^ (c2 &^ c1)
		a[1] = c1 ^ (c3 &^ c2)
		a[12] = c2 ^ (c4 &^ c3)
		a[23] = c3 ^ (c0 &^ c4)
		a[9] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[16]^d1, 1)
		c1 = bits.RotateLeft64(a[2]^d2, 6)
		c2 = bits.RotateLeft64(a[13]^d3, 25)
		c3 = bits.RotateLeft64(a[24]^d4, 8)
		c4 = bits.RotateLeft64(a[5]^d0, 18)
		a[5] = c0 ^ (c2 &^ c1)
		a[16] = c1 ^ (c3 &^ c2)
		a[2] = c2 ^ (c4 &^ c3)
		a[13] = c3 ^ (c0 &^ c4)
		a[24] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[14]^d4, 27)
		c1 = bits.RotateLeft64(a[20]^d0, 36)
		c2 = bits.RotateLeft64(a[6]^d1, 10)
		c3 = bits.RotateLeft64(a[17]^d2, 15)
		c4 = bits.RotateLeft64(a[3]^d3, 56)
		a[20] = c0 ^ (c2 &^ c1)
		a[6] = c1 ^ (c3 &^ c2)
		a[17] = c2 ^ (c4 &^ c3)
		a[3] = c3 ^ (c0 &^ c4)
		a[14] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[7]^d2, 62)
		c1 = bits.RotateLeft64(a[18]^d3, 55)
		c2 = bits.RotateLeft64(a[4]^d4, 39)
		c3 = bits.RotateLeft64(a[10]^d0, 41)
		c4 = bits.RotateLeft64(a[21]^d1, 2)
		a[10] = c0 ^ (c2 &^ c1)
		a[21] = c1 ^ (c3 &^ c2)
		a[7] = c2 ^ (c4 &^ c3)
		a[18] = c3 ^ (c0 &^ c4)
		a[4] = c4 ^ (c1 &^ c0)

		// Round 4.
		c0 = a[0] ^ a[15] ^ a[5] ^ a[20] ^ a[10]
		c1 = a[11] ^ a[1] ^ a[16] ^ a[6] ^ a[21]
		c2 = a[22] ^ a[12] ^ a[2] ^ a[17] ^ a[7]
		c3 = a[8] ^ a[23] ^ a[13] ^ a[3] ^ a[18]
		c4 = a[19] ^ a[9] ^ a[24] ^ a[14] ^ a[4]
		d0 = c4 ^ bits.RotateLeft64(c1, 1)
		d1 = c0 ^ bits.RotateLeft64(c2, 1)
		d2 = c1 ^ bits.RotateLeft64(c3, 1)
		d3 = c2 ^ bits.RotateLeft64(c4, 1)
		d4 = c3 ^ bits.RotateLeft64(c0, 1)

		c0 = a[0] ^ d0
		c1 = bits.RotateLeft64(a[1]^d1, 44)
		c2 = bits.RotateLeft64(a[2]^d2, 43)
		c3 = bits.RotateLeft64(a[3]^d3, 21)
		c4 = bits.RotateLeft64(a[4]^d4, 14)
		a[0] = c0 ^ (c2 &^ c1) ^ roundConstants[round+3]
		a[1] = c1 ^ (c3 &^ c2)
		a[2] = c2 ^ (c4 &^ c3)
		a[3] = c3 ^ (c0 &^ c4)
		a[4] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[8]^d3, 28)
		c1 = bits.RotateLeft64(a[9]^d4, 20)
		c2 = bits.RotateLeft64(a[5]^d0, 3)
		c3 = bits.RotateLeft64(a[6]^d1, 45)
		c4 = bits.RotateLeft64(a[7]^d2, 61)
		a[5] = c0 ^ (c2 &^ c1)
		a[6] = c1 ^ (c3 &^ c2)
		a[7] = c2 ^ (c4 &^ c3)
		a[8] = c3 ^ (c0 &^ c4)
		a[9] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[11]^d1, 1)
		c1 = bits.RotateLeft64(a[12]^d2, 6)
		c2 = bits.RotateLeft64(a[13]^d3, 25)
		c3 = bits.RotateLeft64(a[14]^d4, 8)
		c4 = bits.RotateLeft64(a[10]^d0, 18)
		a[10] = c0 ^ (c2 &^ c1)
		a[11] = c1 ^ (c3 &^ c2)
		a[12] = c2 ^ (c4 &^ c3)
		a[13] = c3 ^ (c0 &^ c4)
		a[14] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[19]^d4, 27)
		c1 = bits.RotateLeft64(a[15]^d0, 36)
		c2 = bits.RotateLeft64(a[16]^d1, 10)
		c3 = bits.RotateLeft64(a[17]^d2, 15)
		c4 = bits.RotateLeft64(a[18]^d3, 56)
		a[15] = c0 ^ (c2 &^ c1)
		a[16] = c1 ^ (c3 &^ c2)
		a[17] = c2 ^ (c4 &^ c3)
		a[18] = c3 ^ (c0 &^ c4)
		a[19] = c4 ^ (c1 &^ c0)

		c0 = bits.RotateLeft64(a[22]^d2, 62)
		c1 = bits.RotateLeft64(a[23]^d3, 55)
		c2 = bits.RotateLeft64(a[24]^d4, 39)
		c3 = bits.RotateLeft64(a[20]^d0, 41)
		c4 = bits.RotateLeft64(a[21]^d1, 2)
		a[20] = c0 ^ (c2 &^ c1)
		a[21] = c1 ^ (c3 &^ c2)
		a[22] = c2 ^ (c4 &^ c3)
		a[23] = c3 ^ (c0 &^ c4)
		a[24] = c4 ^ (c1 &^ c0)
	}
}
