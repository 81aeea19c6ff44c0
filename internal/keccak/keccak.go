// Package keccak implements the Keccak-f[1600] sponge and the Keccak-256
// hash function with the ORIGINAL Keccak padding (domain byte 0x01) as used
// by Ethereum. Ethereum's keccak256 predates the final SHA-3 standard, which
// is why the padding differs from crypto/sha3-style functions.
//
// The hashing path is allocation-free: full blocks are absorbed directly
// from the caller's input, the partial-block buffer is a fixed array inside
// the digest, and finalize pads into a stack buffer. The nested-loop
// reference implementation lives on in oracle_test.go and every digest is
// differentially pinned against it.
package keccak

import (
	"encoding/binary"
	"hash"
)

const (
	rate256  = 136  // rate in bytes for 256-bit output
	dsKeccak = 0x01 // original Keccak padding (Ethereum)
)

// digest is a sponge-based Keccak-256 hash.Hash. The state is a flat
// [25]uint64 (lane i of a block XORs into a[i]); pending input lives in the
// fixed buf array, so a digest never allocates after construction.
type digest struct {
	a   [25]uint64
	buf [rate256]byte // pending input, less than rate256 bytes
	n   int           // number of buffered bytes
}

// New256 returns a hash.Hash computing Keccak-256 (Ethereum padding).
func New256() hash.Hash { return &digest{} }

// Sum256 returns the Keccak-256 digest of data.
func Sum256(data ...[]byte) [32]byte {
	if len(data) == 1 && len(data[0]) < rate256 {
		return sum256Block(data[0])
	}
	var d digest
	for _, b := range data {
		d.Write(b)
	}
	var out [32]byte
	d.finalize(&out)
	return out
}

// sum256Block is Sum256 of one input shorter than the rate: the input and
// its padding XOR straight into a zero state, one permutation, and the
// first four lanes are the digest. No digest, buffer or state copy.
func sum256Block(p []byte) [32]byte {
	var a [25]uint64
	full := len(p) / 8
	for i := 0; i < full; i++ {
		a[i] = binary.LittleEndian.Uint64(p[i*8:])
	}
	var last [8]byte
	copy(last[:], p[full*8:])
	last[len(p)%8] = dsKeccak
	a[full] = binary.LittleEndian.Uint64(last[:])
	a[rate256/8-1] ^= 0x80 << 56
	permute(&a)
	var out [32]byte
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], a[i])
	}
	return out
}

// Sum256Bytes is Sum256 returning a heap slice, convenient for APIs that
// want []byte.
func Sum256Bytes(data ...[]byte) []byte {
	h := Sum256(data...)
	return h[:]
}

func (d *digest) Size() int      { return 32 }
func (d *digest) BlockSize() int { return rate256 }

func (d *digest) Reset() {
	d.a = [25]uint64{}
	d.n = 0
}

func (d *digest) Write(p []byte) (int, error) {
	n := len(p)
	// Top up a partial block first.
	if d.n > 0 {
		c := copy(d.buf[d.n:], p)
		d.n += c
		p = p[c:]
		if d.n == rate256 {
			d.absorb(d.buf[:])
			d.n = 0
		}
	}
	// Absorb full blocks straight from the caller's input.
	for len(p) >= rate256 {
		d.absorb(p[:rate256])
		p = p[rate256:]
	}
	// Buffer the tail.
	if len(p) > 0 {
		d.n = copy(d.buf[:], p)
	}
	return n, nil
}

// absorb XORs one full rate-sized block into the state and permutes. Lane i
// of the block maps to flat state index i (little-endian lanes).
func (d *digest) absorb(block []byte) {
	for i := 0; i < rate256/8; i++ {
		d.a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	permute(&d.a)
}

// finalize pads, absorbs the last block and squeezes the 32-byte digest
// into out. It operates on a copy of the state so the digest remains usable
// for further writes (matching hash.Hash Sum semantics). Everything lives on
// the stack.
func (d *digest) finalize(out *[32]byte) {
	a := d.a
	// Pad the buffered tail: dsKeccak, zeros, final 0x80 (multi-rate padding).
	var block [rate256]byte
	copy(block[:], d.buf[:d.n])
	block[d.n] = dsKeccak
	block[rate256-1] |= 0x80
	for i := 0; i < rate256/8; i++ {
		a[i] ^= binary.LittleEndian.Uint64(block[i*8:])
	}
	permute(&a)
	for i := 0; i < 4; i++ {
		binary.LittleEndian.PutUint64(out[i*8:], a[i])
	}
}

func (d *digest) Sum(b []byte) []byte {
	var out [32]byte
	d.finalize(&out)
	return append(b, out[:]...)
}
