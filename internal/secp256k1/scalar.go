package secp256k1

import (
	"encoding/binary"
	"math/bits"
)

// Scalar is an integer modulo the secp256k1 group order
//
//	n = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141,
//
// held in four 64-bit little-endian limbs and kept fully reduced (< n).
// Like FieldElement it is a value type with stack-only arithmetic:
// 2^256 ≡ scalarC (mod n) where scalarC = 2^256 - n is only 129 bits, so
// reduction is a multiply-accumulate fold, never a division.
//
// Scalar is the boundary type of the package's public API: signature
// components (Signature.R/S, transaction R/S, envelope signatures) and
// private keys (PrivateKey.D) are Scalars, constructed from raw bytes with
// ScalarFromBytes and serialized with Bytes/Bytes32.
type Scalar struct {
	n [4]uint64
}

// scalarN holds the little-endian limbs of the group order n.
var scalarN = [4]uint64{0xBFD25E8CD0364141, 0xBAAEDCE6AF48A03B, 0xFFFFFFFFFFFFFFFE, 0xFFFFFFFFFFFFFFFF}

// scalarC holds 2^256 - n (129 bits; index 2 is the single top bit).
var scalarC = [3]uint64{0x402DA1732FC9BEBF, 0x4551231950B75FC4, 1}

// scalarHalfN holds n >> 1, the threshold of the low-S rule.
var scalarHalfN = [4]uint64{0xDFE92F46681B20A0, 0x5D576E7357A4501D, 0xFFFFFFFFFFFFFFFF, 0x7FFFFFFFFFFFFFFF}

// ScalarFromUint64 returns the scalar with the small value v.
func ScalarFromUint64(v uint64) Scalar {
	return Scalar{n: [4]uint64{v, 0, 0, 0}}
}

// ScalarFromBytes interprets b as a 32-byte big-endian integer. ok is
// false when b has the wrong length or encodes a value >= n (the value is
// still returned reduced); boundary decoders (ecrecover input words,
// signature tuples) treat false as out-of-range.
func ScalarFromBytes(b []byte) (s Scalar, ok bool) {
	if len(b) != 32 {
		return Scalar{}, false
	}
	var buf [32]byte
	copy(buf[:], b)
	overflow := s.SetBytes32(&buf)
	return s, !overflow
}

// SetBytes32 sets z to b (big-endian) reduced modulo n and reports whether
// the raw value overflowed (was >= n).
func (z *Scalar) SetBytes32(b *[32]byte) (overflow bool) {
	z.n[3] = binary.BigEndian.Uint64(b[0:8])
	z.n[2] = binary.BigEndian.Uint64(b[8:16])
	z.n[1] = binary.BigEndian.Uint64(b[16:24])
	z.n[0] = binary.BigEndian.Uint64(b[24:32])
	if z.geN() {
		z.subNInPlace()
		return true
	}
	return false
}

// SetUint64 sets z to the small value v.
func (z *Scalar) SetUint64(v uint64) *Scalar {
	z.n = [4]uint64{v, 0, 0, 0}
	return z
}

// Bytes32 returns the canonical 32-byte big-endian encoding.
func (z *Scalar) Bytes32() [32]byte {
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:8], z.n[3])
	binary.BigEndian.PutUint64(out[8:16], z.n[2])
	binary.BigEndian.PutUint64(out[16:24], z.n[1])
	binary.BigEndian.PutUint64(out[24:32], z.n[0])
	return out
}

// Bytes returns the minimal big-endian encoding (no leading zero bytes;
// empty for zero) — the form RLP integer fields use.
func (z *Scalar) Bytes() []byte {
	full := z.Bytes32()
	i := 0
	for i < 32 && full[i] == 0 {
		i++
	}
	out := make([]byte, 32-i)
	copy(out, full[i:])
	return out
}

// IsZero reports whether z is zero.
func (z *Scalar) IsZero() bool {
	return z.n[0]|z.n[1]|z.n[2]|z.n[3] == 0
}

// Equal reports whether z and x are the same scalar.
func (z *Scalar) Equal(x *Scalar) bool { return z.n == x.n }

// IsHigh reports whether z > n/2 (a high-S signature component that the
// homestead rule rejects).
func (z *Scalar) IsHigh() bool {
	for i := 3; i >= 0; i-- {
		if z.n[i] != scalarHalfN[i] {
			return z.n[i] > scalarHalfN[i]
		}
	}
	return false // equal to n/2 is not high
}

// geN reports z >= n for a z < 2^256.
func (z *Scalar) geN() bool {
	for i := 3; i >= 0; i-- {
		if z.n[i] != scalarN[i] {
			return z.n[i] > scalarN[i]
		}
	}
	return true
}

// subNInPlace subtracts n once (caller guarantees z >= n).
func (z *Scalar) subNInPlace() {
	var b uint64
	z.n[0], b = bits.Sub64(z.n[0], scalarN[0], 0)
	z.n[1], b = bits.Sub64(z.n[1], scalarN[1], b)
	z.n[2], b = bits.Sub64(z.n[2], scalarN[2], b)
	z.n[3], _ = bits.Sub64(z.n[3], scalarN[3], b)
}

// Add sets z = x + y mod n.
func (z *Scalar) Add(x, y *Scalar) *Scalar {
	var c uint64
	z.n[0], c = bits.Add64(x.n[0], y.n[0], 0)
	z.n[1], c = bits.Add64(x.n[1], y.n[1], c)
	z.n[2], c = bits.Add64(x.n[2], y.n[2], c)
	z.n[3], c = bits.Add64(x.n[3], y.n[3], c)
	if c != 0 {
		// Dropped 2^256 ≡ scalarC; x+y-2^256 < n so adding scalarC (< n)
		// cannot carry out again.
		z.n[0], c = bits.Add64(z.n[0], scalarC[0], 0)
		z.n[1], c = bits.Add64(z.n[1], scalarC[1], c)
		z.n[2], c = bits.Add64(z.n[2], scalarC[2], c)
		z.n[3], _ = bits.Add64(z.n[3], 0, c)
	}
	if z.geN() {
		z.subNInPlace()
	}
	return z
}

// Negate sets z = -x mod n.
func (z *Scalar) Negate(x *Scalar) *Scalar {
	if x.IsZero() {
		z.n = [4]uint64{}
		return z
	}
	var b uint64
	z.n[0], b = bits.Sub64(scalarN[0], x.n[0], 0)
	z.n[1], b = bits.Sub64(scalarN[1], x.n[1], b)
	z.n[2], b = bits.Sub64(scalarN[2], x.n[2], b)
	z.n[3], _ = bits.Sub64(scalarN[3], x.n[3], b)
	return z
}

// Mul sets z = x * y mod n.
func (z *Scalar) Mul(x, y *Scalar) *Scalar {
	var t [8]uint64
	mul256(&t, &x.n, &y.n)
	z.reduce512(&t)
	return z
}

// mulAddC accumulates hi * scalarC into the 4-limb value lo, returning the
// 8-limb result (top limbs bounded by the caller's input sizes). hi may
// have fewer than four meaningful limbs; zero limbs cost one Mul64 each.
func mulAddC(r *[8]uint64, lo *[4]uint64, hi *[4]uint64) {
	var pp [8]uint64
	pp[0], pp[1], pp[2], pp[3] = lo[0], lo[1], lo[2], lo[3]
	// hi * scalarC with scalarC = [c0, c1, 1]: schoolbook over the two
	// real limbs plus a shifted add for the top bit.
	for j := 0; j < 2; j++ {
		var carry uint64
		for i := 0; i < 4; i++ {
			h, l := bits.Mul64(hi[i], scalarC[j])
			var c uint64
			l, c = bits.Add64(l, pp[i+j], 0)
			h, _ = bits.Add64(h, 0, c)
			l, c = bits.Add64(l, carry, 0)
			h, _ = bits.Add64(h, 0, c)
			pp[i+j] = l
			carry = h
		}
		pp[j+4] += carry
	}
	// + hi << 128 (scalarC[2] == 1)
	var c uint64
	pp[2], c = bits.Add64(pp[2], hi[0], 0)
	pp[3], c = bits.Add64(pp[3], hi[1], c)
	pp[4], c = bits.Add64(pp[4], hi[2], c)
	pp[5], c = bits.Add64(pp[5], hi[3], c)
	pp[6], c = bits.Add64(pp[6], 0, c)
	pp[7], _ = bits.Add64(pp[7], 0, c)
	*r = pp
}

// reduce512 folds a 512-bit product into z modulo n using
// 2^256 ≡ scalarC. scalarC is 129 bits, so each fold shrinks the value by
// ~127 bits: three folds plus one conditional subtraction reach canonical
// range.
func (z *Scalar) reduce512(t *[8]uint64) {
	// Fold 1: r = t[0..3] + t[4..7]*scalarC  (< 2^386).
	var lo, hi [4]uint64
	var r [8]uint64
	lo = [4]uint64{t[0], t[1], t[2], t[3]}
	hi = [4]uint64{t[4], t[5], t[6], t[7]}
	mulAddC(&r, &lo, &hi)
	// Fold 2: r = r[0..3] + r[4..6]*scalarC  (< 2^260; r[7] is zero).
	lo = [4]uint64{r[0], r[1], r[2], r[3]}
	hi = [4]uint64{r[4], r[5], r[6], 0}
	mulAddC(&r, &lo, &hi)
	// Fold 3: r[4] < 2^4, higher limbs zero; r[4]*scalarC < 2^133.
	z.n = [4]uint64{r[0], r[1], r[2], r[3]}
	if r[4] != 0 {
		h0, l0 := bits.Mul64(r[4], scalarC[0])
		h1, l1 := bits.Mul64(r[4], scalarC[1])
		var m [4]uint64
		var c uint64
		m[0] = l0
		m[1], c = bits.Add64(l1, h0, 0)
		m[2], c = bits.Add64(r[4], h1, c) // + r[4] << 128
		m[3] = c
		z.n[0], c = bits.Add64(z.n[0], m[0], 0)
		z.n[1], c = bits.Add64(z.n[1], m[1], c)
		z.n[2], c = bits.Add64(z.n[2], m[2], c)
		z.n[3], c = bits.Add64(z.n[3], m[3], c)
		if c != 0 {
			// Final wrap: the residue is tiny, one more scalarC cannot
			// carry.
			z.n[0], c = bits.Add64(z.n[0], scalarC[0], 0)
			z.n[1], c = bits.Add64(z.n[1], scalarC[1], c)
			z.n[2], c = bits.Add64(z.n[2], scalarC[2], c)
			z.n[3], _ = bits.Add64(z.n[3], 0, c)
		}
	}
	if z.geN() {
		z.subNInPlace()
	}
}

// Inverse sets z = x^-1 mod n via the binary extended GCD (inverse.go):
// ~500 shift/add rounds instead of the 252 squarings of the Fermat chain
// it replaced, an order of magnitude fewer cycles. x must be nonzero (the
// inverse of zero is left as zero).
func (z *Scalar) Inverse(x *Scalar) *Scalar {
	z.n = invModOdd(&x.n, &scalarN)
	return z
}

// wnaf writes the width-w non-adjacent form of z into digits (odd digits
// in (-2^(w-1), 2^(w-1)), at most one nonzero in any w consecutive
// positions) and returns the number of positions used. digits must hold
// at least 257 entries.
func (z *Scalar) wnaf(digits *[257]int8, w uint) int {
	k := z.n // consumed copy
	windowMask := uint64(1<<w) - 1
	half := int64(1) << (w - 1)
	length := 0
	pos := 0
	for k[0]|k[1]|k[2]|k[3] != 0 {
		var d int64
		if k[0]&1 == 1 {
			d = int64(k[0] & windowMask)
			if d >= half {
				d -= int64(1) << w
			}
			// k -= d
			if d >= 0 {
				var b uint64
				k[0], b = bits.Sub64(k[0], uint64(d), 0)
				k[1], b = bits.Sub64(k[1], 0, b)
				k[2], b = bits.Sub64(k[2], 0, b)
				k[3], _ = bits.Sub64(k[3], 0, b)
			} else {
				var c uint64
				k[0], c = bits.Add64(k[0], uint64(-d), 0)
				k[1], c = bits.Add64(k[1], 0, c)
				k[2], c = bits.Add64(k[2], 0, c)
				k[3], _ = bits.Add64(k[3], 0, c)
			}
		}
		digits[pos] = int8(d)
		if d != 0 {
			length = pos + 1
		}
		// k >>= 1
		k[0] = k[0]>>1 | k[1]<<63
		k[1] = k[1]>>1 | k[2]<<63
		k[2] = k[2]>>1 | k[3]<<63
		k[3] = k[3] >> 1
		pos++
	}
	return length
}
