package secp256k1

import (
	"encoding/binary"
	"math/bits"
)

// FieldElement is an integer modulo the secp256k1 field prime
// p = 2^256 - 2^32 - 977, held in four 64-bit little-endian limbs and kept
// fully reduced (< p) at all times, so equality is plain limb equality.
//
// p is pseudo-Mersenne: 2^256 ≡ fieldC (mod p) with fieldC = 2^32 + 977 a
// single 33-bit word, so every reduction is a short multiply-accumulate
// fold instead of a division. All arithmetic runs on the stack — no
// heap-allocated bignums — which is what makes whole scalar-multiplication
// ladders allocation-free.
type FieldElement struct {
	n [4]uint64
}

// fieldC is 2^32 + 977, so p = 2^256 - fieldC.
const fieldC = 0x1000003D1

// fieldP holds the little-endian limbs of p.
var fieldP = [4]uint64{0xFFFFFFFEFFFFFC2F, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF, 0xFFFFFFFFFFFFFFFF}

// SetBytes32 interprets b as a big-endian integer and reduces it modulo p.
// The return value reports whether b was already canonical (< p); callers
// that parse untrusted coordinates reject on false.
func (z *FieldElement) SetBytes32(b *[32]byte) (ok bool) {
	z.n[3] = binary.BigEndian.Uint64(b[0:8])
	z.n[2] = binary.BigEndian.Uint64(b[8:16])
	z.n[1] = binary.BigEndian.Uint64(b[16:24])
	z.n[0] = binary.BigEndian.Uint64(b[24:32])
	if z.geP() {
		z.subPInPlace()
		return false
	}
	return true
}

// Bytes32 returns the canonical 32-byte big-endian encoding.
func (z *FieldElement) Bytes32() [32]byte {
	var out [32]byte
	binary.BigEndian.PutUint64(out[0:8], z.n[3])
	binary.BigEndian.PutUint64(out[8:16], z.n[2])
	binary.BigEndian.PutUint64(out[16:24], z.n[1])
	binary.BigEndian.PutUint64(out[24:32], z.n[0])
	return out
}

// SetUint64 sets z to the small integer v.
func (z *FieldElement) SetUint64(v uint64) *FieldElement {
	z.n = [4]uint64{v, 0, 0, 0}
	return z
}

// Set copies x into z.
func (z *FieldElement) Set(x *FieldElement) *FieldElement {
	z.n = x.n
	return z
}

// IsZero reports whether z is the additive identity.
func (z *FieldElement) IsZero() bool {
	return z.n[0]|z.n[1]|z.n[2]|z.n[3] == 0
}

// IsOdd reports the parity of the canonical representative.
func (z *FieldElement) IsOdd() bool { return z.n[0]&1 == 1 }

// Equal reports whether z and x represent the same field element.
func (z *FieldElement) Equal(x *FieldElement) bool { return z.n == x.n }

// geP reports z >= p for a z < 2^256.
func (z *FieldElement) geP() bool {
	if z.n[3] != fieldP[3] || z.n[2] != fieldP[2] || z.n[1] != fieldP[1] {
		// p's top three limbs are all-ones, so any difference means z < p.
		return false
	}
	return z.n[0] >= fieldP[0]
}

// subPInPlace subtracts p once. Because z - p = z - 2^256 + fieldC and the
// caller guarantees z >= p, adding fieldC and letting the 2^256 borrow
// cancel is the same subtraction without a borrow chain against p.
func (z *FieldElement) subPInPlace() {
	var c uint64
	z.n[0], c = bits.Add64(z.n[0], fieldC, 0)
	z.n[1], c = bits.Add64(z.n[1], 0, c)
	z.n[2], c = bits.Add64(z.n[2], 0, c)
	z.n[3], _ = bits.Add64(z.n[3], 0, c)
}

// Add sets z = x + y mod p.
func (z *FieldElement) Add(x, y *FieldElement) *FieldElement {
	var c uint64
	z.n[0], c = bits.Add64(x.n[0], y.n[0], 0)
	z.n[1], c = bits.Add64(x.n[1], y.n[1], c)
	z.n[2], c = bits.Add64(x.n[2], y.n[2], c)
	z.n[3], c = bits.Add64(x.n[3], y.n[3], c)
	if c != 0 {
		// Dropped 2^256 ≡ fieldC. x+y-2^256 < p - fieldC, so this cannot
		// carry again.
		z.n[0], c = bits.Add64(z.n[0], fieldC, 0)
		z.n[1], c = bits.Add64(z.n[1], 0, c)
		z.n[2], c = bits.Add64(z.n[2], 0, c)
		z.n[3], _ = bits.Add64(z.n[3], 0, c)
	}
	if z.geP() {
		z.subPInPlace()
	}
	return z
}

// Sub sets z = x - y mod p.
func (z *FieldElement) Sub(x, y *FieldElement) *FieldElement {
	var b uint64
	z.n[0], b = bits.Sub64(x.n[0], y.n[0], 0)
	z.n[1], b = bits.Sub64(x.n[1], y.n[1], b)
	z.n[2], b = bits.Sub64(x.n[2], y.n[2], b)
	z.n[3], b = bits.Sub64(x.n[3], y.n[3], b)
	if b != 0 {
		// Add p back: the 2^256 part cancels the borrow, leaving -fieldC.
		// x - y + 2^256 > fieldC always (x >= 0, y < p), so no new borrow.
		z.n[0], b = bits.Sub64(z.n[0], fieldC, 0)
		z.n[1], b = bits.Sub64(z.n[1], 0, b)
		z.n[2], b = bits.Sub64(z.n[2], 0, b)
		z.n[3], _ = bits.Sub64(z.n[3], 0, b)
	}
	// Both branches land in [0, p): x>=y gives x-y < p, x<y gives x-y+p < p.
	return z
}

// Negate sets z = -x mod p.
func (z *FieldElement) Negate(x *FieldElement) *FieldElement {
	if x.IsZero() {
		z.n = [4]uint64{}
		return z
	}
	var b uint64
	z.n[0], b = bits.Sub64(fieldP[0], x.n[0], 0)
	z.n[1], b = bits.Sub64(fieldP[1], x.n[1], b)
	z.n[2], b = bits.Sub64(fieldP[2], x.n[2], b)
	z.n[3], _ = bits.Sub64(fieldP[3], x.n[3], b)
	return z
}

// MulInt sets z = x * v mod p for a small constant v (the 2, 3, 4, 8
// factors of the point formulas).
func (z *FieldElement) MulInt(x *FieldElement, v uint64) *FieldElement {
	var hi, c uint64
	h0, l0 := bits.Mul64(x.n[0], v)
	h1, l1 := bits.Mul64(x.n[1], v)
	h2, l2 := bits.Mul64(x.n[2], v)
	h3, l3 := bits.Mul64(x.n[3], v)
	z.n[0] = l0
	z.n[1], c = bits.Add64(l1, h0, 0)
	z.n[2], c = bits.Add64(l2, h1, c)
	z.n[3], c = bits.Add64(l3, h2, c)
	hi = h3 + c // < v, so the fold below cannot overflow 2^256 + small
	if hi != 0 {
		// Fold hi*2^256 ≡ hi*fieldC. hi < 2^4 for the constants used, so
		// hi*fieldC < 2^37: a two-limb addend.
		fh, fl := bits.Mul64(hi, fieldC)
		z.n[0], c = bits.Add64(z.n[0], fl, 0)
		z.n[1], c = bits.Add64(z.n[1], fh, c)
		z.n[2], c = bits.Add64(z.n[2], 0, c)
		z.n[3], c = bits.Add64(z.n[3], 0, c)
		if c != 0 {
			z.n[0], c = bits.Add64(z.n[0], fieldC, 0)
			z.n[1], c = bits.Add64(z.n[1], 0, c)
			z.n[2], c = bits.Add64(z.n[2], 0, c)
			z.n[3], _ = bits.Add64(z.n[3], 0, c)
		}
	}
	if z.geP() {
		z.subPInPlace()
	}
	return z
}

// Mul sets z = x * y mod p.
func (z *FieldElement) Mul(x, y *FieldElement) *FieldElement {
	var t [8]uint64
	mul256(&t, &x.n, &y.n)
	z.reduce512(&t)
	return z
}

// Square sets z = x^2 mod p. Uses the specialized squaring (10 limb
// products instead of mul256's 16); squarings dominate the Inverse/Sqrt
// addition chains (255 of the ~270 field ops each), so this feeds every
// point operation in affine coordinates.
func (z *FieldElement) Square(x *FieldElement) *FieldElement {
	var t [8]uint64
	sqr256(&t, &x.n)
	z.reduce512(&t)
	return z
}

// reduce512 folds a 512-bit product into z modulo p. Two folds of
// hi*2^256 ≡ hi*fieldC bring the value under 2^256 + ε, then at most one
// subtraction of p lands in canonical range.
func (z *FieldElement) reduce512(t *[8]uint64) {
	// First fold: r = t[0..3] + t[4..7]*fieldC. The addend is 289 bits, so
	// r needs a fifth limb r4 < 2^34.
	var c uint64
	h0, l0 := bits.Mul64(t[4], fieldC)
	h1, l1 := bits.Mul64(t[5], fieldC)
	h2, l2 := bits.Mul64(t[6], fieldC)
	h3, l3 := bits.Mul64(t[7], fieldC)
	var m [5]uint64
	m[0] = l0
	m[1], c = bits.Add64(l1, h0, 0)
	m[2], c = bits.Add64(l2, h1, c)
	m[3], c = bits.Add64(l3, h2, c)
	m[4] = h3 + c
	var r4 uint64
	z.n[0], c = bits.Add64(t[0], m[0], 0)
	z.n[1], c = bits.Add64(t[1], m[1], c)
	z.n[2], c = bits.Add64(t[2], m[2], c)
	z.n[3], c = bits.Add64(t[3], m[3], c)
	r4 = m[4] + c
	// Second fold: r4*fieldC < 2^67, a two-limb addend.
	if r4 != 0 {
		fh, fl := bits.Mul64(r4, fieldC)
		z.n[0], c = bits.Add64(z.n[0], fl, 0)
		z.n[1], c = bits.Add64(z.n[1], fh, c)
		z.n[2], c = bits.Add64(z.n[2], 0, c)
		z.n[3], c = bits.Add64(z.n[3], 0, c)
		if c != 0 {
			// A third, final carry: the residue is now tiny, adding fieldC
			// cannot carry again.
			z.n[0], c = bits.Add64(z.n[0], fieldC, 0)
			z.n[1], c = bits.Add64(z.n[1], 0, c)
			z.n[2], c = bits.Add64(z.n[2], 0, c)
			z.n[3], _ = bits.Add64(z.n[3], 0, c)
		}
	}
	if z.geP() {
		z.subPInPlace()
	}
}

// sqrMulti squares z in place n times.
func (z *FieldElement) sqrMulti(n int) {
	for i := 0; i < n; i++ {
		z.Square(z)
	}
}

// fePowPrefix computes the shared prefix of the p-2 and (p+1)/4
// exponentiation chains. Both exponents begin "223 ones, a zero, 22
// ones", so both need x^(2^2-1), x^(2^22-1) and x^(2^223-1), assembled
// from powers x^(2^k - 1) for k in {2,3,6,9,11,22,44,88,176,220,223}.
// Keeping the prefix in one place means a chain fix cannot silently
// diverge between Inverse and Sqrt.
func fePowPrefix(x *FieldElement) (x2, x22, x223 FieldElement) {
	var x3, x6, x9, x11, x44, x88, x176, x220 FieldElement
	x2.Square(x)
	x2.Mul(&x2, x)
	x3.Square(&x2)
	x3.Mul(&x3, x)
	x6.Set(&x3)
	x6.sqrMulti(3)
	x6.Mul(&x6, &x3)
	x9.Set(&x6)
	x9.sqrMulti(3)
	x9.Mul(&x9, &x3)
	x11.Set(&x9)
	x11.sqrMulti(2)
	x11.Mul(&x11, &x2)
	x22.Set(&x11)
	x22.sqrMulti(11)
	x22.Mul(&x22, &x11)
	x44.Set(&x22)
	x44.sqrMulti(22)
	x44.Mul(&x44, &x22)
	x88.Set(&x44)
	x88.sqrMulti(44)
	x88.Mul(&x88, &x44)
	x176.Set(&x88)
	x176.sqrMulti(88)
	x176.Mul(&x176, &x88)
	x220.Set(&x176)
	x220.sqrMulti(44)
	x220.Mul(&x220, &x44)
	x223.Set(&x220)
	x223.sqrMulti(3)
	x223.Mul(&x223, &x3)
	return x2, x22, x223
}

// Inverse sets z = x^-1 mod p via the binary extended GCD (inverse.go),
// several times faster than the 255-squaring Fermat chain it replaced.
// The chain prefix machinery (fePowPrefix) remains for Sqrt, which has no
// GCD analogue. x must be nonzero (the inverse of 0 is left as 0).
func (z *FieldElement) Inverse(x *FieldElement) *FieldElement {
	z.n = invModOdd(&x.n, &fieldP)
	return z
}

// Sqrt sets z to a square root of x if one exists and reports success.
// Because p ≡ 3 (mod 4) the candidate root is x^((p+1)/4): the shared
// chain prefix, then the tail bits 00001100.
func (z *FieldElement) Sqrt(x *FieldElement) bool {
	x2, x22, t := fePowPrefix(x)
	t.sqrMulti(23)
	t.Mul(&t, &x22)
	t.sqrMulti(6)
	t.Mul(&t, &x2)
	t.sqrMulti(2)
	var chk FieldElement
	chk.Square(&t)
	if !chk.Equal(x) {
		return false
	}
	z.Set(&t)
	return true
}

// mul256 computes the full 512-bit product of x and y (schoolbook with
// 64-bit limbs, the same shape as uint256.mulFull).
func mul256(p *[8]uint64, x, y *[4]uint64) {
	var pp [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			lo, c = bits.Add64(lo, pp[i+j], 0)
			hi, _ = bits.Add64(hi, 0, c)
			lo, c = bits.Add64(lo, carry, 0)
			hi, _ = bits.Add64(hi, 0, c)
			pp[i+j] = lo
			carry = hi
		}
		pp[i+4] = carry
	}
	*p = pp
}

// sqr256 computes the full 512-bit square of x. A square needs only the
// upper-triangle cross products (each counted twice) plus the diagonal
// squares: 6 + 4 = 10 limb multiplications against mul256's 16.
func sqr256(p *[8]uint64, x *[4]uint64) {
	// Upper triangle x[i]*x[j] for i < j, row-wise with a running carry
	// (same shape as mul256 restricted to j > i).
	var pp [8]uint64
	for i := 0; i < 3; i++ {
		var carry uint64
		for j := i + 1; j < 4; j++ {
			hi, lo := bits.Mul64(x[i], x[j])
			var c uint64
			lo, c = bits.Add64(lo, pp[i+j], 0)
			hi, _ = bits.Add64(hi, 0, c)
			lo, c = bits.Add64(lo, carry, 0)
			hi, _ = bits.Add64(hi, 0, c)
			pp[i+j] = lo
			carry = hi
		}
		pp[i+4] = carry
	}
	// Double the cross sum: shift left one bit. The sum is < 2^450, so the
	// top limb absorbs the shifted-out bits without overflow.
	for k := 7; k >= 1; k-- {
		pp[k] = pp[k]<<1 | pp[k-1]>>63
	}
	pp[0] <<= 1
	// Add the diagonal x[i]^2 at position 2i. The grand total is x^2 <
	// 2^512, so the final carry vanishes.
	h0, l0 := bits.Mul64(x[0], x[0])
	h1, l1 := bits.Mul64(x[1], x[1])
	h2, l2 := bits.Mul64(x[2], x[2])
	h3, l3 := bits.Mul64(x[3], x[3])
	var c uint64
	pp[0], c = bits.Add64(pp[0], l0, 0)
	pp[1], c = bits.Add64(pp[1], h0, c)
	pp[2], c = bits.Add64(pp[2], l1, c)
	pp[3], c = bits.Add64(pp[3], h1, c)
	pp[4], c = bits.Add64(pp[4], l2, c)
	pp[5], c = bits.Add64(pp[5], h2, c)
	pp[6], c = bits.Add64(pp[6], l3, c)
	pp[7], _ = bits.Add64(pp[7], h3, c)
	*p = pp
}
