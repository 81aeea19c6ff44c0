// Package uint256 implements fixed-width 256-bit unsigned integer
// arithmetic as used by the EVM word model. Values are represented as four
// little-endian 64-bit limbs. All arithmetic wraps modulo 2^256, matching
// EVM semantics; division by zero yields zero, also matching the EVM.
package uint256

import (
	"encoding/binary"
	"fmt"
	"math/big"
	"math/bits"
)

// Int is a 256-bit unsigned integer. The zero value is ready to use and
// represents the number 0. Limb 0 is the least significant word.
type Int [4]uint64

// NewInt returns a new Int set to the value of x.
func NewInt(x uint64) *Int {
	return &Int{x, 0, 0, 0}
}

// FromBig returns a new Int set from b truncated to 256 bits, and a flag
// reporting whether truncation occurred. Negative values are interpreted as
// their two's complement (EVM convention).
func FromBig(b *big.Int) (*Int, bool) {
	z := new(Int)
	overflow := z.SetFromBig(b)
	return z, overflow
}

// FromHex parses a 0x-prefixed or bare hexadecimal string.
func FromHex(s string) (*Int, error) {
	if len(s) >= 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X') {
		s = s[2:]
	}
	if len(s) == 0 || len(s) > 64 {
		return nil, fmt.Errorf("uint256: invalid hex length %d", len(s))
	}
	b, ok := new(big.Int).SetString(s, 16)
	if !ok {
		return nil, fmt.Errorf("uint256: invalid hex %q", s)
	}
	z, _ := FromBig(b)
	return z, nil
}

// MustFromHex is FromHex that panics on error.
func MustFromHex(s string) *Int {
	z, err := FromHex(s)
	if err != nil {
		panic(err)
	}
	return z
}

// SetFromBig sets z from b truncated to 256 bits and reports overflow.
func (z *Int) SetFromBig(b *big.Int) bool {
	z.Clear()
	words := b.Bits()
	overflow := false
	switch bits.UintSize {
	case 64:
		if len(words) > 4 {
			overflow = true
			words = words[:4]
		}
		for i, w := range words {
			z[i] = uint64(w)
		}
	case 32:
		if len(words) > 8 {
			overflow = true
			words = words[:8]
		}
		for i, w := range words {
			z[i/2] |= uint64(w) << (32 * uint(i%2))
		}
	}
	if b.Sign() < 0 {
		z.Neg(z)
	}
	return overflow
}

// ToBig returns z as a new big.Int.
func (z *Int) ToBig() *big.Int {
	b := new(big.Int)
	buf := z.Bytes32()
	return b.SetBytes(buf[:])
}

// Clear sets z to 0 and returns z.
func (z *Int) Clear() *Int {
	z[0], z[1], z[2], z[3] = 0, 0, 0, 0
	return z
}

// Set sets z to x and returns z.
func (z *Int) Set(x *Int) *Int {
	*z = *x
	return z
}

// SetUint64 sets z to x and returns z.
func (z *Int) SetUint64(x uint64) *Int {
	z[0], z[1], z[2], z[3] = x, 0, 0, 0
	return z
}

// SetOne sets z to 1 and returns z.
func (z *Int) SetOne() *Int {
	return z.SetUint64(1)
}

// Clone returns a copy of z.
func (z *Int) Clone() *Int {
	c := *z
	return &c
}

// IsZero reports whether z is zero.
func (z *Int) IsZero() bool {
	return (z[0] | z[1] | z[2] | z[3]) == 0
}

// IsUint64 reports whether z fits in a uint64.
func (z *Int) IsUint64() bool {
	return (z[1] | z[2] | z[3]) == 0
}

// Uint64 returns the low 64 bits of z.
func (z *Int) Uint64() uint64 {
	return z[0]
}

// Eq reports whether z == x.
func (z *Int) Eq(x *Int) bool {
	return *z == *x
}

// Cmp compares z and x and returns -1, 0 or +1.
func (z *Int) Cmp(x *Int) int {
	for i := 3; i >= 0; i-- {
		if z[i] < x[i] {
			return -1
		}
		if z[i] > x[i] {
			return 1
		}
	}
	return 0
}

// Lt reports whether z < x (unsigned).
func (z *Int) Lt(x *Int) bool { return z.Cmp(x) < 0 }

// Gt reports whether z > x (unsigned).
func (z *Int) Gt(x *Int) bool { return z.Cmp(x) > 0 }

// Sign returns 0 if z == 0, -1 if the sign bit (bit 255) is set, else +1.
// This is the two's-complement interpretation used by signed EVM opcodes.
func (z *Int) Sign() int {
	if z.IsZero() {
		return 0
	}
	if z[3] >= 0x8000000000000000 {
		return -1
	}
	return 1
}

// Slt reports whether z < x under two's-complement interpretation.
func (z *Int) Slt(x *Int) bool {
	zs, xs := z.Sign(), x.Sign()
	switch {
	case zs >= 0 && xs < 0:
		return false
	case zs < 0 && xs >= 0:
		return true
	default:
		return z.Cmp(x) < 0
	}
}

// Sgt reports whether z > x under two's-complement interpretation.
func (z *Int) Sgt(x *Int) bool {
	zs, xs := z.Sign(), x.Sign()
	switch {
	case zs >= 0 && xs < 0:
		return true
	case zs < 0 && xs >= 0:
		return false
	default:
		return z.Cmp(x) > 0
	}
}

// Add sets z = x + y (mod 2^256) and returns z.
func (z *Int) Add(x, y *Int) *Int {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
	return z
}

// AddOverflow sets z = x + y and reports whether the addition overflowed.
func (z *Int) AddOverflow(x, y *Int) (*Int, bool) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], c = bits.Add64(x[3], y[3], c)
	return z, c != 0
}

// Sub sets z = x - y (mod 2^256) and returns z.
func (z *Int) Sub(x, y *Int) *Int {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], _ = bits.Sub64(x[3], y[3], b)
	return z
}

// Neg sets z = -x (mod 2^256) and returns z.
func (z *Int) Neg(x *Int) *Int {
	return z.Sub(new(Int), x)
}

// Mul sets z = x * y (mod 2^256) and returns z.
func (z *Int) Mul(x, y *Int) *Int {
	var p [8]uint64
	mulFull(&p, x, y)
	z[0], z[1], z[2], z[3] = p[0], p[1], p[2], p[3]
	return z
}

// mulFull computes the full 512-bit product of x and y into p.
func mulFull(p *[8]uint64, x, y *Int) {
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

// limbs returns the minimal limb slice of z (no trailing zero limbs).
func (z *Int) limbs() []uint64 {
	n := 4
	for n > 0 && z[n-1] == 0 {
		n--
	}
	return z[:n]
}

// udivrem divides u (little-endian limbs, any length up to 8) by d (nonzero)
// and returns quotient limbs (same length as u) and the remainder as Int.
// Implements Knuth's Algorithm D with 64-bit limbs.
func udivrem(u []uint64, d *Int) (quot [8]uint64, rem Int) {
	dl := d.limbs()
	if len(dl) == 0 {
		return quot, rem // division by zero: all zero (callers guard anyway)
	}
	// Single-limb divisor: simple long division.
	if len(dl) == 1 {
		var r uint64
		for i := len(u) - 1; i >= 0; i-- {
			quot[i], r = bits.Div64(r, u[i], dl[0])
		}
		rem.SetUint64(r)
		return quot, rem
	}
	// Normalize so the top bit of the divisor's high limb is set.
	shift := uint(bits.LeadingZeros64(dl[len(dl)-1]))
	dn := make([]uint64, len(dl))
	if shift == 0 {
		copy(dn, dl)
	} else {
		for i := len(dl) - 1; i > 0; i-- {
			dn[i] = dl[i]<<shift | dl[i-1]>>(64-shift)
		}
		dn[0] = dl[0] << shift
	}
	// Normalized dividend with one extra limb.
	un := make([]uint64, len(u)+1)
	if shift == 0 {
		copy(un, u)
	} else {
		for i := len(u) - 1; i > 0; i-- {
			un[i] = u[i]<<shift | u[i-1]>>(64-shift)
		}
		un[0] = u[0] << shift
		un[len(u)] = u[len(u)-1] >> (64 - shift)
	}
	n := len(dn)
	m := len(un) - 1 - n
	if m < 0 {
		// Dividend smaller than divisor; remainder is u itself.
		for i, w := range u {
			if i < 4 {
				rem[i] = w
			}
		}
		return quot, rem
	}
	dh, dl2 := dn[n-1], dn[n-2]
	for j := m; j >= 0; j-- {
		// Estimate qhat = floor((un[j+n]*b + un[j+n-1]) / dh), capped at b-1.
		var qhat, rhat uint64
		overflowRhat := false
		if un[j+n] >= dh {
			// By the loop invariant un[j+n] <= dh, so this is equality.
			qhat = ^uint64(0) // b - 1
			var c uint64
			rhat, c = bits.Add64(un[j+n-1], dh, 0)
			overflowRhat = c != 0
		} else {
			qhat, rhat = bits.Div64(un[j+n], un[j+n-1], dh)
		}
		// Refine qhat using the second divisor limb.
		for !overflowRhat {
			hi, lo := bits.Mul64(qhat, dl2)
			if hi > rhat || (hi == rhat && lo > un[j+n-2]) {
				qhat--
				var c uint64
				rhat, c = bits.Add64(rhat, dh, 0)
				if c != 0 {
					break
				}
				continue
			}
			break
		}
		// Multiply-subtract: un[j..j+n] -= qhat * dn.
		var borrow uint64
		for i := 0; i < n; i++ {
			s, c1 := bits.Sub64(un[j+i], borrow, 0)
			ph, pl := bits.Mul64(qhat, dn[i])
			t, c2 := bits.Sub64(s, pl, 0)
			un[j+i] = t
			borrow = ph + c1 + c2
		}
		t, borrowOut := bits.Sub64(un[j+n], borrow, 0)
		un[j+n] = t
		if borrowOut != 0 {
			// qhat was one too large: add the divisor back.
			qhat--
			var c uint64
			for i := 0; i < n; i++ {
				un[j+i], c = bits.Add64(un[j+i], dn[i], c)
			}
			un[j+n] += c
		}
		quot[j] = qhat
	}
	// Denormalize remainder.
	for i := 0; i < n && i < 4; i++ {
		if shift == 0 {
			rem[i] = un[i]
		} else {
			rem[i] = un[i] >> shift
			if i+1 < n {
				rem[i] |= un[i+1] << (64 - shift)
			}
		}
	}
	return quot, rem
}

// Div sets z = x / y (unsigned). If y == 0, z is set to 0 (EVM rule).
func (z *Int) Div(x, y *Int) *Int {
	if y.IsZero() || y.Gt(x) {
		return z.Clear()
	}
	if x.Eq(y) {
		return z.SetOne()
	}
	if x.IsUint64() {
		return z.SetUint64(x.Uint64() / y.Uint64())
	}
	q, _ := udivrem(x.limbs(), y)
	z[0], z[1], z[2], z[3] = q[0], q[1], q[2], q[3]
	return z
}

// Mod sets z = x % y (unsigned). If y == 0, z is set to 0 (EVM rule).
func (z *Int) Mod(x, y *Int) *Int {
	if y.IsZero() || x.Eq(y) {
		return z.Clear()
	}
	if y.Gt(x) {
		return z.Set(x)
	}
	if x.IsUint64() {
		return z.SetUint64(x.Uint64() % y.Uint64())
	}
	_, r := udivrem(x.limbs(), y)
	return z.Set(&r)
}

// SDiv sets z = x / y under two's-complement interpretation, EVM SDIV rules
// (truncated division; MinInt256 / -1 wraps to MinInt256).
func (z *Int) SDiv(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	xNeg, yNeg := x.Sign() < 0, y.Sign() < 0
	var xa, ya Int
	if xNeg {
		xa.Neg(x)
	} else {
		xa.Set(x)
	}
	if yNeg {
		ya.Neg(y)
	} else {
		ya.Set(y)
	}
	z.Div(&xa, &ya)
	if xNeg != yNeg {
		z.Neg(z)
	}
	return z
}

// SMod sets z = x % y under two's-complement interpretation (sign follows
// the dividend, per EVM SMOD).
func (z *Int) SMod(x, y *Int) *Int {
	if y.IsZero() {
		return z.Clear()
	}
	xNeg := x.Sign() < 0
	var xa, ya Int
	if xNeg {
		xa.Neg(x)
	} else {
		xa.Set(x)
	}
	if y.Sign() < 0 {
		ya.Neg(y)
	} else {
		ya.Set(y)
	}
	z.Mod(&xa, &ya)
	if xNeg {
		z.Neg(z)
	}
	return z
}

// AddMod sets z = (x + y) % m. If m == 0, z is set to 0.
func (z *Int) AddMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	var sum Int
	_, carry := sum.AddOverflow(x, y)
	if !carry {
		return z.Mod(&sum, m)
	}
	// 5-limb value: carry*2^256 + sum.
	u := []uint64{sum[0], sum[1], sum[2], sum[3], 1}
	_, r := udivrem(u, m)
	return z.Set(&r)
}

// MulMod sets z = (x * y) % m over the full 512-bit product. If m == 0, z
// is set to 0.
func (z *Int) MulMod(x, y, m *Int) *Int {
	if m.IsZero() {
		return z.Clear()
	}
	var p [8]uint64
	mulFull(&p, x, y)
	n := 8
	for n > 0 && p[n-1] == 0 {
		n--
	}
	if n == 0 {
		return z.Clear()
	}
	_, r := udivrem(p[:n], m)
	return z.Set(&r)
}

// Exp sets z = base^exponent (mod 2^256) by square-and-multiply.
func (z *Int) Exp(base, exponent *Int) *Int {
	res := NewInt(1)
	b := base.Clone()
	for limb := 0; limb < 4; limb++ {
		e := exponent[limb]
		// Skip work when the rest of the exponent is zero.
		rest := uint64(0)
		for k := limb; k < 4; k++ {
			rest |= exponent[k]
		}
		if rest == 0 {
			break
		}
		for bit := 0; bit < 64; bit++ {
			if e&1 != 0 {
				res.Mul(res, b)
			}
			e >>= 1
			// Avoid the final unnecessary squaring.
			if e == 0 {
				allZero := true
				for k := limb + 1; k < 4; k++ {
					if exponent[k] != 0 {
						allZero = false
						break
					}
				}
				if allZero {
					break
				}
			}
			b.Mul(b, b)
		}
	}
	return z.Set(res)
}

// And sets z = x & y.
func (z *Int) And(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]&y[0], x[1]&y[1], x[2]&y[2], x[3]&y[3]
	return z
}

// Or sets z = x | y.
func (z *Int) Or(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]|y[0], x[1]|y[1], x[2]|y[2], x[3]|y[3]
	return z
}

// Xor sets z = x ^ y.
func (z *Int) Xor(x, y *Int) *Int {
	z[0], z[1], z[2], z[3] = x[0]^y[0], x[1]^y[1], x[2]^y[2], x[3]^y[3]
	return z
}

// Not sets z = ^x.
func (z *Int) Not(x *Int) *Int {
	z[0], z[1], z[2], z[3] = ^x[0], ^x[1], ^x[2], ^x[3]
	return z
}

// Byte sets z to the n'th byte of x where byte 0 is the most significant
// (EVM BYTE semantics). If n >= 32, z is set to 0.
func (z *Int) Byte(n *Int, x *Int) *Int {
	if !n.IsUint64() || n.Uint64() >= 32 {
		return z.Clear()
	}
	idx := n.Uint64()
	limb := x[3-idx/8]
	shift := (7 - idx%8) * 8
	return z.SetUint64((limb >> shift) & 0xff)
}

// Lsh sets z = x << n.
func (z *Int) Lsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	words := n / 64
	shift := n % 64
	var t Int
	for i := 3; i >= int(words); i-- {
		t[i] = x[i-int(words)] << shift
		if shift > 0 && i-int(words)-1 >= 0 {
			t[i] |= x[i-int(words)-1] >> (64 - shift)
		}
	}
	return z.Set(&t)
}

// Rsh sets z = x >> n (logical).
func (z *Int) Rsh(x *Int, n uint) *Int {
	if n >= 256 {
		return z.Clear()
	}
	words := n / 64
	shift := n % 64
	var t Int
	for i := 0; i < 4-int(words); i++ {
		t[i] = x[i+int(words)] >> shift
		if shift > 0 && i+int(words)+1 < 4 {
			t[i] |= x[i+int(words)+1] << (64 - shift)
		}
	}
	return z.Set(&t)
}

// SRsh sets z = x >> n with sign extension (EVM SAR).
func (z *Int) SRsh(x *Int, n uint) *Int {
	if x.Sign() >= 0 {
		return z.Rsh(x, n)
	}
	if n >= 256 {
		return z.Not(new(Int)) // all ones
	}
	z.Rsh(x, n)
	// Fill vacated high bits with ones.
	var mask Int
	mask.Not(&mask)        // all ones
	mask.Lsh(&mask, 256-n) // ones in the top n bits
	return z.Or(z, &mask)
}

// SignExtend sets z to x sign-extended from byte position b (EVM
// SIGNEXTEND). If b >= 31 the value is unchanged.
func (z *Int) SignExtend(b, x *Int) *Int {
	if !b.IsUint64() || b.Uint64() >= 31 {
		return z.Set(x)
	}
	bitPos := uint(b.Uint64()*8 + 7)
	signSet := x[bitPos/64]&(1<<(bitPos%64)) != 0
	z.Set(x)
	if signSet {
		var mask Int
		mask.Not(&mask)
		mask.Lsh(&mask, bitPos+1)
		return z.Or(z, &mask)
	}
	var mask Int
	mask.Not(&mask)
	mask.Rsh(&mask, 256-(bitPos+1))
	return z.And(z, &mask)
}

// BitLen returns the number of bits required to represent z.
func (z *Int) BitLen() int {
	for i := 3; i >= 0; i-- {
		if z[i] != 0 {
			return i*64 + bits.Len64(z[i])
		}
	}
	return 0
}

// ByteLen returns the number of bytes required to represent z.
func (z *Int) ByteLen() int {
	return (z.BitLen() + 7) / 8
}

// SetBytes interprets buf as a big-endian unsigned integer (at most 32
// bytes; longer input uses the trailing 32 bytes, matching EVM semantics
// for oversized operands) and sets z to that value.
//
// A full 32-byte word (PUSH32, a keccak digest, a storage slot) and a word
// of at most 8 bytes (most PUSHes) decode without the padded copy.
func (z *Int) SetBytes(buf []byte) *Int {
	if len(buf) > 32 {
		buf = buf[len(buf)-32:]
	}
	if len(buf) == 32 {
		return z.SetBytes32((*[32]byte)(buf))
	}
	if len(buf) <= 8 {
		var x uint64
		for _, b := range buf {
			x = x<<8 | uint64(b)
		}
		z[3], z[2], z[1], z[0] = 0, 0, 0, x
		return z
	}
	var tmp [32]byte
	copy(tmp[32-len(buf):], buf)
	z[3] = binary.BigEndian.Uint64(tmp[0:8])
	z[2] = binary.BigEndian.Uint64(tmp[8:16])
	z[1] = binary.BigEndian.Uint64(tmp[16:24])
	z[0] = binary.BigEndian.Uint64(tmp[24:32])
	return z
}

// SetBytes32 sets z to the 32-byte big-endian word b and returns z.
func (z *Int) SetBytes32(b *[32]byte) *Int {
	z[3] = binary.BigEndian.Uint64(b[0:8])
	z[2] = binary.BigEndian.Uint64(b[8:16])
	z[1] = binary.BigEndian.Uint64(b[16:24])
	z[0] = binary.BigEndian.Uint64(b[24:32])
	return z
}

// PutBytes32 writes z into b as a 32-byte big-endian word.
func (z *Int) PutBytes32(b *[32]byte) {
	binary.BigEndian.PutUint64(b[0:8], z[3])
	binary.BigEndian.PutUint64(b[8:16], z[2])
	binary.BigEndian.PutUint64(b[16:24], z[1])
	binary.BigEndian.PutUint64(b[24:32], z[0])
}

// Bytes32 returns z as a 32-byte big-endian array.
func (z *Int) Bytes32() [32]byte {
	var b [32]byte
	z.PutBytes32(&b)
	return b
}

// Bytes returns the minimal big-endian representation of z (empty for 0).
func (z *Int) Bytes() []byte {
	full := z.Bytes32()
	i := 0
	for i < 32 && full[i] == 0 {
		i++
	}
	out := make([]byte, 32-i)
	copy(out, full[i:])
	return out
}

// String implements fmt.Stringer with decimal formatting.
func (z *Int) String() string {
	return z.ToBig().String()
}

// Format implements fmt.Formatter, delegating to big.Int so %d, %x, %v and
// friends all behave as expected.
func (z *Int) Format(s fmt.State, ch rune) {
	z.ToBig().Format(s, ch)
}
