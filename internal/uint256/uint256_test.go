package uint256

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

var twoTo256 = new(big.Int).Lsh(big.NewInt(1), 256)

// randInt is the generator used by testing/quick: it produces values with a
// mix of bit widths so edge cases (small values, high-bit-set values, limb
// boundaries) are all exercised.
func (Int) Generate(r *rand.Rand, _ int) reflect.Value {
	var z Int
	switch r.Intn(6) {
	case 0: // small
		z.SetUint64(r.Uint64() % 1024)
	case 1: // one limb
		z.SetUint64(r.Uint64())
	case 2: // all limbs random
		z[0], z[1], z[2], z[3] = r.Uint64(), r.Uint64(), r.Uint64(), r.Uint64()
	case 3: // near max
		z.Not(&z)
		z[0] -= r.Uint64() % 1024
	case 4: // power of two boundary
		z.SetOne()
		z.Lsh(&z, uint(r.Intn(256)))
		if r.Intn(2) == 0 {
			var one Int
			one.SetOne()
			z.Sub(&z, &one)
		}
	case 5: // two random limbs
		z[0], z[2] = r.Uint64(), r.Uint64()
	}
	return reflect.ValueOf(z)
}

func mod256(b *big.Int) *big.Int { return new(big.Int).Mod(b, twoTo256) }

func toBigSigned(z *Int) *big.Int {
	b := z.ToBig()
	if z.Sign() < 0 {
		b.Sub(b, twoTo256)
	}
	return b
}

func checkBinop(t *testing.T, name string, op func(z, x, y *Int) *Int, ref func(x, y *big.Int) *big.Int) {
	t.Helper()
	f := func(x, y Int) bool {
		var z Int
		op(&z, &x, &y)
		want := mod256(ref(x.ToBig(), y.ToBig()))
		return z.ToBig().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Errorf("%s: %v", name, err)
	}
}

func TestAddSubMulAgainstBig(t *testing.T) {
	checkBinop(t, "Add", (*Int).Add, func(x, y *big.Int) *big.Int { return new(big.Int).Add(x, y) })
	checkBinop(t, "Sub", (*Int).Sub, func(x, y *big.Int) *big.Int { return new(big.Int).Sub(x, y) })
	checkBinop(t, "Mul", (*Int).Mul, func(x, y *big.Int) *big.Int { return new(big.Int).Mul(x, y) })
	checkBinop(t, "And", (*Int).And, func(x, y *big.Int) *big.Int { return new(big.Int).And(x, y) })
	checkBinop(t, "Or", (*Int).Or, func(x, y *big.Int) *big.Int { return new(big.Int).Or(x, y) })
	checkBinop(t, "Xor", (*Int).Xor, func(x, y *big.Int) *big.Int { return new(big.Int).Xor(x, y) })
}

func TestDivModAgainstBig(t *testing.T) {
	checkBinop(t, "Div", (*Int).Div, func(x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Div(x, y)
	})
	checkBinop(t, "Mod", (*Int).Mod, func(x, y *big.Int) *big.Int {
		if y.Sign() == 0 {
			return new(big.Int)
		}
		return new(big.Int).Mod(x, y)
	})
}

func TestSignedDivModAgainstBig(t *testing.T) {
	f := func(x, y Int) bool {
		var q, m Int
		q.SDiv(&x, &y)
		m.SMod(&x, &y)
		xb, yb := toBigSigned(&x), toBigSigned(&y)
		wantQ, wantM := new(big.Int), new(big.Int)
		if yb.Sign() != 0 {
			wantQ.Quo(xb, yb) // truncated division, like the EVM
			wantM.Rem(xb, yb)
		}
		return q.ToBig().Cmp(mod256(wantQ)) == 0 && m.ToBig().Cmp(mod256(wantM)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestAddModMulModAgainstBig(t *testing.T) {
	f := func(x, y, m Int) bool {
		var am, mm Int
		am.AddMod(&x, &y, &m)
		mm.MulMod(&x, &y, &m)
		wantA, wantM := new(big.Int), new(big.Int)
		if !m.IsZero() {
			mb := m.ToBig()
			wantA.Mod(new(big.Int).Add(x.ToBig(), y.ToBig()), mb)
			wantM.Mod(new(big.Int).Mul(x.ToBig(), y.ToBig()), mb)
		}
		return am.ToBig().Cmp(wantA) == 0 && mm.ToBig().Cmp(wantM) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestExpAgainstBig(t *testing.T) {
	f := func(base Int, e uint16) bool {
		var z, ei Int
		ei.SetUint64(uint64(e))
		z.Exp(&base, &ei)
		want := new(big.Int).Exp(base.ToBig(), big.NewInt(int64(e)), twoTo256)
		return z.ToBig().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// Large exponents must also work (result mod 2^256).
	var z Int
	z.Exp(NewInt(3), MustFromHex("0xffffffffffffffffffffffffffffffff"))
	want := new(big.Int).Exp(big.NewInt(3), MustFromHex("0xffffffffffffffffffffffffffffffff").ToBig(), twoTo256)
	if z.ToBig().Cmp(want) != 0 {
		t.Errorf("Exp large exponent: got %s want %s", &z, want)
	}
}

func TestShiftsAgainstBig(t *testing.T) {
	f := func(x Int, nRaw uint16) bool {
		n := uint(nRaw) % 300 // include out-of-range shifts
		var l, r, sr Int
		l.Lsh(&x, n)
		r.Rsh(&x, n)
		sr.SRsh(&x, n)
		wantL := mod256(new(big.Int).Lsh(x.ToBig(), n))
		wantR := new(big.Int).Rsh(x.ToBig(), n)
		wantSR := mod256(new(big.Int).Rsh(toBigSigned(&x), n))
		return l.ToBig().Cmp(wantL) == 0 && r.ToBig().Cmp(wantR) == 0 && sr.ToBig().Cmp(wantSR) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestComparisons(t *testing.T) {
	f := func(x, y Int) bool {
		xb, yb := x.ToBig(), y.ToBig()
		xs, ys := toBigSigned(&x), toBigSigned(&y)
		if x.Lt(&y) != (xb.Cmp(yb) < 0) {
			return false
		}
		if x.Gt(&y) != (xb.Cmp(yb) > 0) {
			return false
		}
		if x.Slt(&y) != (xs.Cmp(ys) < 0) {
			return false
		}
		if x.Sgt(&y) != (xs.Cmp(ys) > 0) {
			return false
		}
		if x.Eq(&y) != (xb.Cmp(yb) == 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(x Int) bool {
		b32 := x.Bytes32()
		var y Int
		y.SetBytes(b32[:])
		if !x.Eq(&y) {
			return false
		}
		var z Int
		z.SetBytes(x.Bytes())
		return x.Eq(&z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// SetBytes against big.Int at every input length, including over-long
// input (which keeps its low 32 bytes), into a receiver holding all ones so
// a limb the decode forgot to write shows.
func TestSetBytesEveryLength(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= 40; n++ {
		for iter := 0; iter < 20; iter++ {
			buf := make([]byte, n)
			r.Read(buf)
			if iter == 0 {
				for i := range buf {
					buf[i] = 0xff
				}
			}
			low := buf
			if len(low) > 32 {
				low = low[len(low)-32:]
			}
			want := new(big.Int).SetBytes(low)
			var z Int
			z.Not(&z)
			if got := z.SetBytes(buf).ToBig(); got.Cmp(want) != 0 {
				t.Fatalf("len %d: SetBytes(%x) = %#x, want %#x", n, buf, got, want)
			}
		}
	}
}

func TestByteOp(t *testing.T) {
	x := MustFromHex("0x0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f20")
	for i := 0; i < 32; i++ {
		var z Int
		z.Byte(NewInt(uint64(i)), x)
		if got, want := z.Uint64(), uint64(i+1); got != want {
			t.Errorf("Byte(%d) = %d, want %d", i, got, want)
		}
	}
	var z Int
	z.Byte(NewInt(32), x)
	if !z.IsZero() {
		t.Errorf("Byte(32) = %s, want 0", &z)
	}
	z.Byte(MustFromHex("0x10000000000000000"), x)
	if !z.IsZero() {
		t.Errorf("Byte(2^64) = %s, want 0", &z)
	}
}

func TestSignExtendAgainstBig(t *testing.T) {
	f := func(x Int, bRaw uint8) bool {
		b := uint64(bRaw) % 35
		var z Int
		z.SignExtend(NewInt(b), &x)
		// Reference implementation on big.Int.
		want := x.ToBig()
		if b < 31 {
			bitPos := b*8 + 7
			if want.Bit(int(bitPos)) == 1 {
				mask := new(big.Int).Lsh(big.NewInt(1), uint(bitPos+1))
				mask.Sub(mask, big.NewInt(1)) // low bits mask
				want.And(want, mask)
				high := new(big.Int).Sub(twoTo256, new(big.Int).Lsh(big.NewInt(1), uint(bitPos+1)))
				want.Add(want, high)
			} else {
				mask := new(big.Int).Lsh(big.NewInt(1), uint(bitPos+1))
				mask.Sub(mask, big.NewInt(1))
				want.And(want, mask)
			}
		}
		return z.ToBig().Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDivModIdentity(t *testing.T) {
	// Property: x == (x/y)*y + x%y whenever y != 0.
	f := func(x, y Int) bool {
		if y.IsZero() {
			return true
		}
		var q, m, back Int
		q.Div(&x, &y)
		m.Mod(&x, &y)
		back.Mul(&q, &y)
		back.Add(&back, &m)
		return back.Eq(&x) && m.Lt(&y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEdgeValues(t *testing.T) {
	max := new(Int).Not(new(Int))
	minInt256 := MustFromHex("0x8000000000000000000000000000000000000000000000000000000000000000")
	negOne := max

	var z Int
	// MinInt256 / -1 wraps to MinInt256 (EVM rule).
	z.SDiv(minInt256, negOne)
	if !z.Eq(minInt256) {
		t.Errorf("SDiv(MinInt256, -1) = %#x, want MinInt256", &z)
	}
	// max + 1 == 0
	z.Add(max, NewInt(1))
	if !z.IsZero() {
		t.Errorf("max+1 = %#x, want 0", &z)
	}
	// 0 - 1 == max
	z.Sub(new(Int), NewInt(1))
	if !z.Eq(max) {
		t.Errorf("0-1 = %#x, want max", &z)
	}
	// x / 0 == 0, x % 0 == 0
	z.Div(NewInt(5), new(Int))
	if !z.IsZero() {
		t.Error("5/0 != 0")
	}
	z.Mod(NewInt(5), new(Int))
	if !z.IsZero() {
		t.Error("5%0 != 0")
	}
	// Sign
	if minInt256.Sign() != -1 || NewInt(1).Sign() != 1 || new(Int).Sign() != 0 {
		t.Error("Sign misbehaves")
	}
}

func TestFromHexErrors(t *testing.T) {
	for _, bad := range []string{"", "0x", "0x" + string(make([]byte, 100)), "zz", "0xzz"} {
		if _, err := FromHex(bad); err == nil {
			t.Errorf("FromHex(%q): expected error", bad)
		}
	}
	z, err := FromHex("0xff")
	if err != nil || z.Uint64() != 255 {
		t.Errorf("FromHex(0xff) = %v, %v", z, err)
	}
}

func TestSetFromBigNegative(t *testing.T) {
	// -1 becomes 2^256-1 (two's complement).
	z, _ := FromBig(big.NewInt(-1))
	if !z.Eq(new(Int).Not(new(Int))) {
		t.Errorf("FromBig(-1) = %#x", z)
	}
}

func TestBitLenByteLen(t *testing.T) {
	cases := []struct {
		v      *Int
		bits   int
		bytesz int
	}{
		{NewInt(0), 0, 0},
		{NewInt(1), 1, 1},
		{NewInt(255), 8, 1},
		{NewInt(256), 9, 2},
		{MustFromHex("0x10000000000000000"), 65, 9},
		{new(Int).Not(new(Int)), 256, 32},
	}
	for _, c := range cases {
		if c.v.BitLen() != c.bits {
			t.Errorf("BitLen(%#x) = %d, want %d", c.v, c.v.BitLen(), c.bits)
		}
		if c.v.ByteLen() != c.bytesz {
			t.Errorf("ByteLen(%#x) = %d, want %d", c.v, c.v.ByteLen(), c.bytesz)
		}
	}
}

func TestOverflowFlags(t *testing.T) {
	max := new(Int).Not(new(Int))
	var z Int
	if _, ov := z.AddOverflow(max, NewInt(1)); !ov {
		t.Error("AddOverflow(max, 1): expected overflow")
	}
	if _, ov := z.AddOverflow(NewInt(1), NewInt(2)); ov {
		t.Error("AddOverflow(1, 2): unexpected overflow")
	}
}

func BenchmarkAdd(b *testing.B) {
	x := MustFromHex("0xdeadbeefcafebabe0123456789abcdef00ff00ff00ff00ff1122334455667788")
	y := MustFromHex("0x8877665544332211ff00ff00ff00ff00fedcba98765432100badc0dedeadbeef")
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Add(x, y)
	}
}

func BenchmarkMul(b *testing.B) {
	x := MustFromHex("0xdeadbeefcafebabe0123456789abcdef00ff00ff00ff00ff1122334455667788")
	y := MustFromHex("0x8877665544332211ff00ff00ff00ff00fedcba98765432100badc0dedeadbeef")
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Mul(x, y)
	}
}

func BenchmarkDiv(b *testing.B) {
	x := MustFromHex("0xdeadbeefcafebabe0123456789abcdef00ff00ff00ff00ff1122334455667788")
	y := MustFromHex("0x8877665544332211ff00ff00ff00")
	var z Int
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z.Div(x, y)
	}
}
