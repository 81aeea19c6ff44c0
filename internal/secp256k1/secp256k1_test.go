package secp256k1

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"onoffchain/internal/keccak"
)

func scalarFromBig(t testing.TB, v *big.Int) Scalar {
	t.Helper()
	var buf [32]byte
	v.FillBytes(buf[:])
	var s Scalar
	if overflow := s.SetBytes32(&buf); overflow {
		t.Fatalf("scalar %v out of range", v)
	}
	return s
}

func (z *Scalar) big() *big.Int {
	b := z.Bytes32()
	return new(big.Int).SetBytes(b[:])
}

func (z *FieldElement) big() *big.Int {
	b := z.Bytes32()
	return new(big.Int).SetBytes(b[:])
}

func TestCurveParameters(t *testing.T) {
	if !IsOnCurve(genG.x, genG.y) {
		t.Fatal("generator is not on the curve")
	}
	// (n-1)*G == -G
	nm1 := ScalarFromUint64(1)
	nm1.Negate(&nm1)
	pub, ok := ScalarBaseMult(nm1)
	if !ok {
		t.Fatal("(N-1)*G is infinity")
	}
	if !pub.X.Equal(&genG.x) {
		t.Fatal("(N-1)*G x-coordinate mismatch")
	}
	var negY FieldElement
	negY.Negate(&genG.y)
	if !pub.Y.Equal(&negY) {
		t.Fatal("(N-1)*G y-coordinate mismatch")
	}
}

func TestScalarMultDistributive(t *testing.T) {
	// (a+b)G == aG + bG for random scalars.
	f := func(aRaw, bRaw uint64) bool {
		a := new(big.Int).SetUint64(aRaw)
		b := new(big.Int).SetUint64(bRaw)
		a.Mul(a, big.NewInt(1<<62)) // widen beyond one limb
		b.Add(b, big.NewInt(12345))
		sum := new(big.Int).Add(a, b)
		sum.Mod(sum, oracleN)
		var sa, sb, ss Scalar
		sa = scalarFromBig(t, new(big.Int).Mod(a, oracleN))
		sb = scalarFromBig(t, new(big.Int).Mod(b, oracleN))
		ss = scalarFromBig(t, sum)
		var pa, pb, ps jacobianPoint
		scalarBaseMult(&pa, &sa)
		scalarBaseMult(&pb, &sb)
		scalarBaseMult(&ps, &ss)
		pa.add(&pb)
		var lhs, rhs affinePoint
		okL := ps.toAffine(&lhs)
		okR := pa.toAffine(&rhs)
		if !okL || !okR {
			return okL == okR
		}
		return lhs.x.Equal(&rhs.x) && lhs.y.Equal(&rhs.y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Well-known Ethereum vanity addresses for tiny private keys. These pin
// down the full pipeline: scalar mult, uncompressed serialization, keccak.
func TestKnownEthereumAddresses(t *testing.T) {
	cases := []struct {
		key  uint64
		addr string
	}{
		{1, "7e5f4552091a69125d5dfcb7b8c2659029395bdf"},
		{2, "2b5ad5c4795c026514f8317c7a215e218dccd6cf"},
		{3, "6813eb9362372eef6200f3b1dbc3f819671cba69"},
	}
	for _, c := range cases {
		k, err := PrivateKeyFromScalar(ScalarFromUint64(c.key))
		if err != nil {
			t.Fatal(err)
		}
		addr := k.EthereumAddress()
		if hex.EncodeToString(addr[:]) != c.addr {
			t.Errorf("address(%d) = %x, want %s", c.key, addr, c.addr)
		}
	}
}

func TestSignVerifyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 20; i++ {
		key, err := GenerateKey(rng)
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("message number " + string(rune('a'+i)))
		hash := keccak.Sum256(msg)
		sig, err := Sign(key, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		if !Verify(&key.PublicKey, hash[:], sig.R, sig.S) {
			t.Fatalf("signature %d did not verify", i)
		}
		// Tampered hash must fail.
		bad := keccak.Sum256(append(msg, 'x'))
		if Verify(&key.PublicKey, bad[:], sig.R, sig.S) {
			t.Fatalf("signature %d verified against wrong hash", i)
		}
	}
}

func TestSignIsDeterministic(t *testing.T) {
	key, _ := PrivateKeyFromScalar(ScalarFromUint64(123456789))
	hash := keccak.Sum256([]byte("deterministic"))
	s1, err := Sign(key, hash[:])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Sign(key, hash[:])
	if err != nil {
		t.Fatal(err)
	}
	if !s1.R.Equal(&s2.R) || !s1.S.Equal(&s2.S) || s1.V != s2.V {
		t.Error("RFC6979 signatures differ between calls")
	}
}

func TestLowSNormalization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 30; i++ {
		key, _ := GenerateKey(rng)
		hash := keccak.Sum256([]byte{byte(i)})
		sig, err := Sign(key, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		if sig.S.IsHigh() {
			t.Fatalf("signature %d has high S", i)
		}
	}
}

func TestRecoverMatchesSigner(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 20; i++ {
		key, _ := GenerateKey(rng)
		hash := keccak.Sum256([]byte{byte(i), 0xaa})
		sig, err := Sign(key, hash[:])
		if err != nil {
			t.Fatal(err)
		}
		pub, err := RecoverPubkey(hash[:], sig.R, sig.S, sig.V)
		if err != nil {
			t.Fatal(err)
		}
		if !pub.Equal(&key.PublicKey) {
			t.Fatalf("recovered key %d differs from signer", i)
		}
		addr, err := RecoverAddress(hash[:], sig.R, sig.S, sig.V)
		if err != nil {
			t.Fatal(err)
		}
		if addr != key.EthereumAddress() {
			t.Fatalf("recovered address %d differs", i)
		}
	}
}

func TestRecoverWrongVGivesDifferentKey(t *testing.T) {
	key, _ := PrivateKeyFromScalar(ScalarFromUint64(424242))
	hash := keccak.Sum256([]byte("recid matters"))
	sig, _ := Sign(key, hash[:])
	pub, err := RecoverPubkey(hash[:], sig.R, sig.S, sig.V^1)
	if err == nil && pub.Equal(&key.PublicKey) {
		t.Error("flipped recovery id still recovered the same key")
	}
}

func TestRecoverRejectsGarbage(t *testing.T) {
	hash := keccak.Sum256([]byte("x"))
	one := ScalarFromUint64(1)
	var zero Scalar
	if _, err := RecoverPubkey(hash[:], zero, one, 0); err == nil {
		t.Error("r=0 accepted")
	}
	if _, err := RecoverPubkey(hash[:], one, zero, 0); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := RecoverPubkey(hash[:], one, one, 9); err == nil {
		t.Error("v=9 accepted")
	}
	if _, err := RecoverPubkey(hash[:31], one, one, 0); err == nil {
		t.Error("short hash accepted")
	}
	// A raw 32-byte word >= n must be rejected at the boundary.
	nb := scalarN
	_ = nb
	var nBytes [32]byte
	binary.BigEndian.PutUint64(nBytes[0:8], scalarN[3])
	binary.BigEndian.PutUint64(nBytes[8:16], scalarN[2])
	binary.BigEndian.PutUint64(nBytes[16:24], scalarN[1])
	binary.BigEndian.PutUint64(nBytes[24:32], scalarN[0])
	if _, ok := ScalarFromBytes(nBytes[:]); ok {
		t.Error("r=N accepted by ScalarFromBytes")
	}
}

func TestVerifyRejectsBadInputs(t *testing.T) {
	key, _ := PrivateKeyFromScalar(ScalarFromUint64(5))
	hash := keccak.Sum256([]byte("y"))
	sig, _ := Sign(key, hash[:])
	var zero Scalar
	if Verify(&key.PublicKey, hash[:], zero, sig.S) {
		t.Error("r=0 verified")
	}
	if Verify(&key.PublicKey, hash[:], sig.R, zero) {
		t.Error("s=0 verified")
	}
	var one FieldElement
	one.SetUint64(1)
	offCurve := &PublicKey{X: one, Y: one}
	if Verify(offCurve, hash[:], sig.R, sig.S) {
		t.Error("off-curve key verified")
	}
}

func TestPublicKeySerializeParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	key, _ := GenerateKey(rng)
	raw := key.SerializeUncompressed()
	if len(raw) != 65 || raw[0] != 0x04 {
		t.Fatalf("bad serialization: %x", raw[:2])
	}
	pub, err := ParsePublicKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !pub.Equal(&key.PublicKey) {
		t.Error("round trip mismatch")
	}
	// Corrupt a byte: must fail the on-curve check.
	raw[10] ^= 0xff
	if _, err := ParsePublicKey(raw); err == nil {
		t.Error("corrupted key parsed successfully")
	}
}

func TestPrivateKeyFromScalarBounds(t *testing.T) {
	var zero Scalar
	if _, err := PrivateKeyFromScalar(zero); err == nil {
		t.Error("zero scalar accepted")
	}
	nm1 := ScalarFromUint64(1)
	nm1.Negate(&nm1) // n-1
	if _, err := PrivateKeyFromScalar(nm1); err != nil {
		t.Error("scalar N-1 rejected")
	}
}

func TestPrivateKeyBytesRoundTrip(t *testing.T) {
	key, _ := PrivateKeyFromScalar(ScalarFromUint64(777))
	b := key.Bytes()
	if len(b) != 32 {
		t.Fatalf("key bytes length %d", len(b))
	}
	k2, err := PrivateKeyFromBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	if !k2.D.Equal(&key.D) {
		t.Error("bytes round trip mismatch")
	}
	if _, err := PrivateKeyFromBytes(b[:31]); err == nil {
		t.Error("short key accepted")
	}
	var nBytes [32]byte
	binary.BigEndian.PutUint64(nBytes[0:8], scalarN[3])
	binary.BigEndian.PutUint64(nBytes[8:16], scalarN[2])
	binary.BigEndian.PutUint64(nBytes[16:24], scalarN[1])
	binary.BigEndian.PutUint64(nBytes[24:32], scalarN[0])
	if _, err := PrivateKeyFromBytes(nBytes[:]); err == nil {
		t.Error("key bytes = N accepted")
	}
}

func TestVRS27(t *testing.T) {
	key, _ := PrivateKeyFromScalar(ScalarFromUint64(31337))
	hash := keccak.Sum256([]byte("vrs"))
	sig, _ := Sign(key, hash[:])
	v, r, s := sig.VRS27()
	if v != sig.V+27 {
		t.Errorf("v = %d, want %d", v, sig.V+27)
	}
	wantR := sig.R.Bytes32()
	wantS := sig.S.Bytes32()
	if !bytes.Equal(r[:], wantR[:]) || !bytes.Equal(s[:], wantS[:]) {
		t.Error("r/s padding mismatch")
	}
}

func TestScalarBytesMinimal(t *testing.T) {
	var zero Scalar
	if got := zero.Bytes(); len(got) != 0 {
		t.Errorf("zero scalar Bytes() = %x, want empty", got)
	}
	s := ScalarFromUint64(0x1234)
	if got := s.Bytes(); !bytes.Equal(got, []byte{0x12, 0x34}) {
		t.Errorf("Bytes() = %x, want 1234", got)
	}
}

// Cross-check sign → on-chain-style recover with the address equality the
// paper's deployVerifiedInstance() performs.
func TestPaperSignedCopyFlow(t *testing.T) {
	alice, _ := PrivateKeyFromScalar(ScalarFromUint64(0xA11CE))
	bytecode := []byte{0x60, 0x80, 0x60, 0x40, 0x52, 0x00, 0xfe, 0xba, 0xb4}
	h := keccak.Sum256(bytecode)
	sig, err := Sign(alice, h[:])
	if err != nil {
		t.Fatal(err)
	}
	got, err := RecoverAddress(h[:], sig.R, sig.S, sig.V)
	if err != nil {
		t.Fatal(err)
	}
	if got != alice.EthereumAddress() {
		t.Error("ecrecover-style address check failed")
	}
	// A single flipped bit in the bytecode must break the check.
	bytecode[3] ^= 0x01
	h2 := keccak.Sum256(bytecode)
	got2, err := RecoverAddress(h2[:], sig.R, sig.S, sig.V)
	if err == nil && got2 == alice.EthereumAddress() {
		t.Error("tampered bytecode still passed the signature check")
	}
}
