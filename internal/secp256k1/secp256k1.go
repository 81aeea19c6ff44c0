// Package secp256k1 implements the secp256k1 elliptic curve and the ECDSA
// operations Ethereum relies on: deterministic signing (RFC 6979),
// verification, and public-key recovery (the on-chain ecrecover primitive).
//
// The arithmetic is built on fixed-width 4x64-bit limb types — FieldElement
// (modulo the pseudo-Mersenne prime 2^256 - 2^32 - 977) and Scalar (modulo
// the group order) — with a precomputed fixed-base table for G, width-8
// wNAF tables for the verify/recover double multiplication, and Shamir
// interleaving, so the sign/verify/recover paths never touch a bignum and
// run allocation-free. The implementation is variable-time and therefore
// not hardened against local side-channel attacks; it is intended for
// protocol research, testing and simulation, which is exactly the role it
// plays in this repository.
package secp256k1

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"

	"onoffchain/internal/keccak"
)

// PublicKey is a point on the curve in affine coordinates.
type PublicKey struct {
	X, Y FieldElement
}

// PrivateKey is a secp256k1 private scalar with its public point.
type PrivateKey struct {
	PublicKey
	D Scalar
}

// Signature is an ECDSA signature with the recovery id V in {0,1,2,3}.
// Ethereum transports V as 27+recid (pre-EIP-155); helpers below convert.
// R and S are value types: a Signature embeds no pointers and the zero
// value is recognizably unsigned (R = S = 0 is never a valid signature).
type Signature struct {
	R, S Scalar
	V    byte
}

// IsOnCurve reports whether the public key is a valid curve point.
func (pub *PublicKey) IsOnCurve() bool {
	return isOnCurveFE(&pub.X, &pub.Y)
}

// Equal reports whether two public keys are the same point.
func (pub *PublicKey) Equal(o *PublicKey) bool {
	return pub.X.Equal(&o.X) && pub.Y.Equal(&o.Y)
}

// ScalarBaseMult returns k*G in affine coordinates; ok is false for the
// point at infinity (k ≡ 0 mod n).
func ScalarBaseMult(k Scalar) (pub PublicKey, ok bool) {
	var p jacobianPoint
	scalarBaseMult(&p, &k)
	var a affinePoint
	if !p.toAffine(&a) {
		return PublicKey{}, false
	}
	return PublicKey{X: a.x, Y: a.y}, true
}

// PrivateKeyFromScalar builds a key pair from an existing scalar in [1, n).
func PrivateKeyFromScalar(d Scalar) (*PrivateKey, error) {
	if d.IsZero() {
		return nil, errors.New("secp256k1: scalar out of range")
	}
	pub, ok := ScalarBaseMult(d)
	if !ok {
		return nil, errors.New("secp256k1: scalar out of range")
	}
	return &PrivateKey{PublicKey: pub, D: d}, nil
}

// PrivateKeyFromBytes builds a key pair from a 32-byte big-endian scalar
// in [1, n).
func PrivateKeyFromBytes(b []byte) (*PrivateKey, error) {
	if len(b) != 32 {
		return nil, fmt.Errorf("secp256k1: private key must be 32 bytes, got %d", len(b))
	}
	d, ok := ScalarFromBytes(b)
	if !ok || d.IsZero() {
		return nil, errors.New("secp256k1: scalar out of range")
	}
	return PrivateKeyFromScalar(d)
}

// Bytes returns the 32-byte big-endian scalar.
func (k *PrivateKey) Bytes() []byte {
	b := k.D.Bytes32()
	return b[:]
}

func (pub *PublicKey) serializeInto(out *[65]byte) {
	out[0] = 0x04
	x := pub.X.Bytes32()
	y := pub.Y.Bytes32()
	copy(out[1:33], x[:])
	copy(out[33:65], y[:])
}

// EthereumAddress returns the 20-byte Ethereum address of the public key:
// the low 20 bytes of keccak256(X || Y).
func (pub *PublicKey) EthereumAddress() [20]byte {
	var raw [65]byte
	pub.serializeInto(&raw)
	h := keccak.Sum256(raw[1:]) // drop the 0x04 prefix
	var addr [20]byte
	copy(addr[:], h[12:])
	return addr
}

// rfc6979Nonce derives the deterministic nonce k for (priv, hash) per
// RFC 6979 with HMAC-SHA256. Because both the hash and the curve order are
// 256 bits, bits2int is the identity. The HMAC runs on fixed stack buffers
// (key and message sizes are static here) so nonce derivation allocates
// nothing.
func rfc6979Nonce(priv *Scalar, hash []byte) Scalar {
	x := priv.Bytes32()
	var z Scalar
	var h [32]byte
	copy(h[:], hash)
	z.SetBytes32(&h)
	h1 := z.Bytes32()

	var V, K [32]byte
	for i := range V {
		V[i] = 0x01
	}
	K = hmac256(&K, V[:], []byte{0x00}, x[:], h1[:])
	V = hmac256(&K, V[:])
	K = hmac256(&K, V[:], []byte{0x01}, x[:], h1[:])
	V = hmac256(&K, V[:])
	for {
		V = hmac256(&K, V[:])
		var k Scalar
		overflow := k.SetBytes32(&V)
		if !overflow && !k.IsZero() {
			return k
		}
		K = hmac256(&K, V[:], []byte{0x00})
		V = hmac256(&K, V[:])
	}
}

// hmac256 computes HMAC-SHA256 over the concatenated parts with a 32-byte
// key, using the definition directly (H(K^opad || H(K^ipad || m))) on
// fixed-size buffers: the parts here total at most 97 bytes, so the whole
// derivation stays on the stack instead of allocating crypto/hmac states.
func hmac256(key *[32]byte, parts ...[]byte) [32]byte {
	var ipad [64 + 128]byte // block-sized key pad + message
	var opad [64 + 32]byte
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if total > len(ipad)-64 {
		panic("secp256k1: hmac256 message exceeds its fixed buffer")
	}
	for i := 0; i < 32; i++ {
		ipad[i] = key[i] ^ 0x36
		opad[i] = key[i] ^ 0x5c
	}
	for i := 32; i < 64; i++ {
		ipad[i] = 0x36
		opad[i] = 0x5c
	}
	n := 64
	for _, p := range parts {
		n += copy(ipad[n:], p)
	}
	inner := sha256.Sum256(ipad[:n])
	copy(opad[64:], inner[:])
	return sha256.Sum256(opad[:])
}

// Sign produces a deterministic (RFC 6979) ECDSA signature over a 32-byte
// message hash, with the recovery id in V and S normalized to the lower
// half of the group order (Ethereum's homestead rule).
func Sign(priv *PrivateKey, hash []byte) (Signature, error) {
	if len(hash) != 32 {
		return Signature{}, fmt.Errorf("secp256k1: hash must be 32 bytes, got %d", len(hash))
	}
	var hb [32]byte
	copy(hb[:], hash)
	var z Scalar
	z.SetBytes32(&hb)

	retry := false
	for attempt := uint64(0); ; attempt++ {
		k := rfc6979Nonce(&priv.D, hash)
		if retry {
			// Extremely unlikely retry path: perturb deterministically.
			var a Scalar
			a.SetUint64(attempt)
			k.Add(&k, &a)
			if k.IsZero() {
				continue
			}
		}
		var rp jacobianPoint
		scalarBaseMult(&rp, &k)
		var ra affinePoint
		if !rp.toAffine(&ra) {
			retry = true
			continue
		}
		rxBytes := ra.x.Bytes32()
		var r Scalar
		wrapped := r.SetBytes32(&rxBytes) // r = x mod n
		if r.IsZero() {
			retry = true
			continue
		}
		recid := byte(0)
		if ra.y.IsOdd() {
			recid = 1
		}
		if wrapped {
			recid |= 2
		}
		var kinv, s Scalar
		kinv.Inverse(&k)
		s.Mul(&r, &priv.D)
		s.Add(&s, &z)
		s.Mul(&s, &kinv)
		if s.IsZero() {
			retry = true
			continue
		}
		if s.IsHigh() {
			s.Negate(&s)
			recid ^= 1
		}
		return Signature{R: r, S: s, V: recid}, nil
	}
}

// Verify checks an ECDSA signature over a 32-byte hash. The Scalar type
// already guarantees r, s < n; zero components are rejected here.
func Verify(pub *PublicKey, hash []byte, r, s Scalar) bool {
	if len(hash) != 32 || !pub.IsOnCurve() {
		return false
	}
	if r.IsZero() || s.IsZero() {
		return false
	}
	var hb [32]byte
	copy(hb[:], hash)
	var z Scalar
	z.SetBytes32(&hb)
	var w, u1, u2 Scalar
	w.Inverse(&s)
	u1.Mul(&z, &w)
	u2.Mul(&r, &w)
	q := affinePoint{x: pub.X, y: pub.Y}
	var sum jacobianPoint
	doubleScalarMult(&sum, &u1, &u2, &q)
	var a affinePoint
	if !sum.toAffine(&a) {
		return false
	}
	xb := a.x.Bytes32()
	var xr Scalar
	xr.SetBytes32(&xb)
	return xr.Equal(&r)
}

// RecoverPubkey recovers the signing public key from a signature and the
// 32-byte message hash. This mirrors the EVM ecrecover precompile: v is
// the recovery id in {0,1,2,3} (bit 1 selects an x-coordinate that
// wrapped past n).
func RecoverPubkey(hash []byte, r, s Scalar, v byte) (PublicKey, error) {
	if len(hash) != 32 {
		return PublicKey{}, errors.New("secp256k1: hash must be 32 bytes")
	}
	if v > 3 {
		return PublicKey{}, fmt.Errorf("secp256k1: invalid recovery id %d", v)
	}
	if r.IsZero() || s.IsZero() {
		return PublicKey{}, errors.New("secp256k1: r/s out of range")
	}
	// Candidate R point x-coordinate: r, or r+n when the signer's x
	// exceeded the group order (possible because n < p).
	var x FieldElement
	if v&2 == 0 {
		rb := r.Bytes32()
		x.SetBytes32(&rb)
	} else if !xPlusN(&x, &r) {
		return PublicKey{}, errors.New("secp256k1: invalid x candidate")
	}
	// y^2 = x^3 + 7; sqrt via exponent (p+1)/4 (p ≡ 3 mod 4).
	var y2, y FieldElement
	y2.Square(&x)
	y2.Mul(&y2, &x)
	y2.Add(&y2, &curveB)
	if !y.Sqrt(&y2) {
		return PublicKey{}, errors.New("secp256k1: x is not on the curve")
	}
	if y.IsOdd() != (v&1 == 1) {
		y.Negate(&y)
	}
	// Q = r^-1 (s*R - z*G)
	var hb [32]byte
	copy(hb[:], hash)
	var z, rinv, u1, u2 Scalar
	z.SetBytes32(&hb)
	rinv.Inverse(&r)
	u1.Mul(&z, &rinv)
	u1.Negate(&u1) // -z/r
	u2.Mul(&s, &rinv)
	rp := affinePoint{x: x, y: y}
	var sum jacobianPoint
	doubleScalarMult(&sum, &u1, &u2, &rp)
	var a affinePoint
	if !sum.toAffine(&a) {
		return PublicKey{}, errors.New("secp256k1: recovered point at infinity")
	}
	pub := PublicKey{X: a.x, Y: a.y}
	if !pub.IsOnCurve() {
		return PublicKey{}, errors.New("secp256k1: recovered point not on curve")
	}
	return pub, nil
}

// xPlusN sets x to the integer r + n as a field element; ok is false when
// r + n is not a valid field element (>= p).
func xPlusN(x *FieldElement, r *Scalar) bool {
	var c uint64
	var t [4]uint64
	t[0], c = bits.Add64(r.n[0], scalarN[0], 0)
	t[1], c = bits.Add64(r.n[1], scalarN[1], c)
	t[2], c = bits.Add64(r.n[2], scalarN[2], c)
	t[3], c = bits.Add64(r.n[3], scalarN[3], c)
	if c != 0 {
		return false // >= 2^256 > p
	}
	x.n = t
	return !x.geP()
}

// RecoverAddress is a convenience wrapper returning the Ethereum address
// of the recovered key, mirroring the EVM ecrecover output.
func RecoverAddress(hash []byte, r, s Scalar, v byte) ([20]byte, error) {
	pub, err := RecoverPubkey(hash, r, s, v)
	if err != nil {
		return [20]byte{}, err
	}
	return pub.EthereumAddress(), nil
}

// VRS27 returns the (v, r, s) triple with v offset by 27, the encoding the
// paper's JavaScript (ethereumjs-util ecsign) produces and the on-chain
// ecrecover consumes.
func (sig *Signature) VRS27() (v byte, r, s [32]byte) {
	return sig.V + 27, sig.R.Bytes32(), sig.S.Bytes32()
}
