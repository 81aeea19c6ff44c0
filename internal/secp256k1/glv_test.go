package secp256k1

import (
	"math/rand"
	"testing"
)

// scalarMult sets p = k*q for an arbitrary affine point via width-5 wNAF,
// without the GLV split: the reference the GLV paths are checked against.
func scalarMult(p *jacobianPoint, k *Scalar, q *affinePoint) {
	var qTab [qWnafEntries]jacobianPoint
	buildQTable(&qTab, q)
	var digits [257]int8
	l := k.wnaf(&digits, qWnafWidth)
	p.setInfinity()
	for i := l - 1; i >= 0; i-- {
		p.double()
		p.addQDigit(&qTab, digits[i])
	}
}

// λ must be a nontrivial cube root of unity mod n.
func TestGLVLambdaCubeRoot(t *testing.T) {
	var l2, l3 Scalar
	l2.Mul(&glvLambda, &glvLambda)
	l3.Mul(&l2, &glvLambda)
	one := ScalarFromUint64(1)
	if !l3.Equal(&one) {
		t.Fatal("lambda^3 != 1 mod n")
	}
	if glvLambda.Equal(&one) {
		t.Fatal("lambda is the trivial root")
	}
}

// β must be a nontrivial cube root of unity mod p.
func TestGLVBetaCubeRoot(t *testing.T) {
	var b2, b3 FieldElement
	b2.Square(&glvBeta)
	b3.Mul(&b2, &glvBeta)
	var one FieldElement
	one.SetUint64(1)
	if !b3.Equal(&one) {
		t.Fatal("beta^3 != 1 mod p")
	}
	if glvBeta.Equal(&one) {
		t.Fatal("beta is the trivial root")
	}
}

// The endomorphism pairing: ψ(G) = (β·Gx, Gy) must equal λ·G.
func TestGLVPsiIsLambdaMult(t *testing.T) {
	var lg jacobianPoint
	scalarMult(&lg, &glvLambda, &genG)
	var lga affinePoint
	if !lg.toAffine(&lga) {
		t.Fatal("lambda*G at infinity")
	}
	var psiX FieldElement
	psiX.Mul(&genG.x, &glvBeta)
	if !lga.x.Equal(&psiX) || !lga.y.Equal(&genG.y) {
		t.Fatalf("psi(G) != lambda*G:\n got (%x, %x)\nwant (%x, %x)",
			lga.x.Bytes32(), lga.y.Bytes32(), psiX.Bytes32(), genG.y.Bytes32())
	}
}

// checkSplit verifies the decomposition invariants for one k: the signed
// reconstruction k1 ± k2·λ equals k mod n, and both magnitudes fit in 129
// bits (half-length, the whole point of the split).
func checkSplit(t *testing.T, k *Scalar) {
	t.Helper()
	k1, k2, neg1, neg2 := splitLambda(k)
	// Half-length means |v| < ~2^129: at most one bit may spill into limb 2.
	if k1.n[2] > 1 || k1.n[3] != 0 || k2.n[2] > 1 || k2.n[3] != 0 {
		t.Fatalf("split components not half-length: k1=%x k2=%x",
			k1.Bytes32(), k2.Bytes32())
	}
	s1, s2 := k1, k2
	if neg1 {
		s1.Negate(&s1)
	}
	if neg2 {
		s2.Negate(&s2)
	}
	var rec Scalar
	rec.Mul(&s2, &glvLambda)
	rec.Add(&rec, &s1)
	if !rec.Equal(k) {
		t.Fatalf("k1 + k2*lambda != k for k=%x (k1=%x neg1=%v k2=%x neg2=%v)",
			k.Bytes32(), k1.Bytes32(), neg1, k2.Bytes32(), neg2)
	}
}

func TestGLVSplitEdgeVectors(t *testing.T) {
	var nMinus1 Scalar
	one := ScalarFromUint64(1)
	nMinus1.Negate(&one)
	// Near-basis scalars: the b2 and −b1 magnitudes themselves, ±1.
	var b2p1, mb1m1 Scalar
	b2p1.Add(&glvB2, &one)
	mb1m1.Negate(&one)
	mb1m1.Add(&glvMinusB1, &mb1m1)
	var halfN Scalar
	halfN.n = scalarHalfN
	cases := []Scalar{
		ScalarFromUint64(0),
		one,
		ScalarFromUint64(2),
		nMinus1,
		glvLambda,
		glvB2,
		glvMinusB1,
		b2p1,
		mb1m1,
		halfN,
	}
	// lambda ± 1 and n − lambda.
	var lp1, lm1, nl Scalar
	lp1.Add(&glvLambda, &one)
	var m1 Scalar
	m1.Negate(&one)
	lm1.Add(&glvLambda, &m1)
	nl.Negate(&glvLambda)
	cases = append(cases, lp1, lm1, nl)
	for i := range cases {
		checkSplit(t, &cases[i])
	}
}

func TestGLVSplitRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		var buf [32]byte
		rng.Read(buf[:])
		var k Scalar
		k.SetBytes32(&buf)
		checkSplit(t, &k)
	}
}

// The GLV ladder end to end: u1*G + u2*Q must match the plain single-
// stream scalarMult sum for random scalars and points.
func TestGLVDoubleScalarMultMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		var b1, b2r, b3 [32]byte
		rng.Read(b1[:])
		rng.Read(b2r[:])
		rng.Read(b3[:])
		var u1, u2, d Scalar
		u1.SetBytes32(&b1)
		u2.SetBytes32(&b2r)
		d.SetBytes32(&b3)
		if d.IsZero() {
			continue
		}
		var qj jacobianPoint
		scalarBaseMult(&qj, &d)
		var q affinePoint
		if !qj.toAffine(&q) {
			continue
		}
		var fast jacobianPoint
		doubleScalarMult(&fast, &u1, &u2, &q)
		// Reference: u1*G + u2*Q via two independent plain ladders.
		var r1, r2 jacobianPoint
		scalarBaseMult(&r1, &u1)
		scalarMult(&r2, &u2, &q)
		r1.add(&r2)
		var fa, ra affinePoint
		fok := fast.toAffine(&fa)
		rok := r1.toAffine(&ra)
		if fok != rok {
			t.Fatalf("iter %d: infinity mismatch fast=%v ref=%v", i, fok, rok)
		}
		if fok && (!fa.x.Equal(&ra.x) || !fa.y.Equal(&ra.y)) {
			t.Fatalf("iter %d: GLV ladder diverges from plain ladders", i)
		}
	}
}

func TestGLVSplitsCounter(t *testing.T) {
	before := GLVSplits()
	var k Scalar
	k.SetUint64(12345)
	splitLambda(&k)
	if GLVSplits() != before+1 {
		t.Fatal("GLV split counter did not advance")
	}
}
