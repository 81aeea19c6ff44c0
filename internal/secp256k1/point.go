package secp256k1

import "sync"

// Jacobian projective point arithmetic (a = 0 short Weierstrass) over
// FieldElement, plus the two multiplication strategies the ECDSA paths
// need:
//
//   - scalarBaseMult: a fixed-base windowed table for G — 64 4-bit windows
//     of precomputed affine multiples, so k*G is ~64 mixed additions and
//     ZERO doublings.
//   - doubleScalarMult: Shamir/wNAF interleaving for u1*G + u2*Q — one
//     shared doubling chain, G digits served from a precomputed width-8
//     wNAF table of affine odd multiples, Q digits from a runtime width-5
//     table. This is the shape of every verification and recovery.
//
// The tables are built once, lazily, behind a sync.Once (~100KB, a few
// milliseconds); every subsequent operation is allocation-free.

// affinePoint is a point in affine coordinates. The zero value is only
// used inside tables, never as a point at infinity.
type affinePoint struct {
	x, y FieldElement
}

// jacobianPoint is (X/Z^2, Y/Z^3); the point at infinity has Z == 0.
type jacobianPoint struct {
	x, y, z FieldElement
}

func (p *jacobianPoint) isInfinity() bool { return p.z.IsZero() }

func (p *jacobianPoint) setInfinity() {
	p.x = FieldElement{}
	p.y = FieldElement{}
	p.z = FieldElement{}
}

func (p *jacobianPoint) setAffine(a *affinePoint) {
	p.x = a.x
	p.y = a.y
	p.z.SetUint64(1)
}

// double sets p = 2p in place (dbl-2009-l, a = 0).
func (p *jacobianPoint) double() {
	if p.isInfinity() || p.y.IsZero() {
		p.setInfinity()
		return
	}
	var a, b, c, d, e, f, t FieldElement
	a.Square(&p.x)  // A = X^2
	b.Square(&p.y)  // B = Y^2
	c.Square(&b)    // C = B^2
	t.Add(&p.x, &b) // X + B
	t.Square(&t)    // (X+B)^2
	t.Sub(&t, &a)
	t.Sub(&t, &c)
	d.MulInt(&t, 2) // D = 2((X+B)^2 - A - C)
	e.MulInt(&a, 3) // E = 3A
	f.Square(&e)    // F = E^2
	var x3, y3, z3 FieldElement
	x3.MulInt(&d, 2)
	x3.Sub(&f, &x3) // X3 = F - 2D
	y3.Sub(&d, &x3)
	y3.Mul(&e, &y3)
	c.MulInt(&c, 8)
	y3.Sub(&y3, &c) // Y3 = E(D - X3) - 8C
	z3.Mul(&p.y, &p.z)
	z3.MulInt(&z3, 2) // Z3 = 2YZ
	p.x = x3
	p.y = y3
	p.z = z3
}

// add sets p = p + q (general Jacobian addition, add-2007-bl). p and q may
// not alias.
func (p *jacobianPoint) add(q *jacobianPoint) {
	if q.isInfinity() {
		return
	}
	if p.isInfinity() {
		*p = *q
		return
	}
	var z1z1, z2z2, u1, u2, s1, s2 FieldElement
	z1z1.Square(&p.z)
	z2z2.Square(&q.z)
	u1.Mul(&p.x, &z2z2)
	u2.Mul(&q.x, &z1z1)
	s1.Mul(&p.y, &q.z)
	s1.Mul(&s1, &z2z2)
	s2.Mul(&q.y, &p.z)
	s2.Mul(&s2, &z1z1)
	if u1.Equal(&u2) {
		if !s1.Equal(&s2) {
			p.setInfinity()
			return
		}
		p.double()
		return
	}
	var h, i, j, r, v FieldElement
	h.Sub(&u2, &u1)
	i.MulInt(&h, 2)
	i.Square(&i)
	j.Mul(&h, &i)
	r.Sub(&s2, &s1)
	r.MulInt(&r, 2)
	v.Mul(&u1, &i)
	var x3, y3, z3, t FieldElement
	x3.Square(&r)
	x3.Sub(&x3, &j)
	t.MulInt(&v, 2)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&r, &y3)
	t.Mul(&s1, &j)
	t.MulInt(&t, 2)
	y3.Sub(&y3, &t)
	z3.Add(&p.z, &q.z)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &z2z2)
	z3.Mul(&z3, &h)
	p.x = x3
	p.y = y3
	p.z = z3
}

// addAffine sets p = p + q for an affine q (mixed addition, madd-2007-bl:
// Z2 = 1 saves four field multiplications per addition, which is why the
// precomputed tables are stored affine).
func (p *jacobianPoint) addAffine(q *affinePoint) {
	if p.isInfinity() {
		p.setAffine(q)
		return
	}
	var z1z1, u2, s2 FieldElement
	z1z1.Square(&p.z)
	u2.Mul(&q.x, &z1z1)
	s2.Mul(&q.y, &p.z)
	s2.Mul(&s2, &z1z1)
	if u2.Equal(&p.x) {
		if !s2.Equal(&p.y) {
			p.setInfinity()
			return
		}
		p.double()
		return
	}
	var h, hh, i, j, r, v FieldElement
	h.Sub(&u2, &p.x)
	hh.Square(&h)
	i.MulInt(&hh, 4)
	j.Mul(&h, &i)
	r.Sub(&s2, &p.y)
	r.MulInt(&r, 2)
	v.Mul(&p.x, &i)
	var x3, y3, z3, t FieldElement
	x3.Square(&r)
	x3.Sub(&x3, &j)
	t.MulInt(&v, 2)
	x3.Sub(&x3, &t)
	y3.Sub(&v, &x3)
	y3.Mul(&r, &y3)
	t.Mul(&p.y, &j)
	t.MulInt(&t, 2)
	y3.Sub(&y3, &t)
	z3.Add(&p.z, &h)
	z3.Square(&z3)
	z3.Sub(&z3, &z1z1)
	z3.Sub(&z3, &hh)
	p.x = x3
	p.y = y3
	p.z = z3
}

// toAffine converts p to affine coordinates (one field inversion).
// Returns false for the point at infinity.
func (p *jacobianPoint) toAffine(out *affinePoint) bool {
	if p.isInfinity() {
		return false
	}
	var zinv, zinv2 FieldElement
	zinv.Inverse(&p.z)
	zinv2.Square(&zinv)
	out.x.Mul(&p.x, &zinv2)
	out.y.Mul(&p.y, &zinv2)
	out.y.Mul(&out.y, &zinv)
	return true
}

// Generator coordinates.
var genG = affinePoint{
	x: feFromHexConst(0x79BE667EF9DCBBAC, 0x55A06295CE870B07, 0x029BFCDB2DCE28D9, 0x59F2815B16F81798),
	y: feFromHexConst(0x483ADA7726A3C465, 0x5DA4FBFC0E1108A8, 0xFD17B448A6855419, 0x9C47D08FFB10D4B8),
}

// feFromHexConst builds a field element from four big-endian 64-bit words
// (most significant first) — a readable spelling for curve constants.
func feFromHexConst(w3, w2, w1, w0 uint64) FieldElement {
	return FieldElement{n: [4]uint64{w0, w1, w2, w3}}
}

// curveB is the constant 7 of y^2 = x^3 + 7.
var curveB = FieldElement{n: [4]uint64{7, 0, 0, 0}}

// isOnCurveFE reports whether (x, y) satisfies the curve equation.
func isOnCurveFE(x, y *FieldElement) bool {
	var lhs, rhs FieldElement
	lhs.Square(y)
	rhs.Square(x)
	rhs.Mul(&rhs, x)
	rhs.Add(&rhs, &curveB)
	return lhs.Equal(&rhs)
}

const (
	combWindows  = 64                    // 4-bit windows covering 256 bits
	combTeeth    = 15                    // nonzero digits per window
	gWnafWidth   = 8                     // wNAF width for the static G table
	gWnafEntries = 1 << (gWnafWidth - 2) // odd multiples 1G, 3G, ..., 127G
	qWnafWidth   = 5                     // wNAF width for runtime points
	qWnafEntries = 1 << (qWnafWidth - 2) // odd multiples 1Q, 3Q, ..., 15Q
)

var (
	tableOnce sync.Once
	// combTable[w][d-1] = d * 16^w * G, affine.
	combTable [combWindows][combTeeth]affinePoint
	// gWnafTable[i] = (2i+1) * G, affine.
	gWnafTable [gWnafEntries]affinePoint
	// psiGWnafTable[i] = ψ((2i+1) * G) = (2i+1) * λG: the gWnafTable with
	// every x scaled by β, serving the second static stream of the GLV
	// ladder.
	psiGWnafTable [gWnafEntries]affinePoint
)

// initTables builds both precomputed G tables: Jacobian accumulation
// first, then one batched inversion normalizes every entry to affine
// (Montgomery's trick: k points cost one inversion plus 3(k-1)
// multiplications).
func initTables() {
	pts := make([]jacobianPoint, 0, combWindows*combTeeth+gWnafEntries)
	// Comb: window w holds 1..15 times 16^w G.
	var base jacobianPoint
	base.setAffine(&genG)
	for w := 0; w < combWindows; w++ {
		cur := base
		pts = append(pts, cur)
		for d := 2; d <= combTeeth; d++ {
			cur.add(&base)
			pts = append(pts, cur)
		}
		if w < combWindows-1 {
			base.double()
			base.double()
			base.double()
			base.double()
		}
	}
	// wNAF odd multiples: 1G, 3G, ..., (2^(w-1)-1)G.
	var g2 jacobianPoint
	g2.setAffine(&genG)
	g2.double()
	var odd jacobianPoint
	odd.setAffine(&genG)
	pts = append(pts, odd)
	for i := 1; i < gWnafEntries; i++ {
		odd.add(&g2)
		pts = append(pts, odd)
	}
	flat := make([]affinePoint, len(pts))
	batchToAffine(pts, flat)
	idx := 0
	for w := 0; w < combWindows; w++ {
		for d := 0; d < combTeeth; d++ {
			combTable[w][d] = flat[idx]
			idx++
		}
	}
	for i := 0; i < gWnafEntries; i++ {
		gWnafTable[i] = flat[idx]
		idx++
	}
	// ψ is one field multiplication per entry: ψ(x, y) = (β·x, y).
	for i := 0; i < gWnafEntries; i++ {
		psiGWnafTable[i].x.Mul(&gWnafTable[i].x, &glvBeta)
		psiGWnafTable[i].y = gWnafTable[i].y
	}
}

// batchToAffine converts points (none at infinity) to affine with a single
// field inversion.
func batchToAffine(pts []jacobianPoint, out []affinePoint) {
	k := len(pts)
	prefix := make([]FieldElement, k)
	var acc FieldElement
	acc.SetUint64(1)
	for i := 0; i < k; i++ {
		prefix[i] = acc
		acc.Mul(&acc, &pts[i].z)
	}
	var inv FieldElement
	inv.Inverse(&acc)
	for i := k - 1; i >= 0; i-- {
		var zinv, zinv2 FieldElement
		zinv.Mul(&inv, &prefix[i])
		inv.Mul(&inv, &pts[i].z)
		zinv2.Square(&zinv)
		out[i].x.Mul(&pts[i].x, &zinv2)
		out[i].y.Mul(&pts[i].y, &zinv2)
		out[i].y.Mul(&out[i].y, &zinv)
	}
}

// scalarBaseMult sets p = k*G using the fixed-base comb table: one mixed
// addition per nonzero 4-bit window of k, no doublings at all.
func scalarBaseMult(p *jacobianPoint, k *Scalar) {
	tableOnce.Do(initTables)
	p.setInfinity()
	for limb := 0; limb < 4; limb++ {
		v := k.n[limb]
		for nib := 0; nib < 16; nib++ {
			d := (v >> uint(4*nib)) & 0xF
			if d != 0 {
				p.addAffine(&combTable[limb*16+nib][d-1])
			}
		}
	}
}

// buildQTable fills tab with the odd multiples 1Q, 3Q, ..., 15Q for the
// width-5 wNAF ladders (Jacobian; converting to affine would cost a
// second inversion, more than the saved mixed-add muls).
func buildQTable(tab *[qWnafEntries]jacobianPoint, q *affinePoint) {
	tab[0].setAffine(q)
	var q2 jacobianPoint
	q2.setAffine(q)
	q2.double()
	for i := 1; i < qWnafEntries; i++ {
		tab[i] = tab[i-1]
		tab[i].add(&q2)
	}
}

// addGDigit folds one signed wNAF digit of a static affine table into p
// (mixed addition; negative digits add the y-negated entry).
func (p *jacobianPoint) addGDigit(tab *[gWnafEntries]affinePoint, d int8) {
	if d > 0 {
		p.addAffine(&tab[d>>1])
	} else if d < 0 {
		neg := tab[(-d)>>1]
		neg.y.Negate(&neg.y)
		p.addAffine(&neg)
	}
}

// addQDigit folds one signed wNAF digit of a runtime Q table into p.
func (p *jacobianPoint) addQDigit(tab *[qWnafEntries]jacobianPoint, d int8) {
	if d > 0 {
		p.add(&tab[d>>1])
	} else if d < 0 {
		neg := tab[(-d)>>1]
		neg.y.Negate(&neg.y)
		p.add(&neg)
	}
}

// doubleScalarMult sets p = u1*G + u2*Q as a GLV 4-stream interleaved
// wNAF ladder. Both scalars are decomposed against the λ endomorphism
// (u = u' + u”·λ with half-length components), so ONE shared doubling
// chain of ~130 steps serves four digit streams: u1' over the static G
// table, u1” over the static ψ(G) table, u2' over a runtime Q table and
// u2” over its β-scaled ψ(Q) twin (one field mul per entry — ψ commutes
// with the Jacobian projection). Negative components flip digit signs
// rather than negating points.
func doubleScalarMult(p *jacobianPoint, u1 *Scalar, u2 *Scalar, q *affinePoint) {
	tableOnce.Do(initTables)
	u11, u12, neg11, neg12 := splitLambda(u1)
	u21, u22, neg21, neg22 := splitLambda(u2)
	var qTab, psiQTab [qWnafEntries]jacobianPoint
	buildQTable(&qTab, q)
	for i := range qTab {
		psiQTab[i] = qTab[i]
		psiQTab[i].x.Mul(&psiQTab[i].x, &glvBeta)
	}
	var d11, d12, d21, d22 [257]int8
	l11 := u11.wnaf(&d11, gWnafWidth)
	l12 := u12.wnaf(&d12, gWnafWidth)
	l21 := u21.wnaf(&d21, qWnafWidth)
	l22 := u22.wnaf(&d22, qWnafWidth)
	l := l11
	for _, li := range [3]int{l12, l21, l22} {
		if li > l {
			l = li
		}
	}
	s11, s12, s21, s22 := int8(1), int8(1), int8(1), int8(1)
	if neg11 {
		s11 = -1
	}
	if neg12 {
		s12 = -1
	}
	if neg21 {
		s21 = -1
	}
	if neg22 {
		s22 = -1
	}
	p.setInfinity()
	for i := l - 1; i >= 0; i-- {
		p.double()
		if i < l11 {
			p.addGDigit(&gWnafTable, s11*d11[i])
		}
		if i < l12 {
			p.addGDigit(&psiGWnafTable, s12*d12[i])
		}
		if i < l21 {
			p.addQDigit(&qTab, s21*d21[i])
		}
		if i < l22 {
			p.addQDigit(&psiQTab, s22*d22[i])
		}
	}
}

// msmStream is one digit stream of the multi-scalar ladder: a runtime
// table of odd multiples, the wNAF digits of a half-length GLV component,
// and the component's sign. Tables are affine — the whole chunk is
// normalized with ONE batched inversion, so every digit fold is a mixed
// addition (four field muls cheaper than the general add).
type msmStream struct {
	tab    [qWnafEntries]affinePoint
	digits [257]int8
	length int
	sign   int8
}

// addQDigitAffine folds one signed wNAF digit of an affine runtime table
// into p (mixed addition).
func (p *jacobianPoint) addQDigitAffine(tab *[qWnafEntries]affinePoint, d int8) {
	if d > 0 {
		p.addAffine(&tab[d>>1])
	} else if d < 0 {
		neg := tab[(-d)>>1]
		neg.y.Negate(&neg.y)
		p.addAffine(&neg)
	}
}

// multiScalarMult sets p = gk*G + Σ scalars[i]*points[i] over ONE shared
// doubling chain — the engine of shared-chain batch verification. Every
// scalar is GLV-split, so each point contributes two half-length width-5
// wNAF streams (its own table and the β-scaled ψ twin) and G contributes
// two static-table streams; the whole sum costs ~130 doublings TOTAL plus
// the digit additions, against ~130 doublings PER SIGNATURE for
// independent ladders. The points must all have odd prime order (any
// valid curve point does), so no table entry can be the point at infinity
// and the batched normalization below is total.
func multiScalarMult(p *jacobianPoint, gk *Scalar, scalars []Scalar, points []affinePoint) {
	tableOnce.Do(initTables)
	streams := make([]msmStream, 2*len(scalars))
	jtabs := make([]jacobianPoint, len(scalars)*qWnafEntries)
	for i := range scalars {
		buildQTable((*[qWnafEntries]jacobianPoint)(jtabs[i*qWnafEntries:(i+1)*qWnafEntries]), &points[i])
	}
	flat := make([]affinePoint, len(jtabs))
	batchToAffine(jtabs, flat)
	for i := range scalars {
		k1, k2, neg1, neg2 := splitLambda(&scalars[i])
		s1, s2 := &streams[2*i], &streams[2*i+1]
		copy(s1.tab[:], flat[i*qWnafEntries:(i+1)*qWnafEntries])
		for j := range s2.tab {
			s2.tab[j].x.Mul(&s1.tab[j].x, &glvBeta)
			s2.tab[j].y = s1.tab[j].y
		}
		s1.length = k1.wnaf(&s1.digits, qWnafWidth)
		s2.length = k2.wnaf(&s2.digits, qWnafWidth)
		s1.sign, s2.sign = 1, 1
		if neg1 {
			s1.sign = -1
		}
		if neg2 {
			s2.sign = -1
		}
	}
	g1, g2, negG1, negG2 := splitLambda(gk)
	var dg1, dg2 [257]int8
	lg1 := g1.wnaf(&dg1, gWnafWidth)
	lg2 := g2.wnaf(&dg2, gWnafWidth)
	sg1, sg2 := int8(1), int8(1)
	if negG1 {
		sg1 = -1
	}
	if negG2 {
		sg2 = -1
	}
	l := lg1
	if lg2 > l {
		l = lg2
	}
	for s := range streams {
		if streams[s].length > l {
			l = streams[s].length
		}
	}
	p.setInfinity()
	for i := l - 1; i >= 0; i-- {
		p.double()
		if i < lg1 {
			p.addGDigit(&gWnafTable, sg1*dg1[i])
		}
		if i < lg2 {
			p.addGDigit(&psiGWnafTable, sg2*dg2[i])
		}
		for s := range streams {
			if i < streams[s].length {
				p.addQDigitAffine(&streams[s].tab, streams[s].sign*streams[s].digits[i])
			}
		}
	}
}
