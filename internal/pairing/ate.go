package pairing

// This file implements the Miller loop of the optimal ate pairing, the
// pairing behind Pair and PairingCheck. The loop runs over 6u+2 (65 bits,
// in non-adjacent form) with the running point T on the twist in
// homogeneous projective coordinates, so no step inverts anything, and
// closes with the two Frobenius line steps. Each line is the affine line
// yP - λ·xP·w + (λ·x_T - y_T)·w^3 scaled by a factor in Fp2, which the
// final exponentiation maps to 1, so the pairing value is exactly the one
// the affine formulas give. The independent reference is the math/big
// Tate pairing in bn254_oracle_test.go.

// twistPoint is the running point T = (x/z, y/z) of a Miller loop.
type twistPoint struct {
	x, y, z fe2
}

// lineEval holds the three non-zero coefficients of a line evaluated at
// P, a + b·w + c·w^3.
type lineEval struct {
	a, b, c fe2
}

// doubleStep sets t = 2t and l to the tangent at t evaluated at
// P = (px, py), scaled by 2·Y·Z: a = 2YZ·yP, b = -3X^2·xP,
// c = Y^2 - 3b'Z^2.
func (t *twistPoint) doubleStep(l *lineEval, px, py *fe) {
	var xy, b, c, e, f, h, s, u fe2
	xy.mul(&t.x, &t.y)
	b.square(&t.y)
	c.square(&t.z)
	e.mul(&c, &twistB)
	u.dbl(&e)
	e.add(&e, &u) // E = 3b'·Z^2
	u.dbl(&e)
	f.add(&e, &u) // F = 3E
	h.add(&t.y, &t.z)
	h.square(&h)
	h.sub(&h, &b)
	h.sub(&h, &c) // H = 2YZ

	l.a.mulFe(&h, py)
	s.square(&t.x)
	u.dbl(&s)
	s.add(&s, &u)
	s.neg(&s)
	l.b.mulFe(&s, px)
	l.c.sub(&b, &e)

	// X3 = 2XY(B - F), Y3 = (B + F)^2 - 12E^2, Z3 = 4BH.
	s.sub(&b, &f)
	t.x.mul(&xy, &s)
	t.x.dbl(&t.x)
	s.add(&b, &f)
	s.square(&s)
	e.dbl(&e)
	e.square(&e)
	u.dbl(&e)
	e.add(&e, &u) // 3(2E)^2
	t.y.sub(&s, &e)
	t.z.mul(&b, &h)
	t.z.dbl(&t.z)
	t.z.dbl(&t.z)
}

// addStep sets t = t + Q for the affine twist point Q = (qx, qy) and l to
// the chord through them evaluated at P, scaled by μ = X - xQ·Z: with
// θ = Y - yQ·Z, a = μ·yP, b = -θ·xP, c = θ·xQ - μ·yQ. t and Q must be
// distinct and not inverse, which holds throughout the loop for Q of
// order r.
func (t *twistPoint) addStep(l *lineEval, qx, qy *fe2, px, py *fe) {
	var theta, mu, c, d, e, f, g, h, s fe2
	s.mul(qy, &t.z)
	theta.sub(&t.y, &s)
	s.mul(qx, &t.z)
	mu.sub(&t.x, &s)

	l.a.mulFe(&mu, py)
	s.neg(&theta)
	l.b.mulFe(&s, px)
	l.c.mul(&theta, qx)
	s.mul(&mu, qy)
	l.c.sub(&l.c, &s)

	// X3 = μH, Y3 = θ(G - H) - EY, Z3 = ZE with C = θ^2, D = μ^2,
	// E = μ^3, F = ZC, G = XD, H = E + F - 2G.
	c.square(&theta)
	d.square(&mu)
	e.mul(&mu, &d)
	f.mul(&t.z, &c)
	g.mul(&t.x, &d)
	h.add(&e, &f)
	h.sub(&h, &g)
	h.sub(&h, &g)
	t.x.mul(&mu, &h)
	s.sub(&g, &h)
	s.mul(&theta, &s)
	d.mul(&e, &t.y)
	t.y.sub(&s, &d)
	t.z.mul(&t.z, &e)
}

// frobTwist applies the p-power Frobenius endomorphism to an affine twist
// point: π(x, y) = (conj(x)·ξ^((p-1)/3), conj(y)·ξ^((p-1)/2)).
func frobTwist(x, y *fe2) {
	x.conj(x)
	x.mul(x, &frobGamma[2])
	y.conj(y)
	y.mul(y, &frobGamma[3])
}

// millerPair is one (P, Q) argument of a Miller loop, both affine, with
// the loop's running point.
type millerPair struct {
	px, py fe
	qx, qy fe2
	negQy  fe2
	t      twistPoint
}

func newMillerPair(p *G1, q *G2) millerPair {
	var m millerPair
	m.px, m.py, _ = p.affine()
	m.qx, m.qy, _ = q.affine()
	m.negQy.neg(&m.qy)
	m.t = twistPoint{x: m.qx, y: m.qy, z: fe2One}
	return m
}

// millerLoop computes the product over the pairs of f_{6u+2,Q}(P) times
// the two closing Frobenius lines. The pairs share the accumulator, so
// each step squares once however many pairs there are. No argument may be
// the identity.
func millerLoop(pairs []millerPair) fe12 {
	var l lineEval
	f := fe12One
	for i := len(sixUPlus2NAF) - 2; i >= 0; i-- {
		f.square(&f)
		for j := range pairs {
			m := &pairs[j]
			m.t.doubleStep(&l, &m.px, &m.py)
			f.mulLine(&f, &l.a, &l.b, &l.c)
			switch sixUPlus2NAF[i] {
			case 1:
				m.t.addStep(&l, &m.qx, &m.qy, &m.px, &m.py)
				f.mulLine(&f, &l.a, &l.b, &l.c)
			case -1:
				m.t.addStep(&l, &m.qx, &m.negQy, &m.px, &m.py)
				f.mulLine(&f, &l.a, &l.b, &l.c)
			}
		}
	}
	// Closing steps: add π(Q), then subtract π^2(Q).
	for j := range pairs {
		m := &pairs[j]
		frobTwist(&m.qx, &m.qy)
		m.t.addStep(&l, &m.qx, &m.qy, &m.px, &m.py)
		f.mulLine(&f, &l.a, &l.b, &l.c)
		frobTwist(&m.qx, &m.qy)
		m.qy.neg(&m.qy)
		m.t.addStep(&l, &m.qx, &m.qy, &m.px, &m.py)
		f.mulLine(&f, &l.a, &l.b, &l.c)
	}
	return f
}
