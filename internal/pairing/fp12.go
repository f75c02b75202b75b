package pairing

// fe12 is an element of Fp12 = Fp6[w]/(w^2 - v), c0 + c1·w. The pairing
// target group GT is the order-r subgroup of Fp12*.
type fe12 struct {
	c0, c1 fe6
}

var fe12One = fe12{c0: fe6{c0: fe2One}}

func (z *fe12) isOne() bool { return z.equal(&fe12One) }

func (z *fe12) equal(x *fe12) bool { return z.c0.equal(&x.c0)&z.c1.equal(&x.c1) == 1 }

// mul is Karatsuba over w^2 = v: three Fp6 products.
func (z *fe12) mul(x, y *fe12) {
	var t0, t1, s, u fe6
	t0.mul(&x.c0, &y.c0)
	t1.mul(&x.c1, &y.c1)
	s.add(&x.c0, &x.c1)
	u.add(&y.c0, &y.c1)
	s.mul(&s, &u)
	s.sub(&s, &t0)
	z.c1.sub(&s, &t1)
	t1.mulV(&t1)
	z.c0.add(&t0, &t1)
}

// mulLine multiplies by the sparse element a + b·w + c·w^3 that a Miller
// loop line evaluates to (a in c0.c0, b in c1.c0, c in c1.c1): thirteen
// Fp2 products against eighteen for a full mul.
func (z *fe12) mulLine(x *fe12, a, b, c *fe2) {
	var t0, t1, s fe6
	var ab fe2
	t0.mulFe2(&x.c0, a)
	t1.mulSparse01(&x.c1, b, c)
	s.add(&x.c0, &x.c1)
	ab.add(a, b)
	s.mulSparse01(&s, &ab, c)
	s.sub(&s, &t0)
	z.c1.sub(&s, &t1)
	t1.mulV(&t1)
	z.c0.add(&t0, &t1)
}

// square is complex squaring: with t = c0·c1,
// c0' = (c0 + c1)(c0 + v·c1) - t - v·t and c1' = 2t.
func (z *fe12) square(x *fe12) {
	var t, s, u fe6
	t.mul(&x.c0, &x.c1)
	u.mulV(&x.c1)
	u.add(&u, &x.c0)
	s.add(&x.c0, &x.c1)
	s.mul(&s, &u)
	s.sub(&s, &t)
	u.mulV(&t)
	z.c0.sub(&s, &u)
	z.c1.dbl(&t)
}

// fp4Square squares a0 + a1·s in Fp4 = Fp2[s]/(s^2 - ξ):
// r0 = a0^2 + ξ·a1^2, r1 = 2·a0·a1.
func fp4Square(r0, r1, a0, a1 *fe2) {
	var q0, q1, s fe2
	q0.square(a0)
	q1.square(a1)
	s.add(a0, a1)
	s.square(&s)
	s.sub(&s, &q0)
	r1.sub(&s, &q1)
	q1.mulXi(&q1)
	r0.add(&q0, &q1)
}

// cyclotomicSquare squares an element of the cyclotomic subgroup (every
// value after the easy part of the final exponentiation) by the
// Granger–Scott formulas. Writing x = A + B·w + C·w^2 over Fp4 with
// A = (g0, h1), B = (h0, g2), C = (g1, h2) for c0 = (g0, g1, g2) and
// c1 = (h0, h1, h2), the square is
// (3A^2 - 2·conj A) + (3s·C^2 + 2·conj B)·w + (3B^2 - 2·conj C)·w^2.
func (z *fe12) cyclotomicSquare(x *fe12) {
	var a0, a1, b0, b1, c0, c1 fe2
	fp4Square(&a0, &a1, &x.c0.c0, &x.c1.c1)
	fp4Square(&b0, &b1, &x.c1.c0, &x.c0.c2)
	fp4Square(&c0, &c1, &x.c0.c1, &x.c1.c2)
	c1.mulXi(&c1) // s·C^2 = ξ·c1 + c0·s

	// 3t - 2y and 3t + 2y, as 2(t ∓ y) + t.
	minus := func(out, t, y *fe2) {
		var d fe2
		d.sub(t, y)
		d.dbl(&d)
		out.add(&d, t)
	}
	plus := func(out, t, y *fe2) {
		var d fe2
		d.add(t, y)
		d.dbl(&d)
		out.add(&d, t)
	}
	minus(&z.c0.c0, &a0, &x.c0.c0)
	plus(&z.c1.c1, &a1, &x.c1.c1)
	plus(&z.c1.c0, &c1, &x.c1.c0)
	minus(&z.c0.c2, &c0, &x.c0.c2)
	minus(&z.c0.c1, &b0, &x.c0.c1)
	plus(&z.c1.c2, &b1, &x.c1.c2)
}

// conjugate sets z = c0 - c1·w, which is x^(p^6) and, on the cyclotomic
// subgroup, 1/x.
func (z *fe12) conjugate(x *fe12) {
	z.c0 = x.c0
	z.c1.neg(&x.c1)
}

// inv sets z = (c0 - c1·w) / (c0^2 - v·c1^2); the inverse of 0 is 0.
func (z *fe12) inv(x *fe12) {
	var t, u fe6
	t.mul(&x.c0, &x.c0)
	u.mul(&x.c1, &x.c1)
	u.mulV(&u)
	t.sub(&t, &u)
	t.inv(&t)
	z.c0.mul(&x.c0, &t)
	u.neg(&x.c1)
	z.c1.mul(&u, &t)
}

// frobenius sets z = x^p. With w^p = γ1·w, the odd half picks up the odd
// constants: conj(h0)·γ1 + conj(h1)·γ3·v + conj(h2)·γ5·v^2.
func (z *fe12) frobenius(x *fe12) {
	z.c0.frobenius(&x.c0)
	z.c1.c0.conj(&x.c1.c0)
	z.c1.c0.mul(&z.c1.c0, &frobGamma[1])
	z.c1.c1.conj(&x.c1.c1)
	z.c1.c1.mul(&z.c1.c1, &frobGamma[3])
	z.c1.c2.conj(&x.c1.c2)
	z.c1.c2.mul(&z.c1.c2, &frobGamma[5])
}

func (z *fe12) frobeniusP2(x *fe12) {
	z.frobenius(x)
	z.frobenius(z)
}

// expU sets z = x^u for the curve parameter u, for x in the cyclotomic
// subgroup. u is a public constant, so the fixed sequence of squarings
// and multiplications reveals nothing.
func (z *fe12) expU(x *fe12) {
	acc := *x
	for i := 61; i >= 0; i-- {
		acc.cyclotomicSquare(&acc)
		if (bnU>>uint(i))&1 == 1 {
			acc.mul(&acc, x)
		}
	}
	*z = acc
}

// putBytes writes the canonical 384-byte encoding: twelve field elements,
// big-endian, in tower order c0.c0.c0, c0.c0.c1, c0.c1.c0, …, c1.c2.c1.
func (z *fe12) putBytes(b []byte) {
	for i, six := range [2]*fe6{&z.c0, &z.c1} {
		for j, two := range [3]*fe2{&six.c0, &six.c1, &six.c2} {
			two.putBytes(b[(3*i+j)*64:])
		}
	}
}
