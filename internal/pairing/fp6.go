package pairing

// fe6 is an element of Fp6 = Fp2[v]/(v^3 - ξ), c0 + c1·v + c2·v^2.
type fe6 struct {
	c0, c1, c2 fe2
}

func (z *fe6) equal(x *fe6) uint64 {
	return z.c0.equal(&x.c0) & z.c1.equal(&x.c1) & z.c2.equal(&x.c2)
}

func (z *fe6) add(x, y *fe6) {
	z.c0.add(&x.c0, &y.c0)
	z.c1.add(&x.c1, &y.c1)
	z.c2.add(&x.c2, &y.c2)
}

func (z *fe6) sub(x, y *fe6) {
	z.c0.sub(&x.c0, &y.c0)
	z.c1.sub(&x.c1, &y.c1)
	z.c2.sub(&x.c2, &y.c2)
}

func (z *fe6) dbl(x *fe6) {
	z.c0.dbl(&x.c0)
	z.c1.dbl(&x.c1)
	z.c2.dbl(&x.c2)
}

func (z *fe6) neg(x *fe6) {
	z.c0.neg(&x.c0)
	z.c1.neg(&x.c1)
	z.c2.neg(&x.c2)
}

// mul is Karatsuba for a cubic extension: six Fp2 products.
func (z *fe6) mul(x, y *fe6) {
	var t0, t1, t2, s, u, c0, c1, c2 fe2
	t0.mul(&x.c0, &y.c0)
	t1.mul(&x.c1, &y.c1)
	t2.mul(&x.c2, &y.c2)

	// c0 = t0 + ξ((x1+x2)(y1+y2) - t1 - t2)
	s.add(&x.c1, &x.c2)
	u.add(&y.c1, &y.c2)
	c0.mul(&s, &u)
	c0.sub(&c0, &t1)
	c0.sub(&c0, &t2)
	c0.mulXi(&c0)
	c0.add(&c0, &t0)

	// c1 = (x0+x1)(y0+y1) - t0 - t1 + ξ·t2
	s.add(&x.c0, &x.c1)
	u.add(&y.c0, &y.c1)
	c1.mul(&s, &u)
	c1.sub(&c1, &t0)
	c1.sub(&c1, &t1)
	s.mulXi(&t2)
	c1.add(&c1, &s)

	// c2 = (x0+x2)(y0+y2) - t0 - t2 + t1
	s.add(&x.c0, &x.c2)
	u.add(&y.c0, &y.c2)
	c2.mul(&s, &u)
	c2.sub(&c2, &t0)
	c2.sub(&c2, &t2)
	c2.add(&c2, &t1)

	z.c0, z.c1, z.c2 = c0, c1, c2
}

// mulSparse01 multiplies by y0 + y1·v (no v^2 term): five Fp2 products.
func (z *fe6) mulSparse01(x *fe6, y0, y1 *fe2) {
	var t0, t1, s, u, c0, c1, c2 fe2
	t0.mul(&x.c0, y0)
	t1.mul(&x.c1, y1)

	// c0 = t0 + ξ·x2·y1
	c0.mul(&x.c2, y1)
	c0.mulXi(&c0)
	c0.add(&c0, &t0)

	// c1 = (x0+x1)(y0+y1) - t0 - t1
	s.add(&x.c0, &x.c1)
	u.add(y0, y1)
	c1.mul(&s, &u)
	c1.sub(&c1, &t0)
	c1.sub(&c1, &t1)

	// c2 = x2·y0 + t1
	c2.mul(&x.c2, y0)
	c2.add(&c2, &t1)

	z.c0, z.c1, z.c2 = c0, c1, c2
}

// mulFe2 multiplies every coefficient by an Fp2 element.
func (z *fe6) mulFe2(x *fe6, k *fe2) {
	z.c0.mul(&x.c0, k)
	z.c1.mul(&x.c1, k)
	z.c2.mul(&x.c2, k)
}

// mulV multiplies by v: ξ·c2 + c0·v + c1·v^2.
func (z *fe6) mulV(x *fe6) {
	var t fe2
	t.mulXi(&x.c2)
	z.c2 = x.c1
	z.c1 = x.c0
	z.c0 = t
}

// inv uses the norm to Fp2; the inverse of 0 is 0.
func (z *fe6) inv(x *fe6) {
	var a, b, c, t, f fe2
	// a = c0^2 - ξ·c1·c2
	a.square(&x.c0)
	t.mul(&x.c1, &x.c2)
	t.mulXi(&t)
	a.sub(&a, &t)
	// b = ξ·c2^2 - c0·c1
	b.square(&x.c2)
	b.mulXi(&b)
	t.mul(&x.c0, &x.c1)
	b.sub(&b, &t)
	// c = c1^2 - c0·c2
	c.square(&x.c1)
	t.mul(&x.c0, &x.c2)
	c.sub(&c, &t)
	// f = c0·a + ξ(c2·b + c1·c)
	f.mul(&x.c2, &b)
	t.mul(&x.c1, &c)
	f.add(&f, &t)
	f.mulXi(&f)
	t.mul(&x.c0, &a)
	f.add(&f, &t)
	f.inv(&f)
	z.c0.mul(&a, &f)
	z.c1.mul(&b, &f)
	z.c2.mul(&c, &f)
}

// frobenius sets z = x^p: conj(c0) + conj(c1)·γ2·v + conj(c2)·γ4·v^2.
func (z *fe6) frobenius(x *fe6) {
	z.c0.conj(&x.c0)
	z.c1.conj(&x.c1)
	z.c1.mul(&z.c1, &frobGamma[2])
	z.c2.conj(&x.c2)
	z.c2.mul(&z.c2, &frobGamma[4])
}
