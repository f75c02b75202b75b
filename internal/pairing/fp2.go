package pairing

// fe2 is an element of Fp2 = Fp[i]/(i^2 + 1), c0 + c1·i. Like fe, its
// operations write into the receiver, which may alias any operand.
type fe2 struct {
	c0, c1 fe
}

var fe2One = fe2{c0: feOne}

func (z *fe2) isZero() uint64 { return z.c0.isZero() & z.c1.isZero() }

func (z *fe2) equal(x *fe2) uint64 { return z.c0.equal(&x.c0) & z.c1.equal(&x.c1) }

func (z *fe2) sel(cond uint64, x, y *fe2) {
	z.c0.sel(cond, &x.c0, &y.c0)
	z.c1.sel(cond, &x.c1, &y.c1)
}

func (z *fe2) add(x, y *fe2) {
	z.c0.add(&x.c0, &y.c0)
	z.c1.add(&x.c1, &y.c1)
}

func (z *fe2) sub(x, y *fe2) {
	z.c0.sub(&x.c0, &y.c0)
	z.c1.sub(&x.c1, &y.c1)
}

func (z *fe2) dbl(x *fe2) {
	z.c0.dbl(&x.c0)
	z.c1.dbl(&x.c1)
}

func (z *fe2) neg(x *fe2) {
	z.c0.neg(&x.c0)
	z.c1.neg(&x.c1)
}

// conj sets z = c0 - c1·i, which is x^p.
func (z *fe2) conj(x *fe2) {
	z.c0 = x.c0
	z.c1.neg(&x.c1)
}

// mul is Karatsuba over i^2 = -1: three base-field products.
func (z *fe2) mul(x, y *fe2) {
	var v0, v1, s, t fe
	v0.mul(&x.c0, &y.c0)
	v1.mul(&x.c1, &y.c1)
	s.add(&x.c0, &x.c1)
	t.add(&y.c0, &y.c1)
	s.mul(&s, &t)
	s.sub(&s, &v0)
	z.c1.sub(&s, &v1)
	z.c0.sub(&v0, &v1)
}

// square uses (c0 + c1)(c0 - c1) + 2·c0·c1·i: two base-field products.
func (z *fe2) square(x *fe2) {
	var s, d, m fe
	s.add(&x.c0, &x.c1)
	d.sub(&x.c0, &x.c1)
	m.mul(&x.c0, &x.c1)
	z.c0.mul(&s, &d)
	z.c1.dbl(&m)
}

// mulFe multiplies both coefficients by a base-field element.
func (z *fe2) mulFe(x *fe2, k *fe) {
	z.c0.mul(&x.c0, k)
	z.c1.mul(&x.c1, k)
}

// mulXi multiplies by the sextic non-residue ξ = 9 + i:
// (9·c0 - c1) + (9·c1 + c0)·i.
func (z *fe2) mulXi(x *fe2) {
	var t fe2
	t.dbl(x)
	t.dbl(&t)
	t.dbl(&t)
	t.add(&t, x) // 9x
	c0 := x.c0
	z.c0.sub(&t.c0, &x.c1)
	z.c1.add(&t.c1, &c0)
}

// inv sets z = conj(x) / (c0^2 + c1^2); the inverse of 0 is 0.
func (z *fe2) inv(x *fe2) {
	var n, t fe
	n.square(&x.c0)
	t.square(&x.c1)
	n.add(&n, &t)
	n.inv(&n)
	z.c0.mul(&x.c0, &n)
	t.neg(&x.c1)
	z.c1.mul(&t, &n)
}

// sqrt sets z to a square root of x and reports whether one exists, by
// the norm method for p ≡ 3 (mod 4). Which of the two roots comes out is
// part of HashToG2's output, so the order of the attempts below is fixed.
// Variable-time: hash-to-curve input is public.
func (z *fe2) sqrt(x *fe2) bool {
	if x.isZero() == 1 {
		*z = fe2{}
		return true
	}
	if x.c1.isZero() == 1 {
		// x lies in Fp: its root is sqrt(c0), or i·sqrt(-c0).
		var r, n fe
		if r.sqrt(&x.c0) {
			*z = fe2{c0: r}
			return true
		}
		n.neg(&x.c0)
		if r.sqrt(&n) {
			*z = fe2{c1: r}
			return true
		}
		return false
	}
	// The norm c0^2 + c1^2 must be a square in Fp.
	var norm, t, s fe
	norm.square(&x.c0)
	t.square(&x.c1)
	norm.add(&norm, &t)
	if !s.sqrt(&norm) {
		return false
	}
	for _, plus := range []bool{true, false} {
		// root.c0 = sqrt((c0 ± s)/2), root.c1 = c1 / (2·root.c0).
		var delta, r0, r1 fe
		if plus {
			delta.add(&x.c0, &s)
		} else {
			delta.sub(&x.c0, &s)
		}
		delta.mul(&delta, &feHalf)
		if !r0.sqrt(&delta) || r0.isZero() == 1 {
			continue
		}
		r1.inv(&r0)
		r1.mul(&r1, &x.c1)
		r1.mul(&r1, &feHalf)
		cand := fe2{c0: r0, c1: r1}
		var chk fe2
		chk.square(&cand)
		if chk.equal(x) == 1 {
			*z = cand
			return true
		}
	}
	return false
}

// setBytes decodes c0 || c1, 64 bytes, and reports whether both are
// below p.
func (z *fe2) setBytes(b []byte) bool {
	return z.c0.setBytes(b[:32]) && z.c1.setBytes(b[32:64])
}

// putBytes writes c0 || c1, 64 bytes.
func (z *fe2) putBytes(b []byte) {
	z.c0.putBytes(b[:32])
	z.c1.putBytes(b[32:64])
}
