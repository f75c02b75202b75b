package pairing

import (
	"io"
	"math/big"

	"thetacrypt/internal/mathutil"
)

// G2 is a point on the sextic twist E'(Fp2): y^2 = x^3 + 3/ξ, in Jacobian
// coordinates; Z = 0 is the point at infinity. Only the order-r subgroup
// is exposed: HashToG2 clears the cofactor 2p - r and UnmarshalG2 checks
// membership.
type G2 struct {
	x, y, z fe2
}

// G2Identity returns the point at infinity.
func G2Identity() *G2 { return &G2{} }

// G2Generator returns the standard order-r generator of the twist.
func G2Generator() *G2 { return &G2{x: g2GenX, y: g2GenY, z: fe2One} }

// G2BaseMul returns k * G2Generator(), constant-time in k like Mul.
func G2BaseMul(k *big.Int) *G2 { return G2Generator().Mul(k) }

// RandomG2 returns (k, k*G2) for a uniform scalar k.
func RandomG2(r io.Reader) (*big.Int, *G2, error) {
	k, err := mathutil.RandInt(r, Order())
	if err != nil {
		return nil, nil, err
	}
	return k, G2BaseMul(k), nil
}

// IsIdentity reports whether the point is at infinity.
func (p *G2) IsIdentity() bool { return p.z.isZero() == 1 }

// Add returns p + q.
func (p *G2) Add(q *G2) *G2 {
	out := new(G2)
	out.add(p, q)
	return out
}

// Double returns 2p.
func (p *G2) Double() *G2 {
	out := new(G2)
	out.double(p)
	return out
}

// Neg returns -p.
func (p *G2) Neg() *G2 {
	out := &G2{x: p.x, z: p.z}
	out.y.neg(&p.y)
	return out
}

// Mul returns k*p; k is reduced modulo r. Constant-time in k from the 32
// bytes of the reduced scalar on, exactly as G1.Mul is.
func (p *G2) Mul(k *big.Int) *G2 {
	kb := scalarBytes(k)
	out := new(G2)
	out.scalarMul(p, &kb)
	return out
}

// Equal reports whether two Jacobian representations denote the same
// affine point.
func (p *G2) Equal(q *G2) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	var z1z1, z2z2, a, b fe2
	z1z1.square(&p.z)
	z2z2.square(&q.z)
	a.mul(&p.x, &z2z2)
	b.mul(&q.x, &z1z1)
	if a.equal(&b) == 0 {
		return false
	}
	z1z1.mul(&z1z1, &p.z)
	z2z2.mul(&z2z2, &q.z)
	a.mul(&p.y, &z2z2)
	b.mul(&q.y, &z1z1)
	return a.equal(&b) == 1
}

// double sets z = 2p; see G1.double.
func (z *G2) double(p *G2) {
	var a, b, c, d, e, f, t fe2
	a.square(&p.x)
	b.square(&p.y)
	c.square(&b)
	d.add(&p.x, &b)
	d.square(&d)
	d.sub(&d, &a)
	d.sub(&d, &c)
	d.dbl(&d)
	e.dbl(&a)
	e.add(&e, &a)
	f.square(&e)
	z.z.mul(&p.y, &p.z)
	z.z.dbl(&z.z)
	z.x.dbl(&d)
	z.x.sub(&f, &z.x)
	t.sub(&d, &z.x)
	t.mul(&e, &t)
	c.dbl(&c)
	c.dbl(&c)
	c.dbl(&c)
	z.y.sub(&t, &c)
}

// add sets z = p + q, complete without branching; see G1.add. Here the
// operands may lie anywhere on the twist (the subgroup check multiplies
// points of other orders), which the masked cases cover as well.
func (z *G2) add(p, q *G2) {
	var z1z1, z2z2, u1, u2, s1, s2, h, i, j, r, v, t fe2
	var sum, dbl G2
	z1z1.square(&p.z)
	z2z2.square(&q.z)
	u1.mul(&p.x, &z2z2)
	u2.mul(&q.x, &z1z1)
	s1.mul(&p.y, &q.z)
	s1.mul(&s1, &z2z2)
	s2.mul(&q.y, &p.z)
	s2.mul(&s2, &z1z1)
	h.sub(&u2, &u1)
	r.sub(&s2, &s1)
	pInf, qInf := p.z.isZero(), q.z.isZero()
	same := h.isZero() & r.isZero() & (pInf ^ 1) & (qInf ^ 1)

	i.dbl(&h)
	i.square(&i)
	j.mul(&h, &i)
	r.dbl(&r)
	v.mul(&u1, &i)
	sum.x.square(&r)
	sum.x.sub(&sum.x, &j)
	sum.x.sub(&sum.x, &v)
	sum.x.sub(&sum.x, &v)
	t.sub(&v, &sum.x)
	sum.y.mul(&r, &t)
	t.mul(&s1, &j)
	t.dbl(&t)
	sum.y.sub(&sum.y, &t)
	sum.z.add(&p.z, &q.z)
	sum.z.square(&sum.z)
	sum.z.sub(&sum.z, &z1z1)
	sum.z.sub(&sum.z, &z2z2)
	sum.z.mul(&sum.z, &h)

	dbl.double(p)
	sum.sel(same, &dbl, &sum)
	sum.sel(qInf, p, &sum)
	sum.sel(pInf, q, &sum)
	*z = sum
}

// sel sets z = p if cond == 1 and z = q if cond == 0.
func (z *G2) sel(cond uint64, p, q *G2) {
	z.x.sel(cond, &p.x, &q.x)
	z.y.sel(cond, &p.y, &q.y)
	z.z.sel(cond, &p.z, &q.z)
}

// lookup sets z = digit·P from table[i] = (i+1)·P for a digit in [-8, 8],
// reading every entry.
func (z *G2) lookup(table *[8]G2, digit int8) {
	sign := uint64(uint8(digit) >> 7)
	abs := uint64((digit ^ -int8(sign)) + int8(sign))
	*z = G2{}
	for i := range table {
		d := abs ^ uint64(i+1)
		z.sel(((d|-d)>>63)^1, &table[i], z)
	}
	var negY fe2
	negY.neg(&z.y)
	z.y.sel(sign, &negY, &z.y)
}

// scalarMul sets z = k·p for a big-endian scalar k below 2^255, which
// need not be reduced modulo r: besides Mul it serves cofactor clearing
// and the subgroup check. See G1.scalarMul.
func (z *G2) scalarMul(p *G2, k *[32]byte) {
	var table [8]G2
	table[0] = *p
	for i := 1; i < 8; i++ {
		table[i].add(&table[i-1], p)
	}
	digits := recodeScalar(k)
	var acc, t G2
	acc.lookup(&table, digits[63])
	for i := 62; i >= 0; i-- {
		acc.double(&acc)
		acc.double(&acc)
		acc.double(&acc)
		acc.double(&acc)
		t.lookup(&table, digits[i])
		acc.add(&acc, &t)
	}
	*z = acc
}

// affine returns affine coordinates; ok is false at infinity.
func (p *G2) affine() (x, y fe2, ok bool) {
	if p.IsIdentity() {
		return x, y, false
	}
	var zinv, zinv2 fe2
	zinv.inv(&p.z)
	zinv2.square(&zinv)
	x.mul(&p.x, &zinv2)
	zinv2.mul(&zinv2, &zinv)
	y.mul(&p.y, &zinv2)
	return x, y, true
}

// Marshal returns a 129-byte encoding: zero-prefixed zeros for infinity
// or 0x04 || x.c0 || x.c1 || y.c0 || y.c1.
func (p *G2) Marshal() []byte {
	out := make([]byte, 129)
	x, y, ok := p.affine()
	if !ok {
		return out
	}
	out[0] = 4
	x.putBytes(out[1:65])
	y.putBytes(out[65:])
	return out
}

// UnmarshalG2 decodes an encoding, checking the curve equation and
// membership in the order-r subgroup. Variable-time.
func UnmarshalG2(data []byte) (*G2, bool) {
	if len(data) != 129 {
		return nil, false
	}
	if data[0] == 0 {
		for _, b := range data[1:] {
			if b != 0 {
				return nil, false
			}
		}
		return G2Identity(), true
	}
	if data[0] != 4 {
		return nil, false
	}
	p := &G2{z: fe2One}
	if !p.x.setBytes(data[1:65]) || !p.y.setBytes(data[65:]) || !onTwist(&p.x, &p.y) {
		return nil, false
	}
	// The ladder takes r unreduced; Mul would reduce it to 0 and make the
	// check vacuous.
	var rp G2
	rp.scalarMul(p, &orderBytes)
	if !rp.IsIdentity() {
		return nil, false
	}
	return p, true
}

// twistRHS sets z = x^3 + 3/ξ.
func twistRHS(z, x *fe2) {
	var t fe2
	t.square(x)
	t.mul(&t, x)
	z.add(&t, &twistB)
}

func onTwist(x, y *fe2) bool {
	var lhs, rhs fe2
	lhs.square(y)
	twistRHS(&rhs, x)
	return lhs.equal(&rhs) == 1
}

// HashToG2 maps domain-separated input onto the order-r subgroup of the
// twist by try-and-increment followed by cofactor clearing. Variable-time:
// the input is public.
func HashToG2(domain string, data ...[]byte) *G2 {
	seed := hashSeed("thetacrypt/bn254g2/"+domain, data)
	pt := G2{z: fe2One}
	var y2 fe2
	for ctr := uint64(0); ; ctr += 2 {
		ok0 := hashCandidate(&pt.x.c0, seed, ctr)
		ok1 := hashCandidate(&pt.x.c1, seed, ctr+1)
		if !ok0 || !ok1 {
			continue
		}
		twistRHS(&y2, &pt.x)
		if !pt.y.sqrt(&y2) {
			continue
		}
		cleared := new(G2)
		cleared.scalarMul(&pt, &cofactorBytes)
		if cleared.IsIdentity() {
			continue
		}
		return cleared
	}
}
