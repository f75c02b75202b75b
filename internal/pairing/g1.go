package pairing

import (
	"crypto/sha256"
	"encoding/binary"
	"io"
	"math/big"

	"thetacrypt/internal/mathutil"
)

// G1 is a point on E(Fp): y^2 = x^3 + 3, in Jacobian coordinates
// (x = X/Z^2, y = Y/Z^3); Z = 0 is the point at infinity. The group has
// prime order r (cofactor 1). The exported methods are functional and
// never mutate the receiver.
type G1 struct {
	x, y, z fe
}

// G1Identity returns the point at infinity.
func G1Identity() *G1 { return &G1{} }

// G1Generator returns the standard generator (1, 2).
func G1Generator() *G1 {
	g := &G1{x: feOne, z: feOne}
	g.y.dbl(&feOne)
	return g
}

// G1BaseMul returns k * G1Generator(), constant-time in k like Mul.
func G1BaseMul(k *big.Int) *G1 { return G1Generator().Mul(k) }

// RandomG1 returns (k, k*G) for a uniform scalar k.
func RandomG1(r io.Reader) (*big.Int, *G1, error) {
	k, err := mathutil.RandInt(r, Order())
	if err != nil {
		return nil, nil, err
	}
	return k, G1BaseMul(k), nil
}

// IsIdentity reports whether the point is at infinity.
func (p *G1) IsIdentity() bool { return p.z.isZero() == 1 }

// Add returns p + q.
func (p *G1) Add(q *G1) *G1 {
	out := new(G1)
	out.add(p, q)
	return out
}

// Double returns 2p.
func (p *G1) Double() *G1 {
	out := new(G1)
	out.double(p)
	return out
}

// Neg returns -p.
func (p *G1) Neg() *G1 {
	out := &G1{x: p.x, z: p.z}
	out.y.neg(&p.y)
	return out
}

// Mul returns k*p; k is reduced modulo r. From the 32 bytes of the reduced
// scalar on, the sequence of field operations and memory accesses does not
// depend on k: a signed radix-16 ladder whose table lookups scan every
// entry, over an addition without special cases. The reduction and
// serialisation before that are math/big's.
func (p *G1) Mul(k *big.Int) *G1 {
	kb := scalarBytes(k)
	out := new(G1)
	out.scalarMul(p, &kb)
	return out
}

// Equal reports whether two Jacobian representations denote the same
// affine point.
func (p *G1) Equal(q *G1) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	var z1z1, z2z2, a, b fe
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

// double sets z = 2p (dbl-2009-l, a = 0). Infinity doubles to infinity
// without a special case because Z3 = 2·Y·Z.
func (z *G1) double(p *G1) {
	var a, b, c, d, e, f, t fe
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

// add sets z = p + q and is complete without branching: the generic
// formulas (add-2007-bl) break down when an operand is at infinity or
// when p = q, so those three answers are computed as well and selected by
// mask. p = -q needs no care, the formulas give Z3 = 0.
func (z *G1) add(p, q *G1) {
	var z1z1, z2z2, u1, u2, s1, s2, h, i, j, r, v, t fe
	var sum, dbl G1
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
func (z *G1) sel(cond uint64, p, q *G1) {
	z.x.sel(cond, &p.x, &q.x)
	z.y.sel(cond, &p.y, &q.y)
	z.z.sel(cond, &p.z, &q.z)
}

// lookup sets z = digit·P from table[i] = (i+1)·P for a digit in [-8, 8],
// reading every entry.
func (z *G1) lookup(table *[8]G1, digit int8) {
	sign := uint64(uint8(digit) >> 7)
	abs := uint64((digit ^ -int8(sign)) + int8(sign))
	*z = G1{}
	for i := range table {
		d := abs ^ uint64(i+1)
		z.sel(((d|-d)>>63)^1, &table[i], z)
	}
	var negY fe
	negY.neg(&z.y)
	z.y.sel(sign, &negY, &z.y)
}

// scalarMul sets z = k·p for a big-endian scalar k below 2^255: 63 rounds
// of four doublings and one addition, whatever the digits are.
func (z *G1) scalarMul(p *G1, k *[32]byte) {
	var table [8]G1
	table[0] = *p
	for i := 1; i < 8; i++ {
		table[i].add(&table[i-1], p)
	}
	digits := recodeScalar(k)
	var acc, t G1
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

// affine returns the affine coordinates; ok is false at infinity.
func (p *G1) affine() (x, y fe, ok bool) {
	if p.IsIdentity() {
		return x, y, false
	}
	var zinv, zinv2 fe
	zinv.inv(&p.z)
	zinv2.square(&zinv)
	x.mul(&p.x, &zinv2)
	zinv2.mul(&zinv2, &zinv)
	y.mul(&p.y, &zinv2)
	return x, y, true
}

// Marshal returns a 65-byte encoding: 0x00-prefixed zeros for infinity or
// 0x04 || x || y.
func (p *G1) Marshal() []byte {
	out := make([]byte, 65)
	x, y, ok := p.affine()
	if !ok {
		return out
	}
	out[0] = 4
	x.putBytes(out[1:33])
	y.putBytes(out[33:])
	return out
}

// UnmarshalG1 decodes and validates a G1 encoding (on-curve check; the
// cofactor is 1 so no subgroup check is required). Variable-time.
func UnmarshalG1(data []byte) (*G1, bool) {
	if len(data) != 65 {
		return nil, false
	}
	if data[0] == 0 {
		for _, b := range data[1:] {
			if b != 0 {
				return nil, false
			}
		}
		return G1Identity(), true
	}
	if data[0] != 4 {
		return nil, false
	}
	p := &G1{z: feOne}
	if !p.x.setBytes(data[1:33]) || !p.y.setBytes(data[33:]) || !onCurveG1(&p.x, &p.y) {
		return nil, false
	}
	return p, true
}

// curveRHS sets z = x^3 + 3.
func curveRHS(z, x *fe) {
	var t fe
	t.square(x)
	t.mul(&t, x)
	z.add(&t, &feThree)
}

func onCurveG1(x, y *fe) bool {
	var lhs, rhs fe
	lhs.square(y)
	curveRHS(&rhs, x)
	return lhs.equal(&rhs) == 1
}

// HashToG1 maps domain-separated input onto G1 by try-and-increment,
// taking the even root. Variable-time: the input is public.
func HashToG1(domain string, data ...[]byte) *G1 {
	seed := hashSeed("thetacrypt/bn254g1/"+domain, data)
	p := &G1{z: feOne}
	var y2 fe
	for ctr := uint64(0); ; ctr++ {
		if !hashCandidate(&p.x, seed, ctr) {
			continue
		}
		curveRHS(&y2, &p.x)
		if !p.y.sqrt(&y2) {
			continue
		}
		if p.y.isOdd() == 1 {
			p.y.neg(&p.y)
		}
		return p
	}
}

func hashSeed(domain string, data [][]byte) []byte {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, d := range data {
		var lenbuf [8]byte
		binary.BigEndian.PutUint64(lenbuf[:], uint64(len(d)))
		h.Write(lenbuf[:])
		h.Write(d)
	}
	return h.Sum(nil)
}

// hashCandidate expands seed||ctr to a field element; it reports false
// when the digest falls outside [0, p).
func hashCandidate(z *fe, seed []byte, ctr uint64) bool {
	h := sha256.New()
	h.Write(seed)
	var cb [8]byte
	binary.BigEndian.PutUint64(cb[:], ctr)
	h.Write(cb[:])
	var digest [sha256.Size]byte
	return z.setBytes(h.Sum(digest[:0]))
}
