// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-go file next to this one.

package group

// Point arithmetic on -x^2 + y^2 = 1 + d*x^2*y^2 over GF(2^255-19),
// ported from the Go distribution's crypto/internal/fips140/edwards25519
// (edwards25519.go, scalarmult.go, tables.go and the two digit recodings
// of scalar.go). Scalars arrive as 32 little-endian bytes already reduced
// below the group order. Receivers and arguments may alias; nothing here
// allocates.

import (
	"crypto/subtle"
	"encoding/binary"
	"sync"
)

// edPoint is a curve point in extended coordinates (X:Y:Z:T) with
// x = X/Z, y = Y/Z and xy = T/Z (https://eprint.iacr.org/2008/522).
type edPoint struct {
	x, y, z, t fieldElement
}

// projP1xP1 is the "completed" output of an addition or doubling; projP2
// is the input of a doubling. Converting between them costs three or
// four multiplications, and skipping T where the next step is a
// doubling is what makes a run of doublings cheap.
type projP1xP1 struct {
	X, Y, Z, T fieldElement
}

type projP2 struct {
	X, Y, Z fieldElement
}

// projCached and affineCached hold a point as the addition formulas
// consume it; the affine form (Z = 1) saves one multiplication per add.
type projCached struct {
	YplusX, YminusX, Z, T2d fieldElement
}

type affineCached struct {
	YplusX, YminusX, T2d fieldElement
}

var (
	// edD is the curve constant d = -121665/121666.
	edD = new(fieldElement).setBytes(&[32]byte{
		0xa3, 0x78, 0x59, 0x13, 0xca, 0x4d, 0xeb, 0x75,
		0xab, 0xd8, 0x41, 0x41, 0x4d, 0x0a, 0x70, 0x00,
		0x98, 0xe8, 0x79, 0x77, 0x79, 0x40, 0xc7, 0x8c,
		0x73, 0xfe, 0x6f, 0x2b, 0xee, 0x6c, 0x03, 0x52})
	edD2 = new(fieldElement).add(edD, edD)

	edIdentity = edPoint{y: *feOne, z: *feOne}

	// edGenerator is the RFC 8032 base point, y = 4/5 with x even.
	edGenerator = func() edPoint {
		var p edPoint
		if !p.setBytes([]byte{
			0x58, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
			0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
			0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66,
			0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66, 0x66}) {
			panic("group: edwards25519 base point does not decode")
		}
		return p
	}()

	// edOrderBytes is the subgroup order
	// l = 2^252 + 27742317777372353535851937790883648493, little-endian.
	edOrderBytes = [32]byte{
		0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58,
		0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x10}
	edOrderNAF = nonAdjacentForm5(&edOrderBytes)
)

// Encoding.

// bytes returns the RFC 8032 §5.1.2 encoding: y little-endian with the
// sign of x in the top bit.
func (v *edPoint) bytes() [32]byte {
	var zInv, x, y fieldElement
	zInv.invert(&v.z)
	x.multiply(&v.x, &zInv)
	y.multiply(&v.y, &zInv)

	out := y.bytes()
	out[31] |= byte(x.isNegative() << 7)
	return out
}

// setBytes decodes an RFC 8032 §5.1.3 encoding strictly: it reports false
// (leaving v unspecified) for a wrong length, a y that is not reduced
// below p, a y with no x on the curve, and x = 0 with the sign bit set.
// It does not check subgroup membership. Variable-time: encodings are
// public.
func (v *edPoint) setBytes(data []byte) bool {
	if len(data) != 32 {
		return false
	}
	var buf [32]byte
	copy(buf[:], data)
	sign := int(buf[31] >> 7)
	buf[31] &= 0x7f

	var y fieldElement
	y.setBytes(&buf)
	if y.bytes() != buf {
		return false // y >= p
	}

	// x² = (y² - 1) / (dy² + 1)
	var y2, u, vv, x, xNeg fieldElement
	y2.square(&y)
	u.subtract(&y2, feOne)
	vv.multiply(&y2, edD)
	vv.add(&vv, feOne)
	if x.sqrtRatio(&u, &vv) == 0 {
		return false
	}
	if sign == 1 && x.isZero() == 1 {
		return false
	}
	x.selectFrom(xNeg.negate(&x), &x, sign)

	v.x = x
	v.y = y
	v.z.one()
	v.t.multiply(&x, &y)
	return true
}

// Conversions.

func (v *projP2) fromP1xP1(p *projP1xP1) *projP2 {
	v.X.multiply(&p.X, &p.T)
	v.Y.multiply(&p.Y, &p.Z)
	v.Z.multiply(&p.Z, &p.T)
	return v
}

func (v *projP2) fromP3(p *edPoint) *projP2 {
	v.X = p.x
	v.Y = p.y
	v.Z = p.z
	return v
}

func (v *edPoint) fromP1xP1(p *projP1xP1) *edPoint {
	v.x.multiply(&p.X, &p.T)
	v.y.multiply(&p.Y, &p.Z)
	v.z.multiply(&p.Z, &p.T)
	v.t.multiply(&p.X, &p.Y)
	return v
}

func (v *edPoint) fromP2(p *projP2) *edPoint {
	v.x.multiply(&p.X, &p.Z)
	v.y.multiply(&p.Y, &p.Z)
	v.z.square(&p.Z)
	v.t.multiply(&p.X, &p.Y)
	return v
}

func (v *projCached) fromP3(p *edPoint) *projCached {
	v.YplusX.add(&p.y, &p.x)
	v.YminusX.subtract(&p.y, &p.x)
	v.Z = p.z
	v.T2d.multiply(&p.t, edD2)
	return v
}

func (v *affineCached) fromP3(p *edPoint) *affineCached {
	v.YplusX.add(&p.y, &p.x)
	v.YminusX.subtract(&p.y, &p.x)
	v.T2d.multiply(&p.t, edD2)

	var invZ fieldElement
	invZ.invert(&p.z)
	v.YplusX.multiply(&v.YplusX, &invZ)
	v.YminusX.multiply(&v.YminusX, &invZ)
	v.T2d.multiply(&v.T2d, &invZ)
	return v
}

func (v *projCached) zero() *projCached {
	v.YplusX.one()
	v.YminusX.one()
	v.Z.one()
	v.T2d.zero()
	return v
}

func (v *affineCached) zero() *affineCached {
	v.YplusX.one()
	v.YminusX.one()
	v.T2d.zero()
	return v
}

// Addition, subtraction, doubling, negation.

// add sets v = p + q. The formulas are complete: they hold for every
// pair of curve points, equal, opposite or neutral.
func (v *edPoint) add(p, q *edPoint) *edPoint {
	var qCached projCached
	var result projP1xP1
	return v.fromP1xP1(result.add(p, qCached.fromP3(q)))
}

// double sets v = 2p.
func (v *edPoint) double(p *edPoint) *edPoint {
	var p2 projP2
	var result projP1xP1
	return v.fromP1xP1(result.double(p2.fromP3(p)))
}

// negate sets v = -p.
func (v *edPoint) negate(p *edPoint) *edPoint {
	v.x.negate(&p.x)
	v.y = p.y
	v.z = p.z
	v.t.negate(&p.t)
	return v
}

func (v *projP1xP1) add(p *edPoint, q *projCached) *projP1xP1 {
	var YplusX, YminusX, PP, MM, TT2d, ZZ2 fieldElement

	YplusX.add(&p.y, &p.x)
	YminusX.subtract(&p.y, &p.x)

	PP.multiply(&YplusX, &q.YplusX)
	MM.multiply(&YminusX, &q.YminusX)
	TT2d.multiply(&p.t, &q.T2d)
	ZZ2.multiply(&p.z, &q.Z)

	ZZ2.add(&ZZ2, &ZZ2)

	v.X.subtract(&PP, &MM)
	v.Y.add(&PP, &MM)
	v.Z.add(&ZZ2, &TT2d)
	v.T.subtract(&ZZ2, &TT2d)
	return v
}

func (v *projP1xP1) sub(p *edPoint, q *projCached) *projP1xP1 {
	var YplusX, YminusX, PP, MM, TT2d, ZZ2 fieldElement

	YplusX.add(&p.y, &p.x)
	YminusX.subtract(&p.y, &p.x)

	PP.multiply(&YplusX, &q.YminusX) // flipped sign
	MM.multiply(&YminusX, &q.YplusX) // flipped sign
	TT2d.multiply(&p.t, &q.T2d)
	ZZ2.multiply(&p.z, &q.Z)

	ZZ2.add(&ZZ2, &ZZ2)

	v.X.subtract(&PP, &MM)
	v.Y.add(&PP, &MM)
	v.Z.subtract(&ZZ2, &TT2d) // flipped sign
	v.T.add(&ZZ2, &TT2d)      // flipped sign
	return v
}

func (v *projP1xP1) addAffine(p *edPoint, q *affineCached) *projP1xP1 {
	var YplusX, YminusX, PP, MM, TT2d, Z2 fieldElement

	YplusX.add(&p.y, &p.x)
	YminusX.subtract(&p.y, &p.x)

	PP.multiply(&YplusX, &q.YplusX)
	MM.multiply(&YminusX, &q.YminusX)
	TT2d.multiply(&p.t, &q.T2d)

	Z2.add(&p.z, &p.z)

	v.X.subtract(&PP, &MM)
	v.Y.add(&PP, &MM)
	v.Z.add(&Z2, &TT2d)
	v.T.subtract(&Z2, &TT2d)
	return v
}

func (v *projP1xP1) double(p *projP2) *projP1xP1 {
	var XX, YY, ZZ2, XplusYsq fieldElement

	XX.square(&p.X)
	YY.square(&p.Y)
	ZZ2.square(&p.Z)
	ZZ2.add(&ZZ2, &ZZ2)
	XplusYsq.add(&p.X, &p.Y)
	XplusYsq.square(&XplusYsq)

	v.Y.add(&YY, &XX)
	v.Z.subtract(&YY, &XX)

	v.X.subtract(&XplusYsq, &v.Y)
	v.T.subtract(&ZZ2, &v.Z)
	return v
}

// Comparison.

// equal returns 1 if v and u are the same point, and 0 otherwise.
func (v *edPoint) equal(u *edPoint) int {
	var t1, t2, t3, t4 fieldElement
	t1.multiply(&v.x, &u.z)
	t2.multiply(&u.x, &v.z)
	t3.multiply(&v.y, &u.z)
	t4.multiply(&u.y, &v.z)
	return t1.equal(&t2) & t3.equal(&t4)
}

// isIdentity returns 1 if v is the neutral element (0, 1).
func (v *edPoint) isIdentity() int {
	return v.x.isZero() & v.y.equal(&v.z)
}

// Constant-time selection.

// selectFrom sets v to a if cond == 1 and to b if cond == 0.
func (v *projCached) selectFrom(a, b *projCached, cond int) *projCached {
	v.YplusX.selectFrom(&a.YplusX, &b.YplusX, cond)
	v.YminusX.selectFrom(&a.YminusX, &b.YminusX, cond)
	v.Z.selectFrom(&a.Z, &b.Z, cond)
	v.T2d.selectFrom(&a.T2d, &b.T2d, cond)
	return v
}

func (v *affineCached) selectFrom(a, b *affineCached, cond int) *affineCached {
	v.YplusX.selectFrom(&a.YplusX, &b.YplusX, cond)
	v.YminusX.selectFrom(&a.YminusX, &b.YminusX, cond)
	v.T2d.selectFrom(&a.T2d, &b.T2d, cond)
	return v
}

// condNeg negates v if cond == 1 and leaves it unchanged if cond == 0.
func (v *projCached) condNeg(cond int) *projCached {
	var neg fieldElement
	v.YplusX.swap(&v.YminusX, cond)
	v.T2d.selectFrom(neg.negate(&v.T2d), &v.T2d, cond)
	return v
}

func (v *affineCached) condNeg(cond int) *affineCached {
	var neg fieldElement
	v.YplusX.swap(&v.YminusX, cond)
	v.T2d.selectFrom(neg.negate(&v.T2d), &v.T2d, cond)
	return v
}

// Lookup tables.

// projLookupTable holds Q, 2Q, ..., 8Q for one variable-base
// constant-time multiplication.
type projLookupTable struct {
	points [8]projCached
}

// affineLookupTable is the same for a fixed base, built once.
type affineLookupTable struct {
	points [8]affineCached
}

// nafLookupTable5 holds the odd multiples Q, 3Q, ..., 15Q for the
// variable-time width-5 NAF walk.
type nafLookupTable5 struct {
	points [8]projCached
}

func (v *projLookupTable) fromP3(q *edPoint) {
	var tmpP3 edPoint
	var tmpP1xP1 projP1xP1
	v.points[0].fromP3(q)
	for i := 0; i < 7; i++ {
		// (i+2)Q = Q + (i+1)Q
		v.points[i+1].fromP3(tmpP3.fromP1xP1(tmpP1xP1.add(q, &v.points[i])))
	}
}

func (v *affineLookupTable) fromP3(q *edPoint) {
	var tmpP3 edPoint
	var tmpP1xP1 projP1xP1
	v.points[0].fromP3(q)
	for i := 0; i < 7; i++ {
		v.points[i+1].fromP3(tmpP3.fromP1xP1(tmpP1xP1.addAffine(q, &v.points[i])))
	}
}

func (v *nafLookupTable5) fromP3(q *edPoint) {
	var q2, tmpP3 edPoint
	var tmpP1xP1 projP1xP1
	v.points[0].fromP3(q)
	q2.double(q)
	for i := 0; i < 7; i++ {
		// (2i+3)Q = 2Q + (2i+1)Q
		v.points[i+1].fromP3(tmpP3.fromP1xP1(tmpP1xP1.add(&q2, &v.points[i])))
	}
}

// selectInto sets dest to x*Q for -8 <= x <= 8 in constant time: every
// one of the eight entries is read and masked in, whatever x is.
func (v *projLookupTable) selectInto(dest *projCached, x int8) {
	xmask := x >> 7 // all ones if x < 0
	xabs := uint8((x + xmask) ^ xmask)

	dest.zero()
	for j := 1; j <= 8; j++ {
		cond := subtle.ConstantTimeByteEq(xabs, uint8(j))
		dest.selectFrom(&v.points[j-1], dest, cond)
	}
	dest.condNeg(int(xmask & 1))
}

func (v *affineLookupTable) selectInto(dest *affineCached, x int8) {
	xmask := x >> 7
	xabs := uint8((x + xmask) ^ xmask)

	dest.zero()
	for j := 1; j <= 8; j++ {
		cond := subtle.ConstantTimeByteEq(xabs, uint8(j))
		dest.selectFrom(&v.points[j-1], dest, cond)
	}
	dest.condNeg(int(xmask & 1))
}

// Scalar recodings. A scalar is 32 little-endian bytes below 2^255.

// signedRadix16 writes s as Σ d[i]·16^i with every digit in [-8, 8]. The
// loop bounds and the arithmetic are the same for every s.
func signedRadix16(s *[32]byte) [64]int8 {
	if s[31] > 127 {
		panic("group: edwards25519 scalar has its high bit set")
	}
	var digits [64]int8
	for i := 0; i < 32; i++ {
		digits[2*i] = int8(s[i] & 15)
		digits[2*i+1] = int8((s[i] >> 4) & 15)
	}
	// Recenter from [0, 15] to [-8, 7], carrying upward; the top digit
	// takes the last carry and stays within [0, 8] because s < 2^255.
	for i := 0; i < 63; i++ {
		carry := (digits[i] + 8) >> 4
		digits[i] -= carry << 4
		digits[i+1] += carry
	}
	return digits
}

// nonAdjacentForm5 returns the width-5 NAF of s: Σ naf[i]·2^i with odd
// digits in [-15, 15] and at least four zeros after each non-zero one.
// Variable-time, for public scalars only. Adapted, through the Go
// distribution, from curve25519-dalek.
func nonAdjacentForm5(s *[32]byte) [256]int8 {
	if s[31] > 127 {
		panic("group: edwards25519 scalar has its high bit set")
	}
	const w = 5
	const width = uint64(1 << w)
	const windowMask = width - 1

	var naf [256]int8
	var digits [5]uint64
	for i := 0; i < 4; i++ {
		digits[i] = binary.LittleEndian.Uint64(s[i*8:])
	}

	pos := uint(0)
	carry := uint64(0)
	for pos < 256 {
		indexU64 := pos / 64
		indexBit := pos % 64
		var bitBuf uint64
		if indexBit < 64-w {
			// This window's bits are contained in a single word.
			bitBuf = digits[indexU64] >> indexBit
		} else {
			// Combine the current word with bits from the next.
			bitBuf = (digits[indexU64] >> indexBit) | (digits[1+indexU64] << (64 - indexBit))
		}

		window := carry + (bitBuf & windowMask)
		if window&1 == 0 {
			// Even window: no digit here, and the carry stands (if it is
			// 1 the bit below was 1, so the next window still owes it).
			pos++
			continue
		}
		if window < width/2 {
			carry = 0
			naf[pos] = int8(window)
		} else {
			carry = 1
			naf[pos] = int8(window) - int8(width)
		}
		pos += w
	}
	return naf
}

// Scalar multiplication.

// scalarMult sets v = s*q in constant time with respect to s.
//
// s is recoded to exactly 64 signed radix-16 digits; the loop below then
// runs the same 63 × (four doublings, one table selection, one addition)
// for every scalar. Table entries are chosen by projLookupTable.selectInto,
// which reads all eight and masks — there is no branch on a digit and no
// index derived from one, and a zero digit adds the neutral element
// through the same complete formula as any other.
func (v *edPoint) scalarMult(s *[32]byte, q *edPoint) *edPoint {
	var table projLookupTable
	table.fromP3(q)

	// s*Q = Q*d_0 + 16*(Q*d_1 + 16*( ... + Q*d_63) ... ), inside out.
	digits := signedRadix16(s)

	var multiple projCached
	var tmp1 projP1xP1
	var tmp2 projP2
	table.selectInto(&multiple, digits[63])

	*v = edIdentity
	tmp1.add(v, &multiple) // tmp1 = d_63*Q
	for i := 62; i >= 0; i-- {
		tmp2.fromP1xP1(&tmp1)
		tmp1.double(&tmp2) // 2*(prev)
		tmp2.fromP1xP1(&tmp1)
		tmp1.double(&tmp2) // 4*(prev)
		tmp2.fromP1xP1(&tmp1)
		tmp1.double(&tmp2) // 8*(prev)
		tmp2.fromP1xP1(&tmp1)
		tmp1.double(&tmp2) // 16*(prev)
		v.fromP1xP1(&tmp1)
		table.selectInto(&multiple, digits[i])
		tmp1.add(v, &multiple) // d_i*Q + 16*(prev)
	}
	return v.fromP1xP1(&tmp1)
}

// basepointTable holds, for i in [0, 32), the multiples 1..8 of 256^i·B.
// It is built the first time it is used (256 field inversions, ~3 ms).
var basepointTable = sync.OnceValue(func() *[32]affineLookupTable {
	table := new([32]affineLookupTable)
	p := edGenerator
	for i := range table {
		table[i].fromP3(&p)
		for j := 0; j < 8; j++ {
			p.double(&p)
		}
	}
	return table
})

// scalarBaseMult sets v = s*B for the base point B in constant time with
// respect to s.
//
// s is recoded to exactly 64 signed radix-16 digits and every digit costs
// one masked selection over all eight entries of its own precomputed
// table and one addition — 64 of each plus four doublings, for every
// scalar; there is no branch on a digit and no index derived from one.
func (v *edPoint) scalarBaseMult(s *[32]byte) *edPoint {
	table := basepointTable()

	// s*B = Σ d_2i·256^i·B + 16·Σ d_2i+1·256^i·B (the Ed25519 paper's
	// split): table i serves digits 2i and 2i+1.
	digits := signedRadix16(s)

	var multiple affineCached
	var tmp1 projP1xP1
	var tmp2 projP2

	// The odd digits first.
	*v = edIdentity
	for i := 1; i < 64; i += 2 {
		table[i/2].selectInto(&multiple, digits[i])
		tmp1.addAffine(v, &multiple)
		v.fromP1xP1(&tmp1)
	}

	// Multiply by 16.
	tmp2.fromP3(v)
	tmp1.double(&tmp2)
	tmp2.fromP1xP1(&tmp1)
	tmp1.double(&tmp2)
	tmp2.fromP1xP1(&tmp1)
	tmp1.double(&tmp2)
	tmp2.fromP1xP1(&tmp1)
	tmp1.double(&tmp2)
	v.fromP1xP1(&tmp1)

	// Then the even digits.
	for i := 0; i < 64; i += 2 {
		table[i/2].selectInto(&multiple, digits[i])
		tmp1.addAffine(v, &multiple)
		v.fromP1xP1(&tmp1)
	}
	return v
}

// varTimeNAFSum sets v = Σ nafs[j]·points[j], where tables[j] holds the
// odd multiples of points[j] and nafs[j] is a width-5 NAF: Straus's
// method, one doubling chain shared by every term, starting at the
// highest non-zero digit of any term and adding or subtracting a table
// entry wherever a digit is non-zero. Running time and memory access
// depend on the digits — public scalars only.
func (v *edPoint) varTimeNAFSum(nafs [][256]int8, tables []nafLookupTable5) *edPoint {
	top := 255
search:
	for ; top >= 0; top-- {
		for j := range nafs {
			if nafs[j][top] != 0 {
				break search
			}
		}
	}

	var tmp1 projP1xP1
	var tmp2 projP2
	tmp2.X.zero()
	tmp2.Y.one()
	tmp2.Z.one()

	for i := top; i >= 0; i-- {
		tmp1.double(&tmp2)
		for j := range nafs {
			if d := nafs[j][i]; d > 0 {
				v.fromP1xP1(&tmp1)
				tmp1.add(v, &tables[j].points[d/2])
			} else if d < 0 {
				v.fromP1xP1(&tmp1)
				tmp1.sub(v, &tables[j].points[-d/2])
			}
		}
		tmp2.fromP1xP1(&tmp1)
	}
	return v.fromP2(&tmp2)
}

// inPrimeOrderSubgroup reports whether l*p is the neutral element, l
// being the (public) subgroup order. Variable-time.
func (p *edPoint) inPrimeOrderSubgroup() bool {
	var table [1]nafLookupTable5
	table[0].fromP3(p)
	nafs := [1][256]int8{edOrderNAF}
	var lp edPoint
	return lp.varTimeNAFSum(nafs[:], table[:]).isIdentity() == 1
}
