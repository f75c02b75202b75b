// Copyright (c) 2017 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE-go file next to this one.

package group

// Arithmetic modulo 2^255-19 on five 51-bit limbs, ported from the Go
// distribution's crypto/internal/fips140/edwards25519/field (generic
// code path only, no assembly). Nothing here allocates and nothing
// branches on, or indexes by, the value of an element.

import (
	"crypto/subtle"
	"encoding/binary"
	"math/bits"
)

// fieldElement is an element of GF(2^255-19). An element t represents
//
//	t.l0 + t.l1*2^51 + t.l2*2^102 + t.l3*2^153 + t.l4*2^204
//
// and between operations every limb is below 2^52. Receivers and
// arguments may alias. The zero value is zero.
type fieldElement struct {
	l0, l1, l2, l3, l4 uint64
}

const maskLow51Bits uint64 = (1 << 51) - 1

var (
	feZero = &fieldElement{0, 0, 0, 0, 0}
	feOne  = &fieldElement{1, 0, 0, 0, 0}
	// feSqrtM1 is 2^((p-1)/4), a square root of -1.
	feSqrtM1 = &fieldElement{1718705420411056, 234908883556509,
		2233514472574048, 2117202627021982, 765476049583133}
)

func (v *fieldElement) zero() *fieldElement { *v = *feZero; return v }
func (v *fieldElement) one() *fieldElement  { *v = *feOne; return v }

// reduce brings v to its unique representative below 2^255-19.
func (v *fieldElement) reduce() *fieldElement {
	v.carryPropagate()

	// After the light reduction v < 2^255 + 2^13*19. If v >= 2^255-19
	// then v+19 >= 2^255 carries out of the top limb: c is 1 exactly then.
	c := (v.l0 + 19) >> 51
	c = (v.l1 + c) >> 51
	c = (v.l2 + c) >> 51
	c = (v.l3 + c) >> 51
	c = (v.l4 + c) >> 51

	// A no-op when c = 0; otherwise the reduction identity on the carry.
	v.l0 += 19 * c

	v.l1 += v.l0 >> 51
	v.l0 &= maskLow51Bits
	v.l2 += v.l1 >> 51
	v.l1 &= maskLow51Bits
	v.l3 += v.l2 >> 51
	v.l2 &= maskLow51Bits
	v.l4 += v.l3 >> 51
	v.l3 &= maskLow51Bits
	// no additional carry
	v.l4 &= maskLow51Bits

	return v
}

// add sets v = a + b.
func (v *fieldElement) add(a, b *fieldElement) *fieldElement {
	v.l0 = a.l0 + b.l0
	v.l1 = a.l1 + b.l1
	v.l2 = a.l2 + b.l2
	v.l3 = a.l3 + b.l3
	v.l4 = a.l4 + b.l4
	return v.carryPropagate()
}

// subtract sets v = a - b.
func (v *fieldElement) subtract(a, b *fieldElement) *fieldElement {
	// Add 2p first so the limb-wise subtraction cannot underflow; b can be
	// up to 2^255 + 2^13*19.
	v.l0 = (a.l0 + 0xFFFFFFFFFFFDA) - b.l0
	v.l1 = (a.l1 + 0xFFFFFFFFFFFFE) - b.l1
	v.l2 = (a.l2 + 0xFFFFFFFFFFFFE) - b.l2
	v.l3 = (a.l3 + 0xFFFFFFFFFFFFE) - b.l3
	v.l4 = (a.l4 + 0xFFFFFFFFFFFFE) - b.l4
	return v.carryPropagate()
}

// negate sets v = -a.
func (v *fieldElement) negate(a *fieldElement) *fieldElement {
	return v.subtract(feZero, a)
}

// invert sets v = 1/z mod p by raising z to p-2 with the Curve25519
// chain of 255 squarings and 11 multiplications. If z == 0, v = 0.
func (v *fieldElement) invert(z *fieldElement) *fieldElement {
	var z2, z9, z11, z2_5_0, z2_10_0, z2_20_0, z2_50_0, z2_100_0, t fieldElement

	z2.square(z)             // 2
	t.square(&z2)            // 4
	t.square(&t)             // 8
	z9.multiply(&t, z)       // 9
	z11.multiply(&z9, &z2)   // 11
	t.square(&z11)           // 22
	z2_5_0.multiply(&t, &z9) // 31 = 2^5 - 2^0

	t.square(&z2_5_0) // 2^6 - 2^1
	for i := 0; i < 4; i++ {
		t.square(&t) // 2^10 - 2^5
	}
	z2_10_0.multiply(&t, &z2_5_0) // 2^10 - 2^0

	t.square(&z2_10_0) // 2^11 - 2^1
	for i := 0; i < 9; i++ {
		t.square(&t) // 2^20 - 2^10
	}
	z2_20_0.multiply(&t, &z2_10_0) // 2^20 - 2^0

	t.square(&z2_20_0) // 2^21 - 2^1
	for i := 0; i < 19; i++ {
		t.square(&t) // 2^40 - 2^20
	}
	t.multiply(&t, &z2_20_0) // 2^40 - 2^0

	t.square(&t) // 2^41 - 2^1
	for i := 0; i < 9; i++ {
		t.square(&t) // 2^50 - 2^10
	}
	z2_50_0.multiply(&t, &z2_10_0) // 2^50 - 2^0

	t.square(&z2_50_0) // 2^51 - 2^1
	for i := 0; i < 49; i++ {
		t.square(&t) // 2^100 - 2^50
	}
	z2_100_0.multiply(&t, &z2_50_0) // 2^100 - 2^0

	t.square(&z2_100_0) // 2^101 - 2^1
	for i := 0; i < 99; i++ {
		t.square(&t) // 2^200 - 2^100
	}
	t.multiply(&t, &z2_100_0) // 2^200 - 2^0

	t.square(&t) // 2^201 - 2^1
	for i := 0; i < 49; i++ {
		t.square(&t) // 2^250 - 2^50
	}
	t.multiply(&t, &z2_50_0) // 2^250 - 2^0

	t.square(&t) // 2^251 - 2^1
	t.square(&t) // 2^252 - 2^2
	t.square(&t) // 2^253 - 2^3
	t.square(&t) // 2^254 - 2^4
	t.square(&t) // 2^255 - 2^5

	return v.multiply(&t, &z11) // 2^255 - 21
}

// setBytes sets v to the little-endian value of x with bit 255 ignored.
// Values 2^255-19 through 2^255-1 are accepted here and wrap; callers
// that need a canonical encoding compare bytes() against their input.
func (v *fieldElement) setBytes(x *[32]byte) *fieldElement {
	// Bits 0:51 (bytes 0:8, bits 0:64, shift 0, mask 51).
	v.l0 = binary.LittleEndian.Uint64(x[0:8]) & maskLow51Bits
	// Bits 51:102 (bytes 6:14, bits 48:112, shift 3, mask 51).
	v.l1 = binary.LittleEndian.Uint64(x[6:14]) >> 3 & maskLow51Bits
	// Bits 102:153 (bytes 12:20, bits 96:160, shift 6, mask 51).
	v.l2 = binary.LittleEndian.Uint64(x[12:20]) >> 6 & maskLow51Bits
	// Bits 153:204 (bytes 19:27, bits 152:216, shift 1, mask 51).
	v.l3 = binary.LittleEndian.Uint64(x[19:27]) >> 1 & maskLow51Bits
	// Bits 204:255 (bytes 24:32, bits 192:256, shift 12, mask 51).
	v.l4 = binary.LittleEndian.Uint64(x[24:32]) >> 12 & maskLow51Bits
	return v
}

// bytes returns the canonical 32-byte little-endian encoding of v.
func (v *fieldElement) bytes() [32]byte {
	t := *v
	t.reduce()

	var out [32]byte
	var buf [8]byte
	for i, l := range [5]uint64{t.l0, t.l1, t.l2, t.l3, t.l4} {
		bitsOffset := i * 51
		binary.LittleEndian.PutUint64(buf[:], l<<uint(bitsOffset%8))
		for j, bb := range buf {
			off := bitsOffset/8 + j
			if off >= len(out) {
				break
			}
			out[off] |= bb
		}
	}
	return out
}

// equal returns 1 if v and u are equal, and 0 otherwise.
func (v *fieldElement) equal(u *fieldElement) int {
	sa, sv := u.bytes(), v.bytes()
	return subtle.ConstantTimeCompare(sa[:], sv[:])
}

// isZero returns 1 if v is zero, and 0 otherwise.
func (v *fieldElement) isZero() int { return v.equal(feZero) }

// mask64Bits returns all ones if cond is 1, and 0 if cond is 0.
func mask64Bits(cond int) uint64 { return ^(uint64(cond) - 1) }

// selectFrom sets v to a if cond == 1, and to b if cond == 0.
func (v *fieldElement) selectFrom(a, b *fieldElement, cond int) *fieldElement {
	m := mask64Bits(cond)
	v.l0 = (m & a.l0) | (^m & b.l0)
	v.l1 = (m & a.l1) | (^m & b.l1)
	v.l2 = (m & a.l2) | (^m & b.l2)
	v.l3 = (m & a.l3) | (^m & b.l3)
	v.l4 = (m & a.l4) | (^m & b.l4)
	return v
}

// swap exchanges v and u if cond == 1 and leaves them if cond == 0.
func (v *fieldElement) swap(u *fieldElement, cond int) {
	m := mask64Bits(cond)
	t := m & (v.l0 ^ u.l0)
	v.l0 ^= t
	u.l0 ^= t
	t = m & (v.l1 ^ u.l1)
	v.l1 ^= t
	u.l1 ^= t
	t = m & (v.l2 ^ u.l2)
	v.l2 ^= t
	u.l2 ^= t
	t = m & (v.l3 ^ u.l3)
	v.l3 ^= t
	u.l3 ^= t
	t = m & (v.l4 ^ u.l4)
	v.l4 ^= t
	u.l4 ^= t
}

// isNegative returns 1 if the canonical v is odd, and 0 otherwise.
func (v *fieldElement) isNegative() int {
	b := v.bytes()
	return int(b[0] & 1)
}

// absolute sets v to |u|.
func (v *fieldElement) absolute(u *fieldElement) *fieldElement {
	var neg fieldElement
	return v.selectFrom(neg.negate(u), u, u.isNegative())
}

// pow22523 sets v = x^((p-5)/8) = x^(2^252-3).
func (v *fieldElement) pow22523(x *fieldElement) *fieldElement {
	var t0, t1, t2 fieldElement

	t0.square(x)             // x^2
	t1.square(&t0)           // x^4
	t1.square(&t1)           // x^8
	t1.multiply(x, &t1)      // x^9
	t0.multiply(&t0, &t1)    // x^11
	t0.square(&t0)           // x^22
	t0.multiply(&t1, &t0)    // x^31
	t1.square(&t0)           // x^62
	for i := 1; i < 5; i++ { // x^992
		t1.square(&t1)
	}
	t0.multiply(&t1, &t0)     // x^1023 -> 1023 = 2^10 - 1
	t1.square(&t0)            // 2^11 - 2
	for i := 1; i < 10; i++ { // 2^20 - 2^10
		t1.square(&t1)
	}
	t1.multiply(&t1, &t0)     // 2^20 - 1
	t2.square(&t1)            // 2^21 - 2
	for i := 1; i < 20; i++ { // 2^40 - 2^20
		t2.square(&t2)
	}
	t1.multiply(&t2, &t1)     // 2^40 - 1
	t1.square(&t1)            // 2^41 - 2
	for i := 1; i < 10; i++ { // 2^50 - 2^10
		t1.square(&t1)
	}
	t0.multiply(&t1, &t0)     // 2^50 - 1
	t1.square(&t0)            // 2^51 - 2
	for i := 1; i < 50; i++ { // 2^100 - 2^50
		t1.square(&t1)
	}
	t1.multiply(&t1, &t0)      // 2^100 - 1
	t2.square(&t1)             // 2^101 - 2
	for i := 1; i < 100; i++ { // 2^200 - 2^100
		t2.square(&t2)
	}
	t1.multiply(&t2, &t1)     // 2^200 - 1
	t1.square(&t1)            // 2^201 - 2
	for i := 1; i < 50; i++ { // 2^250 - 2^50
		t1.square(&t1)
	}
	t0.multiply(&t1, &t0)     // 2^250 - 1
	t0.square(&t0)            // 2^251 - 2
	t0.square(&t0)            // 2^252 - 4
	return v.multiply(&t0, x) // 2^252 - 3 -> x^(2^252-3)
}

// sqrtRatio sets r to the non-negative square root of u/v and returns 1
// if u/v is a square; otherwise it returns 0 (and r is the square root
// of sqrt(-1)*u/v, which the callers here discard).
func (r *fieldElement) sqrtRatio(u, v *fieldElement) (wasSquare int) {
	var t0, v2, uv3, uv7, rr, check, uNeg, rPrime fieldElement

	// r = (u * v^3) * (u * v^7)^((p-5)/8)
	v2.square(v)
	uv3.multiply(u, t0.multiply(&v2, v))
	uv7.multiply(&uv3, t0.square(&v2))
	rr.multiply(&uv3, t0.pow22523(&uv7))

	check.multiply(v, t0.square(&rr)) // check = v * r^2

	uNeg.negate(u)
	correctSignSqrt := check.equal(u)
	flippedSignSqrt := check.equal(&uNeg)
	flippedSignSqrtI := check.equal(t0.multiply(&uNeg, feSqrtM1))

	rPrime.multiply(&rr, feSqrtM1) // r_prime = SQRT_M1 * r
	rr.selectFrom(&rPrime, &rr, flippedSignSqrt|flippedSignSqrtI)

	r.absolute(&rr) // choose the non-negative square root
	return correctSignSqrt | flippedSignSqrt
}

// uint128 holds a 128-bit number as two 64-bit limbs, for use with the
// bits.Mul64 and bits.Add64 intrinsics.
type uint128 struct {
	lo, hi uint64
}

// mul64 returns a * b.
func mul64(a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	return uint128{lo, hi}
}

// addMul64 returns v + a * b.
func addMul64(v uint128, a, b uint64) uint128 {
	hi, lo := bits.Mul64(a, b)
	lo, c := bits.Add64(lo, v.lo, 0)
	hi, _ = bits.Add64(hi, v.hi, c)
	return uint128{lo, hi}
}

// shiftRightBy51 returns a >> 51. a is assumed to be at most 115 bits.
func shiftRightBy51(a uint128) uint64 {
	return (a.hi << (64 - 51)) | (a.lo >> 51)
}

// multiply sets v = a * b.
func (v *fieldElement) multiply(a, b *fieldElement) *fieldElement {
	a0, a1, a2, a3, a4 := a.l0, a.l1, a.l2, a.l3, a.l4
	b0, b1, b2, b3, b4 := b.l0, b.l1, b.l2, b.l3, b.l4

	// Schoolbook multiplication on 51-bit limbs, with the reduction
	// identity (a*2^255 + b = a*19 + b) applied while the columns are
	// summed: a product that belongs to limb 5+i is multiplied by 19 and
	// added to limb i instead.
	//
	//            a4b0    a3b0    a2b0    a1b0    a0b0  +
	//            a3b1    a2b1    a1b1    a0b1 19×a4b1  +
	//            a2b2    a1b2    a0b2 19×a4b2 19×a3b2  +
	//            a1b3    a0b3 19×a4b3 19×a3b3 19×a2b3  +
	//            a0b4 19×a4b4 19×a3b4 19×a2b4 19×a1b4  =
	//           --------------------------------------
	//              r4      r3      r2      r1      r0

	a1_19 := a1 * 19
	a2_19 := a2 * 19
	a3_19 := a3 * 19
	a4_19 := a4 * 19

	// r0 = a0×b0 + 19×(a1×b4 + a2×b3 + a3×b2 + a4×b1)
	r0 := mul64(a0, b0)
	r0 = addMul64(r0, a1_19, b4)
	r0 = addMul64(r0, a2_19, b3)
	r0 = addMul64(r0, a3_19, b2)
	r0 = addMul64(r0, a4_19, b1)

	// r1 = a0×b1 + a1×b0 + 19×(a2×b4 + a3×b3 + a4×b2)
	r1 := mul64(a0, b1)
	r1 = addMul64(r1, a1, b0)
	r1 = addMul64(r1, a2_19, b4)
	r1 = addMul64(r1, a3_19, b3)
	r1 = addMul64(r1, a4_19, b2)

	// r2 = a0×b2 + a1×b1 + a2×b0 + 19×(a3×b4 + a4×b3)
	r2 := mul64(a0, b2)
	r2 = addMul64(r2, a1, b1)
	r2 = addMul64(r2, a2, b0)
	r2 = addMul64(r2, a3_19, b4)
	r2 = addMul64(r2, a4_19, b3)

	// r3 = a0×b3 + a1×b2 + a2×b1 + a3×b0 + 19×a4×b4
	r3 := mul64(a0, b3)
	r3 = addMul64(r3, a1, b2)
	r3 = addMul64(r3, a2, b1)
	r3 = addMul64(r3, a3, b0)
	r3 = addMul64(r3, a4_19, b4)

	// r4 = a0×b4 + a1×b3 + a2×b2 + a3×b1 + a4×b0
	r4 := mul64(a0, b4)
	r4 = addMul64(r4, a1, b3)
	r4 = addMul64(r4, a2, b2)
	r4 = addMul64(r4, a3, b1)
	r4 = addMul64(r4, a4, b0)

	// With limbs below 2^52, r0 < (1 + 19×4) × 2^104 < 2^111, so every
	// carry is below 2^60 and fits a uint64; r4 < 5 × 2^104 < 2^107, so
	// c4×19 is below 2^61.
	c0 := shiftRightBy51(r0)
	c1 := shiftRightBy51(r1)
	c2 := shiftRightBy51(r2)
	c3 := shiftRightBy51(r3)
	c4 := shiftRightBy51(r4)

	rr0 := r0.lo&maskLow51Bits + c4*19
	rr1 := r1.lo&maskLow51Bits + c0
	rr2 := r2.lo&maskLow51Bits + c1
	rr3 := r3.lo&maskLow51Bits + c2
	rr4 := r4.lo&maskLow51Bits + c3

	// One last carry chain brings the limbs back below 2^52.
	*v = fieldElement{rr0, rr1, rr2, rr3, rr4}
	return v.carryPropagate()
}

// square sets v = a * a.
func (v *fieldElement) square(a *fieldElement) *fieldElement {
	l0, l1, l2, l3, l4 := a.l0, a.l1, a.l2, a.l3, a.l4

	// As multiply, with the symmetric terms grouped: precomputed 2×, 19×
	// and 2×19× factors leave three Mul64 per limb instead of five.
	//
	//            l4l0    l3l0    l2l0    l1l0    l0l0  +
	//            l3l1    l2l1    l1l1    l0l1 19×l4l1  +
	//            l2l2    l1l2    l0l2 19×l4l2 19×l3l2  +
	//            l1l3    l0l3 19×l4l3 19×l3l3 19×l2l3  +
	//            l0l4 19×l4l4 19×l3l4 19×l2l4 19×l1l4  =
	//           --------------------------------------
	//              r4      r3      r2      r1      r0

	l0_2 := l0 * 2
	l1_2 := l1 * 2

	l1_38 := l1 * 38
	l2_38 := l2 * 38
	l3_38 := l3 * 38

	l3_19 := l3 * 19
	l4_19 := l4 * 19

	// r0 = l0×l0 + 19×2×(l1×l4 + l2×l3)
	r0 := mul64(l0, l0)
	r0 = addMul64(r0, l1_38, l4)
	r0 = addMul64(r0, l2_38, l3)

	// r1 = 2×l0×l1 + 19×2×l2×l4 + 19×l3×l3
	r1 := mul64(l0_2, l1)
	r1 = addMul64(r1, l2_38, l4)
	r1 = addMul64(r1, l3_19, l3)

	// r2 = 2×l0×l2 + l1×l1 + 19×2×l3×l4
	r2 := mul64(l0_2, l2)
	r2 = addMul64(r2, l1, l1)
	r2 = addMul64(r2, l3_38, l4)

	// r3 = 2×l0×l3 + 2×l1×l2 + 19×l4×l4
	r3 := mul64(l0_2, l3)
	r3 = addMul64(r3, l1_2, l2)
	r3 = addMul64(r3, l4_19, l4)

	// r4 = 2×l0×l4 + 2×l1×l3 + l2×l2
	r4 := mul64(l0_2, l4)
	r4 = addMul64(r4, l1_2, l3)
	r4 = addMul64(r4, l2, l2)

	c0 := shiftRightBy51(r0)
	c1 := shiftRightBy51(r1)
	c2 := shiftRightBy51(r2)
	c3 := shiftRightBy51(r3)
	c4 := shiftRightBy51(r4)

	rr0 := r0.lo&maskLow51Bits + c4*19
	rr1 := r1.lo&maskLow51Bits + c0
	rr2 := r2.lo&maskLow51Bits + c1
	rr3 := r3.lo&maskLow51Bits + c2
	rr4 := r4.lo&maskLow51Bits + c3

	*v = fieldElement{rr0, rr1, rr2, rr3, rr4}
	return v.carryPropagate()
}

// carryPropagate brings the limbs below 2^52 by applying the reduction
// identity (a*2^255 + b = a*19 + b) to the l4 carry.
func (v *fieldElement) carryPropagate() *fieldElement {
	c0 := v.l0 >> 51
	c1 := v.l1 >> 51
	c2 := v.l2 >> 51
	c3 := v.l3 >> 51
	c4 := v.l4 >> 51

	// c4 is at most 64-51 = 13 bits, so c4*19 is at most 18 bits and the
	// final l0 at most 52 bits; likewise for the rest.
	v.l0 = v.l0&maskLow51Bits + c4*19
	v.l1 = v.l1&maskLow51Bits + c0
	v.l2 = v.l2&maskLow51Bits + c1
	v.l3 = v.l3&maskLow51Bits + c2
	v.l4 = v.l4&maskLow51Bits + c3

	return v
}
