package pairing

import (
	"encoding/binary"
	"math/bits"
)

// fe is an element of Fp on four 64-bit limbs, least significant first,
// in Montgomery form: the limbs hold a·2^256 mod p, always fully reduced
// into [0, p). Operations write into their receiver, which may alias any
// operand; nothing allocates and nothing branches on or indexes by a limb
// value, except where a function says it is variable-time.
type fe [4]uint64

// The modulus p = 0x30644e72…d87cfd47, its Montgomery constants, and the
// fixed exponents the field needs. p < 2^254, so the top limb has two
// spare bits: a sum of two reduced elements never carries out of the
// fourth limb and the no-carry Montgomery product below applies.
const (
	p0 = 0x3c208c16d87cfd47
	p1 = 0x97816a916871ca8d
	p2 = 0xb85045b68181585d
	p3 = 0x30644e72e131a029

	// pInvNeg = -p^-1 mod 2^64.
	pInvNeg = 0x87d20782e4866389
)

var (
	// feOne is 1 in Montgomery form, 2^256 mod p.
	feOne = fe{0xd35d438dc58f0d9d, 0x0a78eb28f5c70b3d, 0x666ea36f7879462c, 0x0e0a77c19a07df2f}
	// feR2 is 2^512 mod p; multiplying by it converts into Montgomery form.
	feR2 = fe{0xf32cfc5b538afa89, 0xb5e71911d44501fb, 0x47ab1eff0a417ff6, 0x06d89f71cab8351f}
	// feHalf is 1/2.
	feHalf = fe{0x87bee7d24f060572, 0xd0fd2add2f1c6ae5, 0x8f5f7492fcfd4f44, 0x1f37631a3d9cbfac}

	// expPMinus2 inverts (Fermat); expPPlus1Over4 takes square roots,
	// p ≡ 3 (mod 4). Plain integers, not field elements.
	expPMinus2     = [4]uint64{0x3c208c16d87cfd45, 0x97816a916871ca8d, 0xb85045b68181585d, 0x30644e72e131a029}
	expPPlus1Over4 = [4]uint64{0x4f082305b61f3f52, 0x65e05aa45a1c72a3, 0x6e14116da0605617, 0x0c19139cb84c680a}
)

// isZero returns 1 if z is zero and 0 otherwise, without branching.
func (z *fe) isZero() uint64 {
	v := z[0] | z[1] | z[2] | z[3]
	return ((v | -v) >> 63) ^ 1
}

// equal returns 1 if z == x and 0 otherwise; reduced representations are
// unique, so limbs can be compared directly.
func (z *fe) equal(x *fe) uint64 {
	v := (z[0] ^ x[0]) | (z[1] ^ x[1]) | (z[2] ^ x[2]) | (z[3] ^ x[3])
	return ((v | -v) >> 63) ^ 1
}

// sel sets z = x if cond == 1 and z = y if cond == 0.
func (z *fe) sel(cond uint64, x, y *fe) {
	m := -cond
	z[0] = y[0] ^ (m & (x[0] ^ y[0]))
	z[1] = y[1] ^ (m & (x[1] ^ y[1]))
	z[2] = y[2] ^ (m & (x[2] ^ y[2]))
	z[3] = y[3] ^ (m & (x[3] ^ y[3]))
}

// reduce subtracts p once if z >= p; z must be below 2p.
func (z *fe) reduce() {
	t0, b := bits.Sub64(z[0], p0, 0)
	t1, b := bits.Sub64(z[1], p1, b)
	t2, b := bits.Sub64(z[2], p2, b)
	t3, b := bits.Sub64(z[3], p3, b)
	// A borrow means z < p: add p back.
	m := -b
	var c uint64
	z[0], c = bits.Add64(t0, m&p0, 0)
	z[1], c = bits.Add64(t1, m&p1, c)
	z[2], c = bits.Add64(t2, m&p2, c)
	z[3], _ = bits.Add64(t3, m&p3, c)
}

func (z *fe) add(x, y *fe) {
	var c uint64
	z[0], c = bits.Add64(x[0], y[0], 0)
	z[1], c = bits.Add64(x[1], y[1], c)
	z[2], c = bits.Add64(x[2], y[2], c)
	z[3], _ = bits.Add64(x[3], y[3], c)
	z.reduce()
}

func (z *fe) dbl(x *fe) { z.add(x, x) }

func (z *fe) sub(x, y *fe) {
	var b uint64
	z[0], b = bits.Sub64(x[0], y[0], 0)
	z[1], b = bits.Sub64(x[1], y[1], b)
	z[2], b = bits.Sub64(x[2], y[2], b)
	z[3], b = bits.Sub64(x[3], y[3], b)
	// Add p back when the subtraction borrowed.
	m := -b
	var c uint64
	z[0], c = bits.Add64(z[0], m&p0, 0)
	z[1], c = bits.Add64(z[1], m&p1, c)
	z[2], c = bits.Add64(z[2], m&p2, c)
	z[3], _ = bits.Add64(z[3], m&p3, c)
}

func (z *fe) neg(x *fe) {
	var zero fe
	z.sub(&zero, x)
}

// mul sets z = x·y, a Montgomery product. Each round adds the row
// x·y[i] to the four-word accumulator t, adds the multiple m·p that
// clears t's lowest word, and shifts down one word. With t < 2p going in,
// t + x·y[i] + m·p < 2^64·2p fits five words and the shifted result is
// again below 2p, so one conditional subtraction finishes the job. The
// high and low halves of a row are added in two carry chains.
func (z *fe) mul(x, y *fe) {
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	var t0, t1, t2, t3 uint64
	for i := 0; i < 4; i++ {
		yi := y[i]
		h0, l0 := bits.Mul64(x0, yi)
		h1, l1 := bits.Mul64(x1, yi)
		h2, l2 := bits.Mul64(x2, yi)
		h3, l3 := bits.Mul64(x3, yi)
		var c uint64
		t0, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4 := c
		t1, c = bits.Add64(t1, h0, 0)
		t2, c = bits.Add64(t2, h1, c)
		t3, c = bits.Add64(t3, h2, c)
		t4 += h3 + c

		m := t0 * pInvNeg
		h0, l0 = bits.Mul64(m, p0)
		h1, l1 = bits.Mul64(m, p1)
		h2, l2 = bits.Mul64(m, p2)
		h3, l3 = bits.Mul64(m, p3)
		_, c = bits.Add64(t0, l0, 0)
		t1, c = bits.Add64(t1, l1, c)
		t2, c = bits.Add64(t2, l2, c)
		t3, c = bits.Add64(t3, l3, c)
		t4 += c
		t0, c = bits.Add64(t1, h0, 0)
		t1, c = bits.Add64(t2, h1, c)
		t2, c = bits.Add64(t3, h2, c)
		t3 = t4 + h3 + c
	}
	z[0], z[1], z[2], z[3] = t0, t1, t2, t3
	z.reduce()
}

func (z *fe) square(x *fe) { z.mul(x, x) }

// exp sets z = x^e for a fixed public exponent e (four limbs, least
// significant first), by a left-to-right 4-bit window. The sequence of
// operations depends on e only, never on x.
func (z *fe) exp(x *fe, e *[4]uint64) {
	var table [16]fe
	table[0] = feOne
	table[1] = *x
	for i := 2; i < 16; i++ {
		table[i].mul(&table[i-1], x)
	}
	acc := feOne
	for i := 63; i >= 0; i-- {
		acc.square(&acc)
		acc.square(&acc)
		acc.square(&acc)
		acc.square(&acc)
		if d := (e[i/16] >> (4 * (uint(i) % 16))) & 15; d != 0 {
			acc.mul(&acc, &table[d])
		}
	}
	*z = acc
}

// inv sets z = 1/x by Fermat's little theorem; the inverse of 0 is 0.
func (z *fe) inv(x *fe) { z.exp(x, &expPMinus2) }

// sqrt sets z to the square root x^((p+1)/4) and reports whether x is a
// quadratic residue. Variable-time in that verdict.
func (z *fe) sqrt(x *fe) bool {
	var r, chk fe
	r.exp(x, &expPPlus1Over4)
	chk.square(&r)
	*z = r
	return chk.equal(x) == 1
}

// setBytes decodes 32 big-endian bytes and reports whether the value is
// below p. Variable-time in that verdict only.
func (z *fe) setBytes(b []byte) bool {
	z[3] = binary.BigEndian.Uint64(b[0:8])
	z[2] = binary.BigEndian.Uint64(b[8:16])
	z[1] = binary.BigEndian.Uint64(b[16:24])
	z[0] = binary.BigEndian.Uint64(b[24:32])
	_, b0 := bits.Sub64(z[0], p0, 0)
	_, b0 = bits.Sub64(z[1], p1, b0)
	_, b0 = bits.Sub64(z[2], p2, b0)
	_, b0 = bits.Sub64(z[3], p3, b0)
	if b0 == 0 {
		return false
	}
	z.mul(z, &feR2)
	return true
}

// canonical returns the plain (non-Montgomery) limbs of z.
func (z *fe) canonical() fe {
	var t fe
	t.mul(z, &fe{1})
	return t
}

// putBytes writes the canonical 32-byte big-endian encoding into b.
func (z *fe) putBytes(b []byte) {
	t := z.canonical()
	binary.BigEndian.PutUint64(b[0:8], t[3])
	binary.BigEndian.PutUint64(b[8:16], t[2])
	binary.BigEndian.PutUint64(b[16:24], t[1])
	binary.BigEndian.PutUint64(b[24:32], t[0])
}

// isOdd returns the low bit of the canonical value.
func (z *fe) isOdd() uint64 {
	t := z.canonical()
	return t[0] & 1
}
