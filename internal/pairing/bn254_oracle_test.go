package pairing

// The math/big BN254 implementation that the 64-bit-limb code replaced,
// kept test-only as the differential oracle: the extension tower, G1, G2,
// hashing, the affine optimal ate pairing with one inversion per Miller
// step, and the reduced Tate pairing as a second, independent Miller loop.
// The code is the parent commit's (9e35158) with its types and functions
// renamed; it is slow, allocates a big.Int per field operation and
// branches on scalar bits, none of which matters to a test.

import (
	"crypto/sha256"
	"math/big"

	"thetacrypt/internal/mathutil"
)

// oracleNAF returns the non-adjacent form of a non-negative integer as
// digits in {-1, 0, 1}, least-significant first. It moved here from
// internal/mathutil, where the old Miller loop was its only caller.
func oracleNAF(k *big.Int) []int8 {
	if k.Sign() < 0 {
		return nil
	}
	n := new(big.Int).Set(k)
	var digits []int8
	four := big.NewInt(4)
	for n.Sign() > 0 {
		if n.Bit(0) == 1 {
			mod4 := new(big.Int).Mod(n, four).Int64()
			var d int8
			if mod4 == 1 {
				d = 1
			} else {
				d = -1
			}
			digits = append(digits, d)
			n.Sub(n, big.NewInt(int64(d)))
		} else {
			digits = append(digits, 0)
		}
		n.Rsh(n, 1)
	}
	return digits
}

// ---- params.go at 9e35158 ----
// oracleParams collects the BN254 curve constants. The values are the
// standard alt_bn128 parameters (as used by Ethereum's precompiles).
type oracleParams struct {
	// p is the base field prime, p = 36u^4 + 36u^3 + 24u^2 + 6u + 1.
	p *big.Int
	// r is the prime group order, r = 36u^4 + 36u^3 + 18u^2 + 6u + 1.
	r *big.Int
	// u is the BN generation parameter.
	u *big.Int
	// b is the oracleG1 curve coefficient: y^2 = x^3 + 3.
	b *big.Int
	// g2Cofactor is #E'(Fp2)/r = 2p - r.
	g2Cofactor *big.Int
	// pPlus1Over4 is the exponent for square roots in Fp (p ≡ 3 mod 4).
	pPlus1Over4 *big.Int
	// xiToPMinus1Over6 powers are the Frobenius twist constants
	// γ_j = ξ^(j(p-1)/6) for j = 1..5, with ξ = 9 + i.
	frobGamma [6]oracleFp2 // index 1..5 used
	// twistB is the twist coefficient b' = 3/ξ for E': y^2 = x^3 + b'.
	twistB oracleFp2
	// g2Gen is the standard oracleG2 generator on the twist.
	g2GenX, g2GenY oracleFp2
}

var oracleBN = newOracleParams()

func newOracleParams() *oracleParams {
	p, _ := new(big.Int).SetString("21888242871839275222246405745257275088696311157297823662689037894645226208583", 10)
	r, _ := new(big.Int).SetString("21888242871839275222246405745257275088548364400416034343698204186575808495617", 10)
	u, _ := new(big.Int).SetString("4965661367192848881", 10)

	params := &oracleParams{
		p: p,
		r: r,
		u: u,
		b: big.NewInt(3),
	}
	params.g2Cofactor = new(big.Int).Sub(new(big.Int).Lsh(p, 1), r)
	params.pPlus1Over4 = new(big.Int).Rsh(new(big.Int).Add(p, big.NewInt(1)), 2)

	// ξ = 9 + i is the sextic non-residue defining the tower.
	xi := oracleFp2{c0: big.NewInt(9), c1: big.NewInt(1)}

	// twistB = 3 / ξ.
	params.twistB = xi.inv(params).mulScalar(big.NewInt(3), params)

	// Frobenius constants γ_j = ξ^(j(p-1)/6).
	e := new(big.Int).Sub(p, big.NewInt(1))
	e.Div(e, big.NewInt(6))
	gamma1 := xi.exp(e, params)
	params.frobGamma[1] = gamma1
	for j := 2; j <= 5; j++ {
		params.frobGamma[j] = params.frobGamma[j-1].mul(gamma1, params)
	}

	// Standard alt_bn128 oracleG2 generator.
	x0, _ := new(big.Int).SetString("10857046999023057135944570762232829481370756359578518086990519993285655852781", 10)
	x1, _ := new(big.Int).SetString("11559732032986387107991004021392285783925812861821192530917403151452391805634", 10)
	y0, _ := new(big.Int).SetString("8495653923123431417604973247489272438418190587263600148770280649306958101930", 10)
	y1, _ := new(big.Int).SetString("4082367875863433681332203403145435568316851327593401208105741076214120093531", 10)
	params.g2GenX = oracleFp2{c0: x0, c1: x1}
	params.g2GenY = oracleFp2{c0: y0, c1: y1}

	return params
}

// ---- fp2.go at 9e35158 ----
// oracleFp2 is an element of Fp2 = Fp[i]/(i^2 + 1), represented as c0 + c1*i.
// All operations are functional: they return fresh values and never
// mutate their operands.
type oracleFp2 struct {
	c0, c1 *big.Int
}

func oracleFp2Zero() oracleFp2 { return oracleFp2{c0: big.NewInt(0), c1: big.NewInt(0)} }
func oracleFp2One() oracleFp2  { return oracleFp2{c0: big.NewInt(1), c1: big.NewInt(0)} }

func (a oracleFp2) isZero() bool { return a.c0.Sign() == 0 && a.c1.Sign() == 0 }

func (a oracleFp2) equal(b oracleFp2) bool {
	return a.c0.Cmp(b.c0) == 0 && a.c1.Cmp(b.c1) == 0
}

func (a oracleFp2) clone() oracleFp2 {
	return oracleFp2{c0: mathutil.Clone(a.c0), c1: mathutil.Clone(a.c1)}
}

func (a oracleFp2) add(b oracleFp2, pp *oracleParams) oracleFp2 {
	return oracleFp2{
		c0: mathutil.AddMod(a.c0, b.c0, pp.p),
		c1: mathutil.AddMod(a.c1, b.c1, pp.p),
	}
}

func (a oracleFp2) sub(b oracleFp2, pp *oracleParams) oracleFp2 {
	return oracleFp2{
		c0: mathutil.SubMod(a.c0, b.c0, pp.p),
		c1: mathutil.SubMod(a.c1, b.c1, pp.p),
	}
}

func (a oracleFp2) neg(pp *oracleParams) oracleFp2 {
	return oracleFp2{
		c0: mathutil.SubMod(big.NewInt(0), a.c0, pp.p),
		c1: mathutil.SubMod(big.NewInt(0), a.c1, pp.p),
	}
}

func (a oracleFp2) dbl(pp *oracleParams) oracleFp2 { return a.add(a, pp) }

// mul computes (a0 + a1 i)(b0 + b1 i) = (a0b0 - a1b1) + (a0b1 + a1b0) i.
func (a oracleFp2) mul(b oracleFp2, pp *oracleParams) oracleFp2 {
	t0 := new(big.Int).Mul(a.c0, b.c0)
	t1 := new(big.Int).Mul(a.c1, b.c1)
	t2 := new(big.Int).Mul(a.c0, b.c1)
	t3 := new(big.Int).Mul(a.c1, b.c0)
	return oracleFp2{
		c0: new(big.Int).Mod(t0.Sub(t0, t1), pp.p),
		c1: new(big.Int).Mod(t2.Add(t2, t3), pp.p),
	}
}

// square computes (a0 + a1 i)^2 = (a0+a1)(a0-a1) + 2 a0 a1 i.
func (a oracleFp2) square(pp *oracleParams) oracleFp2 {
	s := new(big.Int).Add(a.c0, a.c1)
	d := new(big.Int).Sub(a.c0, a.c1)
	m := new(big.Int).Mul(a.c0, a.c1)
	return oracleFp2{
		c0: new(big.Int).Mod(s.Mul(s, d), pp.p),
		c1: new(big.Int).Mod(m.Lsh(m, 1), pp.p),
	}
}

// mulScalar multiplies both coefficients by an Fp scalar.
func (a oracleFp2) mulScalar(k *big.Int, pp *oracleParams) oracleFp2 {
	return oracleFp2{
		c0: mathutil.MulMod(a.c0, k, pp.p),
		c1: mathutil.MulMod(a.c1, k, pp.p),
	}
}

// conj returns the Fp2 conjugate c0 - c1*i, which equals a^p.
func (a oracleFp2) conj(pp *oracleParams) oracleFp2 {
	return oracleFp2{
		c0: mathutil.Clone(a.c0),
		c1: mathutil.SubMod(big.NewInt(0), a.c1, pp.p),
	}
}

// mulByXi multiplies by the sextic non-residue ξ = 9 + i:
// (9 a0 - a1) + (9 a1 + a0) i.
func (a oracleFp2) mulByXi(pp *oracleParams) oracleFp2 {
	nine := big.NewInt(9)
	t0 := new(big.Int).Mul(a.c0, nine)
	t0.Sub(t0, a.c1)
	t1 := new(big.Int).Mul(a.c1, nine)
	t1.Add(t1, a.c0)
	return oracleFp2{
		c0: new(big.Int).Mod(t0, pp.p),
		c1: new(big.Int).Mod(t1, pp.p),
	}
}

// inv returns 1/a = conj(a) / (a0^2 + a1^2).
func (a oracleFp2) inv(pp *oracleParams) oracleFp2 {
	norm := new(big.Int).Mul(a.c0, a.c0)
	norm.Add(norm, new(big.Int).Mul(a.c1, a.c1))
	norm.Mod(norm, pp.p)
	ninv := new(big.Int).ModInverse(norm, pp.p)
	if ninv == nil {
		// Only the zero element is non-invertible in a field.
		return oracleFp2Zero()
	}
	return oracleFp2{
		c0: mathutil.MulMod(a.c0, ninv, pp.p),
		c1: mathutil.MulMod(mathutil.SubMod(big.NewInt(0), a.c1, pp.p), ninv, pp.p),
	}
}

// exp computes a^e by square-and-multiply.
func (a oracleFp2) exp(e *big.Int, pp *oracleParams) oracleFp2 {
	acc := oracleFp2One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc = acc.square(pp)
		if e.Bit(i) == 1 {
			acc = acc.mul(a, pp)
		}
	}
	return acc
}

// sqrt computes a square root in Fp2 if one exists, using the norm-based
// method for p ≡ 3 (mod 4). The result is verified by squaring.
func (a oracleFp2) sqrt(pp *oracleParams) (oracleFp2, bool) {
	if a.isZero() {
		return oracleFp2Zero(), true
	}
	if a.c1.Sign() == 0 {
		// a is in Fp: either sqrt(a0) in Fp or i*sqrt(-a0).
		if root, ok := mathutil.Sqrt3Mod4(a.c0, pp.p); ok {
			return oracleFp2{c0: root, c1: big.NewInt(0)}, true
		}
		negA := mathutil.SubMod(big.NewInt(0), a.c0, pp.p)
		if root, ok := mathutil.Sqrt3Mod4(negA, pp.p); ok {
			return oracleFp2{c0: big.NewInt(0), c1: root}, true
		}
		return oracleFp2Zero(), false
	}
	// norm = a0^2 + a1^2 must be a square in Fp.
	norm := mathutil.AddMod(
		mathutil.MulMod(a.c0, a.c0, pp.p),
		mathutil.MulMod(a.c1, a.c1, pp.p), pp.p)
	s, ok := mathutil.Sqrt3Mod4(norm, pp.p)
	if !ok {
		return oracleFp2Zero(), false
	}
	twoInv := new(big.Int).ModInverse(big.NewInt(2), pp.p)
	for _, sign := range []int{1, -1} {
		var delta *big.Int
		if sign == 1 {
			delta = mathutil.AddMod(a.c0, s, pp.p)
		} else {
			delta = mathutil.SubMod(a.c0, s, pp.p)
		}
		delta = mathutil.MulMod(delta, twoInv, pp.p)
		x0, ok := mathutil.Sqrt3Mod4(delta, pp.p)
		if !ok {
			continue
		}
		if x0.Sign() == 0 {
			continue
		}
		x1 := mathutil.MulMod(a.c1, twoInv, pp.p)
		x0inv := new(big.Int).ModInverse(x0, pp.p)
		x1 = mathutil.MulMod(x1, x0inv, pp.p)
		cand := oracleFp2{c0: x0, c1: x1}
		if cand.square(pp).equal(oracleFp2{c0: mathutil.Mod(a.c0, pp.p), c1: mathutil.Mod(a.c1, pp.p)}) {
			return cand, true
		}
	}
	return oracleFp2Zero(), false
}

// bytes returns the fixed 64-byte big-endian encoding c0 || c1.
func (a oracleFp2) bytes() []byte {
	out := make([]byte, 64)
	a.c0.FillBytes(out[:32])
	a.c1.FillBytes(out[32:])
	return out
}

func oracleFp2FromBytes(data []byte, pp *oracleParams) (oracleFp2, bool) {
	if len(data) != 64 {
		return oracleFp2{}, false
	}
	c0 := new(big.Int).SetBytes(data[:32])
	c1 := new(big.Int).SetBytes(data[32:])
	if c0.Cmp(pp.p) >= 0 || c1.Cmp(pp.p) >= 0 {
		return oracleFp2{}, false
	}
	return oracleFp2{c0: c0, c1: c1}, true
}

// ---- fp6.go at 9e35158 ----
// oracleFp6 is an element of Fp6 = Fp2[v]/(v^3 - ξ), represented as
// c0 + c1*v + c2*v^2.
type oracleFp6 struct {
	c0, c1, c2 oracleFp2
}

func oracleFp6Zero() oracleFp6 {
	return oracleFp6{c0: oracleFp2Zero(), c1: oracleFp2Zero(), c2: oracleFp2Zero()}
}
func oracleFp6One() oracleFp6 {
	return oracleFp6{c0: oracleFp2One(), c1: oracleFp2Zero(), c2: oracleFp2Zero()}
}

func (a oracleFp6) isZero() bool { return a.c0.isZero() && a.c1.isZero() && a.c2.isZero() }

func (a oracleFp6) equal(b oracleFp6) bool {
	return a.c0.equal(b.c0) && a.c1.equal(b.c1) && a.c2.equal(b.c2)
}

func (a oracleFp6) add(b oracleFp6, pp *oracleParams) oracleFp6 {
	return oracleFp6{c0: a.c0.add(b.c0, pp), c1: a.c1.add(b.c1, pp), c2: a.c2.add(b.c2, pp)}
}

func (a oracleFp6) sub(b oracleFp6, pp *oracleParams) oracleFp6 {
	return oracleFp6{c0: a.c0.sub(b.c0, pp), c1: a.c1.sub(b.c1, pp), c2: a.c2.sub(b.c2, pp)}
}

func (a oracleFp6) neg(pp *oracleParams) oracleFp6 {
	return oracleFp6{c0: a.c0.neg(pp), c1: a.c1.neg(pp), c2: a.c2.neg(pp)}
}

// mul uses the Karatsuba-style interpolation for cubic extensions.
func (a oracleFp6) mul(b oracleFp6, pp *oracleParams) oracleFp6 {
	t0 := a.c0.mul(b.c0, pp)
	t1 := a.c1.mul(b.c1, pp)
	t2 := a.c2.mul(b.c2, pp)

	// c0 = t0 + ξ((a1+a2)(b1+b2) - t1 - t2)
	s12 := a.c1.add(a.c2, pp).mul(b.c1.add(b.c2, pp), pp).sub(t1, pp).sub(t2, pp)
	c0 := t0.add(s12.mulByXi(pp), pp)

	// c1 = (a0+a1)(b0+b1) - t0 - t1 + ξ t2
	s01 := a.c0.add(a.c1, pp).mul(b.c0.add(b.c1, pp), pp).sub(t0, pp).sub(t1, pp)
	c1 := s01.add(t2.mulByXi(pp), pp)

	// c2 = (a0+a2)(b0+b2) - t0 - t2 + t1
	s02 := a.c0.add(a.c2, pp).mul(b.c0.add(b.c2, pp), pp).sub(t0, pp).sub(t2, pp)
	c2 := s02.add(t1, pp)

	return oracleFp6{c0: c0, c1: c1, c2: c2}
}

func (a oracleFp6) square(pp *oracleParams) oracleFp6 { return a.mul(a, pp) }

// mulByV multiplies by v: (c0 + c1 v + c2 v^2) * v = ξ c2 + c0 v + c1 v^2.
func (a oracleFp6) mulByV(pp *oracleParams) oracleFp6 {
	return oracleFp6{c0: a.c2.mulByXi(pp), c1: a.c0.clone(), c2: a.c1.clone()}
}

// inv computes the inverse using the standard norm-based method for cubic
// extensions.
func (a oracleFp6) inv(pp *oracleParams) oracleFp6 {
	// A = c0^2 - ξ c1 c2
	A := a.c0.square(pp).sub(a.c1.mul(a.c2, pp).mulByXi(pp), pp)
	// B = ξ c2^2 - c0 c1
	B := a.c2.square(pp).mulByXi(pp).sub(a.c0.mul(a.c1, pp), pp)
	// C = c1^2 - c0 c2
	C := a.c1.square(pp).sub(a.c0.mul(a.c2, pp), pp)
	// F = c0 A + ξ(c2 B + c1 C)
	F := a.c2.mul(B, pp).add(a.c1.mul(C, pp), pp).mulByXi(pp).add(a.c0.mul(A, pp), pp)
	Finv := F.inv(pp)
	return oracleFp6{c0: A.mul(Finv, pp), c1: B.mul(Finv, pp), c2: C.mul(Finv, pp)}
}

// frobenius applies the p-power Frobenius endomorphism:
// (c0 + c1 v + c2 v^2)^p = conj(c0) + conj(c1) γ2 v + conj(c2) γ4 v^2.
func (a oracleFp6) frobenius(pp *oracleParams) oracleFp6 {
	return oracleFp6{
		c0: a.c0.conj(pp),
		c1: a.c1.conj(pp).mul(pp.frobGamma[2], pp),
		c2: a.c2.conj(pp).mul(pp.frobGamma[4], pp),
	}
}

func (a oracleFp6) clone() oracleFp6 {
	return oracleFp6{c0: a.c0.clone(), c1: a.c1.clone(), c2: a.c2.clone()}
}

// ---- fp12.go at 9e35158 ----
// oracleFp12 is an element of Fp12 = Fp6[w]/(w^2 - v), represented as c0 + c1*w.
// The pairing target group oracleGT is the order-r subgroup of Fp12*.
type oracleFp12 struct {
	c0, c1 oracleFp6
}

func oracleFp12One() oracleFp12 { return oracleFp12{c0: oracleFp6One(), c1: oracleFp6Zero()} }

func (a oracleFp12) isOne() bool { return a.c0.equal(oracleFp6One()) && a.c1.isZero() }

func (a oracleFp12) equal(b oracleFp12) bool { return a.c0.equal(b.c0) && a.c1.equal(b.c1) }

func (a oracleFp12) mul(b oracleFp12, pp *oracleParams) oracleFp12 {
	t0 := a.c0.mul(b.c0, pp)
	t1 := a.c1.mul(b.c1, pp)
	// c0 = t0 + v*t1 ; c1 = (a0+a1)(b0+b1) - t0 - t1
	c0 := t0.add(t1.mulByV(pp), pp)
	c1 := a.c0.add(a.c1, pp).mul(b.c0.add(b.c1, pp), pp).sub(t0, pp).sub(t1, pp)
	return oracleFp12{c0: c0, c1: c1}
}

func (a oracleFp12) square(pp *oracleParams) oracleFp12 {
	// Complex squaring: c0' = (c0 + c1)(c0 + v c1) - t - v t ; c1' = 2t
	// with t = c0 c1.
	t := a.c0.mul(a.c1, pp)
	s := a.c0.add(a.c1, pp).mul(a.c0.add(a.c1.mulByV(pp), pp), pp)
	c0 := s.sub(t, pp).sub(t.mulByV(pp), pp)
	c1 := t.add(t, pp)
	return oracleFp12{c0: c0, c1: c1}
}

// conjugate maps c0 + c1 w to c0 - c1 w, which equals a^(p^6). For
// elements of the cyclotomic subgroup (all pairing values after the easy
// part) the conjugate is the inverse.
func (a oracleFp12) conjugate(pp *oracleParams) oracleFp12 {
	return oracleFp12{c0: a.c0.clone(), c1: a.c1.neg(pp)}
}

func (a oracleFp12) inv(pp *oracleParams) oracleFp12 {
	// 1/(c0 + c1 w) = (c0 - c1 w) / (c0^2 - v c1^2)
	t := a.c0.square(pp).sub(a.c1.square(pp).mulByV(pp), pp)
	tinv := t.inv(pp)
	return oracleFp12{c0: a.c0.mul(tinv, pp), c1: a.c1.neg(pp).mul(tinv, pp)}
}

func (a oracleFp12) exp(e *big.Int, pp *oracleParams) oracleFp12 {
	acc := oracleFp12One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		acc = acc.square(pp)
		if e.Bit(i) == 1 {
			acc = acc.mul(a, pp)
		}
	}
	return acc
}

// frobenius applies the p-power Frobenius: with w^p = γ1 w,
// (g + h w)^p = g^p + h^p γ1 w, where g^p, h^p use the Fp6 Frobenius
// except that h's coefficients pick up odd γ constants:
// h = h0 + h1 v + h2 v^2 maps to conj(h0) γ1 + conj(h1) γ3 v + conj(h2) γ5 v^2.
func (a oracleFp12) frobenius(pp *oracleParams) oracleFp12 {
	g := a.c0.frobenius(pp)
	h := oracleFp6{
		c0: a.c1.c0.conj(pp).mul(pp.frobGamma[1], pp),
		c1: a.c1.c1.conj(pp).mul(pp.frobGamma[3], pp),
		c2: a.c1.c2.conj(pp).mul(pp.frobGamma[5], pp),
	}
	return oracleFp12{c0: g, c1: h}
}

func (a oracleFp12) frobeniusP2(pp *oracleParams) oracleFp12 {
	return a.frobenius(pp).frobenius(pp)
}

// bytes returns the canonical 384-byte encoding (12 field elements,
// big-endian, tower order c0.c0.c0, c0.c0.c1, ..., c1.c2.c1).
func (a oracleFp12) bytes() []byte {
	out := make([]byte, 0, 384)
	for _, six := range []oracleFp6{a.c0, a.c1} {
		for _, two := range []oracleFp2{six.c0, six.c1, six.c2} {
			out = append(out, two.bytes()...)
		}
	}
	return out
}

// ---- g1.go at 9e35158 ----
// oracleG1 is a point on E(Fp): y^2 = x^3 + 3, in Jacobian coordinates
// (x = X/Z^2, y = Y/Z^3). The group has prime order r (cofactor 1).
// Operations are functional and never mutate the receiver.
type oracleG1 struct {
	x, y, z *big.Int
}

// oracleG1Identity returns the point at infinity.
func oracleG1Identity() *oracleG1 {
	return &oracleG1{x: big.NewInt(1), y: big.NewInt(1), z: big.NewInt(0)}
}

// IsIdentity reports whether the point is at infinity.
func (p *oracleG1) IsIdentity() bool { return p.z.Sign() == 0 }

// Add returns p + q.
func (p *oracleG1) Add(q *oracleG1) *oracleG1 {
	if p.IsIdentity() {
		return q.clone()
	}
	if q.IsIdentity() {
		return p.clone()
	}
	fp := oracleBN.p
	z1z1 := mathutil.MulMod(p.z, p.z, fp)
	z2z2 := mathutil.MulMod(q.z, q.z, fp)
	u1 := mathutil.MulMod(p.x, z2z2, fp)
	u2 := mathutil.MulMod(q.x, z1z1, fp)
	s1 := mathutil.MulMod(mathutil.MulMod(p.y, q.z, fp), z2z2, fp)
	s2 := mathutil.MulMod(mathutil.MulMod(q.y, p.z, fp), z1z1, fp)
	h := mathutil.SubMod(u2, u1, fp)
	rr := mathutil.SubMod(s2, s1, fp)
	if h.Sign() == 0 {
		if rr.Sign() == 0 {
			return p.Double()
		}
		return oracleG1Identity()
	}
	i := mathutil.MulMod(new(big.Int).Lsh(h, 1), new(big.Int).Lsh(h, 1), fp)
	j := mathutil.MulMod(h, i, fp)
	rr = mathutil.AddMod(rr, rr, fp)
	v := mathutil.MulMod(u1, i, fp)
	x3 := mathutil.SubMod(mathutil.SubMod(mathutil.MulMod(rr, rr, fp), j, fp), new(big.Int).Lsh(v, 1), fp)
	y3 := mathutil.SubMod(
		mathutil.MulMod(rr, mathutil.SubMod(v, x3, fp), fp),
		mathutil.MulMod(new(big.Int).Lsh(s1, 1), j, fp), fp)
	zs := mathutil.AddMod(p.z, q.z, fp)
	z3 := mathutil.MulMod(
		mathutil.SubMod(mathutil.SubMod(mathutil.MulMod(zs, zs, fp), z1z1, fp), z2z2, fp), h, fp)
	return &oracleG1{x: x3, y: y3, z: z3}
}

// Double returns 2p using the a = 0 doubling formulas.
func (p *oracleG1) Double() *oracleG1 {
	if p.IsIdentity() {
		return oracleG1Identity()
	}
	fp := oracleBN.p
	a := mathutil.MulMod(p.x, p.x, fp)
	b := mathutil.MulMod(p.y, p.y, fp)
	c := mathutil.MulMod(b, b, fp)
	xb := mathutil.AddMod(p.x, b, fp)
	d := mathutil.SubMod(mathutil.SubMod(mathutil.MulMod(xb, xb, fp), a, fp), c, fp)
	d = mathutil.AddMod(d, d, fp)
	e := mathutil.AddMod(mathutil.AddMod(a, a, fp), a, fp)
	f := mathutil.MulMod(e, e, fp)
	x3 := mathutil.SubMod(f, new(big.Int).Lsh(d, 1), fp)
	c8 := new(big.Int).Lsh(c, 3)
	y3 := mathutil.SubMod(mathutil.MulMod(e, mathutil.SubMod(d, x3, fp), fp), c8, fp)
	z3 := mathutil.MulMod(new(big.Int).Lsh(p.y, 1), p.z, fp)
	return &oracleG1{x: x3, y: y3, z: z3}
}

// Neg returns -p.
func (p *oracleG1) Neg() *oracleG1 {
	if p.IsIdentity() {
		return oracleG1Identity()
	}
	return &oracleG1{
		x: mathutil.Clone(p.x),
		y: mathutil.SubMod(big.NewInt(0), p.y, oracleBN.p),
		z: mathutil.Clone(p.z),
	}
}

// Mul returns k*p; k is reduced modulo r.
func (p *oracleG1) Mul(k *big.Int) *oracleG1 {
	kk := new(big.Int).Mod(k, oracleBN.r)
	acc := oracleG1Identity()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc = acc.Double()
		if kk.Bit(i) == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

// Equal reports whether two Jacobian representations denote the same
// affine point.
func (p *oracleG1) Equal(q *oracleG1) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	fp := oracleBN.p
	z1z1 := mathutil.MulMod(p.z, p.z, fp)
	z2z2 := mathutil.MulMod(q.z, q.z, fp)
	if mathutil.MulMod(p.x, z2z2, fp).Cmp(mathutil.MulMod(q.x, z1z1, fp)) != 0 {
		return false
	}
	z1c := mathutil.MulMod(z1z1, p.z, fp)
	z2c := mathutil.MulMod(z2z2, q.z, fp)
	return mathutil.MulMod(p.y, z2c, fp).Cmp(mathutil.MulMod(q.y, z1c, fp)) == 0
}

// affine returns the affine coordinates; ok is false at infinity.
func (p *oracleG1) affine() (x, y *big.Int, ok bool) {
	if p.IsIdentity() {
		return nil, nil, false
	}
	fp := oracleBN.p
	zinv := new(big.Int).ModInverse(p.z, fp)
	zinv2 := mathutil.MulMod(zinv, zinv, fp)
	x = mathutil.MulMod(p.x, zinv2, fp)
	y = mathutil.MulMod(p.y, mathutil.MulMod(zinv2, zinv, fp), fp)
	return x, y, true
}

func (p *oracleG1) clone() *oracleG1 {
	return &oracleG1{x: mathutil.Clone(p.x), y: mathutil.Clone(p.y), z: mathutil.Clone(p.z)}
}

// Marshal returns a 65-byte encoding: 0x00-prefixed zeros for infinity or
// 0x04 || x || y.
func (p *oracleG1) Marshal() []byte {
	out := make([]byte, 65)
	x, y, ok := p.affine()
	if !ok {
		return out
	}
	out[0] = 4
	x.FillBytes(out[1:33])
	y.FillBytes(out[33:])
	return out
}

// oracleUnmarshalG1 decodes and validates a oracleG1 encoding (on-curve check; the
// cofactor is 1 so no subgroup check is required).
func oracleUnmarshalG1(data []byte) (*oracleG1, bool) {
	if len(data) != 65 {
		return nil, false
	}
	if data[0] == 0 {
		for _, b := range data[1:] {
			if b != 0 {
				return nil, false
			}
		}
		return oracleG1Identity(), true
	}
	if data[0] != 4 {
		return nil, false
	}
	x := new(big.Int).SetBytes(data[1:33])
	y := new(big.Int).SetBytes(data[33:])
	if x.Cmp(oracleBN.p) >= 0 || y.Cmp(oracleBN.p) >= 0 {
		return nil, false
	}
	if !oracleOnCurveG1(x, y) {
		return nil, false
	}
	return &oracleG1{x: x, y: y, z: big.NewInt(1)}, true
}

func oracleOnCurveG1(x, y *big.Int) bool {
	fp := oracleBN.p
	lhs := mathutil.MulMod(y, y, fp)
	rhs := mathutil.AddMod(mathutil.MulMod(mathutil.MulMod(x, x, fp), x, fp), oracleBN.b, fp)
	return lhs.Cmp(rhs) == 0
}

// oracleHashToG1 maps domain-separated input onto oracleG1 by try-and-increment.
func oracleHashToG1(domain string, data ...[]byte) *oracleG1 {
	seed := oracleHashSeed("thetacrypt/bn254g1/"+domain, data)
	for ctr := uint64(0); ; ctr++ {
		x := oracleHashCandidate(seed, ctr, oracleBN.p)
		if x == nil {
			continue
		}
		y2 := mathutil.AddMod(mathutil.MulMod(mathutil.MulMod(x, x, oracleBN.p), x, oracleBN.p), oracleBN.b, oracleBN.p)
		y, ok := mathutil.Sqrt3Mod4(y2, oracleBN.p)
		if !ok {
			continue
		}
		if y.Bit(0) == 1 {
			y = mathutil.SubMod(big.NewInt(0), y, oracleBN.p)
		}
		return &oracleG1{x: x, y: y, z: big.NewInt(1)}
	}
}

func oracleHashSeed(domain string, data [][]byte) []byte {
	h := sha256.New()
	h.Write([]byte(domain))
	for _, d := range data {
		var lenbuf [8]byte
		for i := 7; i >= 0; i-- {
			lenbuf[i] = byte(len(d) >> (8 * (7 - i)))
		}
		h.Write(lenbuf[:])
		h.Write(d)
	}
	return h.Sum(nil)
}

// oracleHashCandidate expands seed||ctr to a field element, or nil when the
// digest falls outside [0, mod).
func oracleHashCandidate(seed []byte, ctr uint64, mod *big.Int) *big.Int {
	h := sha256.New()
	h.Write(seed)
	var cb [8]byte
	for i := 7; i >= 0; i-- {
		cb[i] = byte(ctr >> (8 * (7 - i)))
	}
	h.Write(cb[:])
	x := new(big.Int).SetBytes(h.Sum(nil))
	if x.Cmp(mod) >= 0 {
		return nil
	}
	return x
}

// ---- g2.go at 9e35158 ----
// oracleG2 is a point on the sextic twist E'(Fp2): y^2 = x^3 + 3/ξ, in Jacobian
// coordinates. Only the order-r subgroup is exposed: constructors and
// oracleUnmarshalG2 clear or check the cofactor 2p - r.
type oracleG2 struct {
	x, y, z oracleFp2
}

// oracleG2Identity returns the point at infinity.
func oracleG2Identity() *oracleG2 {
	return &oracleG2{x: oracleFp2One(), y: oracleFp2One(), z: oracleFp2Zero()}
}

// oracleG2Generator returns the standard order-r generator of the twist.
func oracleG2Generator() *oracleG2 {
	return &oracleG2{x: oracleBN.g2GenX.clone(), y: oracleBN.g2GenY.clone(), z: oracleFp2One()}
}

// IsIdentity reports whether the point is at infinity.
func (p *oracleG2) IsIdentity() bool { return p.z.isZero() }

// Add returns p + q.
func (p *oracleG2) Add(q *oracleG2) *oracleG2 {
	if p.IsIdentity() {
		return q.clone()
	}
	if q.IsIdentity() {
		return p.clone()
	}
	pp := oracleBN
	z1z1 := p.z.square(pp)
	z2z2 := q.z.square(pp)
	u1 := p.x.mul(z2z2, pp)
	u2 := q.x.mul(z1z1, pp)
	s1 := p.y.mul(q.z, pp).mul(z2z2, pp)
	s2 := q.y.mul(p.z, pp).mul(z1z1, pp)
	h := u2.sub(u1, pp)
	rr := s2.sub(s1, pp)
	if h.isZero() {
		if rr.isZero() {
			return p.Double()
		}
		return oracleG2Identity()
	}
	i := h.dbl(pp).square(pp)
	j := h.mul(i, pp)
	rr = rr.dbl(pp)
	v := u1.mul(i, pp)
	x3 := rr.square(pp).sub(j, pp).sub(v.dbl(pp), pp)
	y3 := rr.mul(v.sub(x3, pp), pp).sub(s1.dbl(pp).mul(j, pp), pp)
	z3 := p.z.add(q.z, pp).square(pp).sub(z1z1, pp).sub(z2z2, pp).mul(h, pp)
	return &oracleG2{x: x3, y: y3, z: z3}
}

// Double returns 2p.
func (p *oracleG2) Double() *oracleG2 {
	if p.IsIdentity() {
		return oracleG2Identity()
	}
	pp := oracleBN
	a := p.x.square(pp)
	b := p.y.square(pp)
	c := b.square(pp)
	d := p.x.add(b, pp).square(pp).sub(a, pp).sub(c, pp).dbl(pp)
	e := a.dbl(pp).add(a, pp)
	f := e.square(pp)
	x3 := f.sub(d.dbl(pp), pp)
	y3 := e.mul(d.sub(x3, pp), pp).sub(c.dbl(pp).dbl(pp).dbl(pp), pp)
	z3 := p.y.dbl(pp).mul(p.z, pp)
	return &oracleG2{x: x3, y: y3, z: z3}
}

// Neg returns -p.
func (p *oracleG2) Neg() *oracleG2 {
	if p.IsIdentity() {
		return oracleG2Identity()
	}
	return &oracleG2{x: p.x.clone(), y: p.y.neg(oracleBN), z: p.z.clone()}
}

// Mul returns k*p; k is reduced modulo r.
func (p *oracleG2) Mul(k *big.Int) *oracleG2 {
	kk := new(big.Int).Mod(k, oracleBN.r)
	acc := oracleG2Identity()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc = acc.Double()
		if kk.Bit(i) == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

// mulRaw is scalar multiplication without reduction mod r, used for
// cofactor clearing.
func (p *oracleG2) mulRaw(k *big.Int) *oracleG2 {
	acc := oracleG2Identity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = acc.Double()
		if k.Bit(i) == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

// Equal reports whether two Jacobian representations denote the same
// affine point.
func (p *oracleG2) Equal(q *oracleG2) bool {
	if p.IsIdentity() || q.IsIdentity() {
		return p.IsIdentity() == q.IsIdentity()
	}
	pp := oracleBN
	z1z1 := p.z.square(pp)
	z2z2 := q.z.square(pp)
	if !p.x.mul(z2z2, pp).equal(q.x.mul(z1z1, pp)) {
		return false
	}
	return p.y.mul(z2z2.mul(q.z, pp), pp).equal(q.y.mul(z1z1.mul(p.z, pp), pp))
}

// affine returns affine coordinates; ok is false at infinity.
func (p *oracleG2) affine() (x, y oracleFp2, ok bool) {
	if p.IsIdentity() {
		return oracleFp2{}, oracleFp2{}, false
	}
	pp := oracleBN
	zinv := p.z.inv(pp)
	zinv2 := zinv.square(pp)
	return p.x.mul(zinv2, pp), p.y.mul(zinv2.mul(zinv, pp), pp), true
}

func (p *oracleG2) clone() *oracleG2 {
	return &oracleG2{x: p.x.clone(), y: p.y.clone(), z: p.z.clone()}
}

// Marshal returns a 129-byte encoding: zero-prefixed zeros for infinity
// or 0x04 || x.c0 || x.c1 || y.c0 || y.c1.
func (p *oracleG2) Marshal() []byte {
	out := make([]byte, 129)
	x, y, ok := p.affine()
	if !ok {
		return out
	}
	out[0] = 4
	copy(out[1:65], x.bytes())
	copy(out[65:], y.bytes())
	return out
}

// oracleUnmarshalG2 decodes an encoding, checking the curve equation and
// membership in the order-r subgroup.
func oracleUnmarshalG2(data []byte) (*oracleG2, bool) {
	if len(data) != 129 {
		return nil, false
	}
	if data[0] == 0 {
		for _, b := range data[1:] {
			if b != 0 {
				return nil, false
			}
		}
		return oracleG2Identity(), true
	}
	if data[0] != 4 {
		return nil, false
	}
	x, ok := oracleFp2FromBytes(data[1:65], oracleBN)
	if !ok {
		return nil, false
	}
	y, ok := oracleFp2FromBytes(data[65:], oracleBN)
	if !ok {
		return nil, false
	}
	if !oracleOnTwist(x, y) {
		return nil, false
	}
	pt := &oracleG2{x: x, y: y, z: oracleFp2One()}
	// mulRaw avoids the mod-r reduction in Mul, which would trivialize
	// the subgroup check (r mod r = 0).
	if !pt.mulRaw(oracleBN.r).IsIdentity() {
		return nil, false
	}
	return pt, true
}

func oracleOnTwist(x, y oracleFp2) bool {
	pp := oracleBN
	lhs := y.square(pp)
	rhs := x.square(pp).mul(x, pp).add(pp.twistB, pp)
	return lhs.equal(rhs)
}

// oracleHashToG2 maps domain-separated input onto the order-r subgroup of the
// twist by try-and-increment followed by cofactor clearing.
func oracleHashToG2(domain string, data ...[]byte) *oracleG2 {
	seed := oracleHashSeed("thetacrypt/bn254g2/"+domain, data)
	for ctr := uint64(0); ; ctr += 2 {
		c0 := oracleHashCandidate(seed, ctr, oracleBN.p)
		c1 := oracleHashCandidate(seed, ctr+1, oracleBN.p)
		if c0 == nil || c1 == nil {
			continue
		}
		x := oracleFp2{c0: c0, c1: c1}
		y2 := x.square(oracleBN).mul(x, oracleBN).add(oracleBN.twistB, oracleBN)
		y, ok := y2.sqrt(oracleBN)
		if !ok {
			continue
		}
		pt := &oracleG2{x: x, y: y, z: oracleFp2One()}
		cleared := pt.mulRaw(oracleBN.g2Cofactor)
		if cleared.IsIdentity() {
			continue
		}
		return cleared
	}
}

// ---- ate.go at 9e35158 ----
// This file implements the optimal ate pairing, the default pairing used
// by oraclePair and oraclePairingCheck. The Miller loop runs over 6u+2 (≈ 65 bits, in
// non-adjacent form) with point arithmetic on the twist and two closing
// Frobenius line steps. The slower Tate pairing in tate.go serves as an
// independent reference implementation; property tests check both.

// oracleTwistAffine is an affine point on the twist used inside the Miller loop.
type oracleTwistAffine struct {
	x, y oracleFp2
}

// oracleLineFunc is the sparse Fp12 line evaluation
// l(P) = yP + (-λ xP)·w + (λ x_T - y_T)·w^3 as full Fp12 element.
func oracleLineFunc(lambda oracleFp2, xt, yt oracleFp2, px, py *big.Int) oracleFp12 {
	c00 := oracleFp2{c0: mathutil.Clone(py), c1: big.NewInt(0)}
	negXP := mathutil.SubMod(big.NewInt(0), px, oracleBN.p)
	c10 := lambda.mulScalar(negXP, oracleBN)
	c11 := lambda.mul(xt, oracleBN).sub(yt, oracleBN)
	return oracleFp12{
		c0: oracleFp6{c0: c00, c1: oracleFp2Zero(), c2: oracleFp2Zero()},
		c1: oracleFp6{c0: c10, c1: c11, c2: oracleFp2Zero()},
	}
}

// oracleDoubleStep doubles T on the twist and returns the tangent-line value
// at P.
func oracleDoubleStep(t *oracleTwistAffine, px, py *big.Int) oracleFp12 {
	pp := oracleBN
	// λ = 3x^2 / 2y
	num := t.x.square(pp).mulScalar(big.NewInt(3), pp)
	lambda := num.mul(t.y.dbl(pp).inv(pp), pp)
	l := oracleLineFunc(lambda, t.x, t.y, px, py)
	x3 := lambda.square(pp).sub(t.x.dbl(pp), pp)
	y3 := lambda.mul(t.x.sub(x3, pp), pp).sub(t.y, pp)
	t.x, t.y = x3, y3
	return l
}

// oracleAddStep adds Q to T on the twist and returns the chord-line value at P.
// T and Q must be distinct non-inverse points, which holds throughout the
// optimal ate loop.
func oracleAddStep(t *oracleTwistAffine, q oracleTwistAffine, px, py *big.Int) oracleFp12 {
	pp := oracleBN
	lambda := q.y.sub(t.y, pp).mul(q.x.sub(t.x, pp).inv(pp), pp)
	l := oracleLineFunc(lambda, t.x, t.y, px, py)
	x3 := lambda.square(pp).sub(t.x, pp).sub(q.x, pp)
	y3 := lambda.mul(t.x.sub(x3, pp), pp).sub(t.y, pp)
	t.x, t.y = x3, y3
	return l
}

// oracleFrobTwist applies the p-power Frobenius endomorphism to a twist point:
// π(x, y) = (conj(x)·ξ^((p-1)/3), conj(y)·ξ^((p-1)/2)).
func oracleFrobTwist(q oracleTwistAffine) oracleTwistAffine {
	pp := oracleBN
	return oracleTwistAffine{
		x: q.x.conj(pp).mul(pp.frobGamma[2], pp),
		y: q.y.conj(pp).mul(pp.frobGamma[3], pp),
	}
}

// oracleMillerLoopAte computes f_{6u+2,Q}(P) times the two closing Frobenius
// lines, for affine P = (px, py) and twist point Q = (qx, qy).
func oracleMillerLoopAte(px, py *big.Int, qx, qy oracleFp2) oracleFp12 {
	pp := oracleBN
	sixUPlus2 := new(big.Int).Mul(pp.u, big.NewInt(6))
	sixUPlus2.Add(sixUPlus2, big.NewInt(2))
	naf := oracleNAF(sixUPlus2)

	q := oracleTwistAffine{x: qx.clone(), y: qy.clone()}
	negQ := oracleTwistAffine{x: qx.clone(), y: qy.neg(pp)}
	t := oracleTwistAffine{x: qx.clone(), y: qy.clone()}

	f := oracleFp12One()
	for i := len(naf) - 2; i >= 0; i-- {
		f = f.square(pp)
		f = f.mul(oracleDoubleStep(&t, px, py), pp)
		switch naf[i] {
		case 1:
			f = f.mul(oracleAddStep(&t, q, px, py), pp)
		case -1:
			f = f.mul(oracleAddStep(&t, negQ, px, py), pp)
		}
	}

	// Closing steps: add π(Q), then subtract π^2(Q).
	q1 := oracleFrobTwist(q)
	q2 := oracleFrobTwist(q1)
	negQ2 := oracleTwistAffine{x: q2.x, y: q2.y.neg(pp)}
	f = f.mul(oracleAddStep(&t, q1, px, py), pp)
	f = f.mul(oracleAddStep(&t, negQ2, px, py), pp)
	return f
}

// ---- pairing.go at 9e35158 ----
// oracleGT is an element of the pairing target group, the order-r subgroup of
// Fp12*.
type oracleGT struct {
	v oracleFp12
}

// oracleGTOne returns the neutral element of oracleGT.
func oracleGTOne() *oracleGT { return &oracleGT{v: oracleFp12One()} }

// IsOne reports whether the element is the identity.
func (g *oracleGT) IsOne() bool { return g.v.isOne() }

// Equal reports element equality.
func (g *oracleGT) Equal(h *oracleGT) bool { return g.v.equal(h.v) }

// Mul returns the product of two oracleGT elements.
func (g *oracleGT) Mul(h *oracleGT) *oracleGT { return &oracleGT{v: g.v.mul(h.v, oracleBN)} }

// Inv returns the inverse. oracleGT elements lie in the cyclotomic subgroup,
// where inversion is conjugation.
func (g *oracleGT) Inv() *oracleGT { return &oracleGT{v: g.v.conjugate(oracleBN)} }

// Exp returns g^k with k reduced modulo r.
func (g *oracleGT) Exp(k *big.Int) *oracleGT {
	kk := new(big.Int).Mod(k, oracleBN.r)
	return &oracleGT{v: g.v.exp(kk, oracleBN)}
}

// Marshal returns the canonical 384-byte encoding, suitable for hashing.
func (g *oracleGT) Marshal() []byte { return g.v.bytes() }

// oraclePair computes the optimal ate pairing e(P, Q) ∈ oracleGT.
func oraclePair(p *oracleG1, q *oracleG2) *oracleGT {
	if p.IsIdentity() || q.IsIdentity() {
		return oracleGTOne()
	}
	px, py, _ := p.affine()
	qx, qy, _ := q.affine()
	return &oracleGT{v: oracleFinalExponentiation(oracleMillerLoopAte(px, py, qx, qy))}
}

// oraclePairingCheck reports whether e(a1, b1) == e(a2, b2), the form used by
// BLS04 and BZ03 verification. It multiplies the Miller values of
// (a1, b1) and (a2, -b2) and applies a single final exponentiation, which
// halves the cost compared to two independent pairings.
func oraclePairingCheck(a1 *oracleG1, b1 *oracleG2, a2 *oracleG1, b2 *oracleG2) bool {
	if a1.IsIdentity() || b1.IsIdentity() || a2.IsIdentity() || b2.IsIdentity() {
		return oraclePair(a1, b1).Equal(oraclePair(a2, b2))
	}
	p1x, p1y, _ := a1.affine()
	q1x, q1y, _ := b1.affine()
	p2x, p2y, _ := a2.affine()
	q2x, q2y, _ := b2.Neg().affine()
	f := oracleMillerLoopAte(p1x, p1y, q1x, q1y).mul(oracleMillerLoopAte(p2x, p2y, q2x, q2y), oracleBN)
	return oracleFinalExponentiation(f).isOne()
}

// oraclePairTate computes the reduced Tate pairing. It is retained as an
// independent reference implementation for property tests: both pairings
// must be bilinear and non-degenerate, and they expose disjoint Miller
// loop code paths.
//
// The Miller loop iterates over the group order r with line functions
// whose coefficients live in Fp (P-arithmetic); they are evaluated at the
// untwisted image ψ(Q) = (x_Q w^2, y_Q w^3) ∈ E(Fp12). Vertical lines and
// denominators lie in the subfield Fp6 and are eliminated by the final
// exponentiation, so they are skipped.
func oraclePairTate(p *oracleG1, q *oracleG2) *oracleGT {
	if p.IsIdentity() || q.IsIdentity() {
		return oracleGTOne()
	}
	px, py, _ := p.affine()
	qx, qy, _ := q.affine()
	return &oracleGT{v: oracleFinalExponentiation(oracleMillerLoopTate(px, py, qx, qy))}
}

// oracleMillerLoopTate computes f_{r,P}(ψ(Q)) for affine P = (px, py) and twist
// point Q = (qx, qy).
func oracleMillerLoopTate(px, py *big.Int, qx, qy oracleFp2) oracleFp12 {
	pp := oracleBN
	f := oracleFp12One()
	// T tracks multiples of P in affine coordinates over Fp.
	tx, ty := mathutil.Clone(px), mathutil.Clone(py)
	r := pp.r
	for i := r.BitLen() - 2; i >= 0; i-- {
		f = f.square(pp)
		f = f.mul(oracleLineDouble(&tx, &ty, qx, qy), pp)
		if r.Bit(i) == 1 {
			if l, ok := oracleLineAdd(&tx, &ty, px, py, qx, qy); ok {
				f = f.mul(l, pp)
			}
		}
	}
	return f
}

// oracleLineDouble evaluates the tangent line at T = (tx, ty) at ψ(Q) and
// advances T to 2T. The affine slope λ = 3x^2 / 2y requires ty != 0, which
// holds for all points of odd prime order.
func oracleLineDouble(tx, ty **big.Int, qx, qy oracleFp2) oracleFp12 {
	fp := oracleBN.p
	x, y := *tx, *ty
	// λ = 3x^2 / (2y)
	num := mathutil.MulMod(big.NewInt(3), mathutil.MulMod(x, x, fp), fp)
	den := new(big.Int).ModInverse(mathutil.AddMod(y, y, fp), fp)
	lambda := mathutil.MulMod(num, den, fp)
	l := oracleLineEval(lambda, x, y, qx, qy)
	// x3 = λ^2 - 2x ; y3 = λ(x - x3) - y
	x3 := mathutil.SubMod(mathutil.MulMod(lambda, lambda, fp), new(big.Int).Lsh(x, 1), fp)
	y3 := mathutil.SubMod(mathutil.MulMod(lambda, mathutil.SubMod(x, x3, fp), fp), y, fp)
	*tx, *ty = x3, y3
	return l
}

// oracleLineAdd evaluates the line through T and P at ψ(Q) and advances T to
// T + P. ok is false for vertical lines (T = -P), whose contribution is
// eliminated by the final exponentiation; T is then set to infinity, which
// cannot occur before the last iteration of the Miller loop since r is the
// exact order of P.
func oracleLineAdd(tx, ty **big.Int, px, py *big.Int, qx, qy oracleFp2) (oracleFp12, bool) {
	fp := oracleBN.p
	x1, y1 := *tx, *ty
	if x1.Cmp(px) == 0 {
		if y1.Cmp(py) == 0 {
			return oracleLineDouble(tx, ty, qx, qy), true
		}
		// Vertical line: T + P = O.
		*tx, *ty = big.NewInt(0), big.NewInt(0)
		return oracleFp12{}, false
	}
	num := mathutil.SubMod(py, y1, fp)
	den := new(big.Int).ModInverse(mathutil.SubMod(px, x1, fp), fp)
	lambda := mathutil.MulMod(num, den, fp)
	l := oracleLineEval(lambda, x1, y1, qx, qy)
	x3 := mathutil.SubMod(mathutil.SubMod(mathutil.MulMod(lambda, lambda, fp), x1, fp), px, fp)
	y3 := mathutil.SubMod(mathutil.MulMod(lambda, mathutil.SubMod(x1, x3, fp), fp), y1, fp)
	*tx, *ty = x3, y3
	return l, true
}

// oracleLineEval computes l(ψ(Q)) = y_ψ - y_T - λ(x_ψ - x_T) as a sparse Fp12
// element, where ψ(Q) = (qx w^2, qy w^3):
//
//	constant term (Fp):        λ x_T - y_T
//	coefficient of v (= w^2):  -λ qx      (Fp2, in c0.c1)
//	coefficient of v w (= w^3): qy        (Fp2, in c1.c1)
func oracleLineEval(lambda, xt, yt *big.Int, qx, qy oracleFp2) oracleFp12 {
	fp := oracleBN.p
	c := mathutil.SubMod(mathutil.MulMod(lambda, xt, fp), yt, fp)
	negLambda := mathutil.SubMod(big.NewInt(0), lambda, fp)
	return oracleFp12{
		c0: oracleFp6{
			c0: oracleFp2{c0: c, c1: big.NewInt(0)},
			c1: qx.mulScalar(negLambda, oracleBN),
			c2: oracleFp2Zero(),
		},
		c1: oracleFp6{
			c0: oracleFp2Zero(),
			c1: qy.clone(),
			c2: oracleFp2Zero(),
		},
	}
}

// oracleFinalExponentiation raises the Miller value to (p^12 - 1)/r. The easy
// part (p^6-1)(p^2+1) uses conjugation, one inversion, and Frobenius; the
// hard part (p^4 - p^2 + 1)/r uses the standard BN addition chain with
// three exponentiations by the curve parameter u.
func oracleFinalExponentiation(in oracleFp12) oracleFp12 {
	pp := oracleBN

	// Easy part: t1 = in^(p^6 - 1) = conj(in) * in^-1, then t1 ^= (p^2 + 1).
	t1 := in.conjugate(pp).mul(in.inv(pp), pp)
	t1 = t1.frobeniusP2(pp).mul(t1, pp)

	// Hard part (Devegili et al. addition chain).
	fp := t1.frobenius(pp)
	fp2v := t1.frobeniusP2(pp)
	fp3 := fp2v.frobenius(pp)

	fu := t1.exp(pp.u, pp)
	fu2 := fu.exp(pp.u, pp)
	fu3 := fu2.exp(pp.u, pp)

	y3 := fu.frobenius(pp)
	fu2p := fu2.frobenius(pp)
	fu3p := fu3.frobenius(pp)
	y2 := fu2.frobeniusP2(pp)

	y0 := fp.mul(fp2v, pp).mul(fp3, pp)
	y1 := t1.conjugate(pp)
	y5 := fu2.conjugate(pp)
	y3 = y3.conjugate(pp)
	y4 := fu.mul(fu2p, pp).conjugate(pp)
	y6 := fu3.mul(fu3p, pp).conjugate(pp)

	t0 := y6.square(pp).mul(y4, pp).mul(y5, pp)
	t1b := y3.mul(y5, pp).mul(t0, pp)
	t0 = t0.mul(y2, pp)
	t1b = t1b.square(pp).mul(t0, pp).square(pp)
	t0 = t1b.mul(y1, pp)
	t1b = t1b.mul(y0, pp)
	t0 = t0.square(pp).mul(t1b, pp)
	return t0
}
