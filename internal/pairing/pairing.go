package pairing

import (
	"math/big"
	"sync/atomic"
)

// GT is an element of the pairing target group, the order-r subgroup of
// Fp12*. Its operations are variable-time; no scheme feeds them a secret.
type GT struct {
	v fe12
}

// GTOne returns the neutral element of GT.
func GTOne() *GT { return &GT{v: fe12One} }

// IsOne reports whether the element is the identity.
func (g *GT) IsOne() bool { return g.v.isOne() }

// Equal reports element equality.
func (g *GT) Equal(h *GT) bool { return g.v.equal(&h.v) }

// Mul returns the product of two GT elements.
func (g *GT) Mul(h *GT) *GT {
	out := new(GT)
	out.v.mul(&g.v, &h.v)
	return out
}

// Inv returns the inverse. GT elements lie in the cyclotomic subgroup,
// where inversion is conjugation.
func (g *GT) Inv() *GT {
	out := new(GT)
	out.v.conjugate(&g.v)
	return out
}

// Exp returns g^k with k reduced modulo r.
func (g *GT) Exp(k *big.Int) *GT {
	kk := new(big.Int).Mod(k, Order())
	out := GTOne()
	for i := kk.BitLen() - 1; i >= 0; i-- {
		out.v.square(&out.v)
		if kk.Bit(i) == 1 {
			out.v.mul(&out.v, &g.v)
		}
	}
	return out
}

// Marshal returns the canonical 384-byte encoding, suitable for hashing.
func (g *GT) Marshal() []byte {
	out := make([]byte, 384)
	g.v.putBytes(out)
	return out
}

// Pair computes the optimal ate pairing e(P, Q) ∈ GT. Variable-time.
func Pair(p *G1, q *G2) *GT {
	if p.IsIdentity() || q.IsIdentity() {
		return GTOne()
	}
	pairs := [1]millerPair{newMillerPair(p, q)}
	out := new(GT)
	out.v = millerLoop(pairs[:])
	finalExponentiation(&out.v)
	return out
}

// checks counts PairingCheck calls process-wide.
var checks atomic.Uint64

// Checks returns the number of PairingCheck calls made by this process
// so far. Differences between two reads count the checks an operation
// ran; the counter is only ever read, never reset.
func Checks() uint64 { return checks.Load() }

// PairingCheck reports whether e(a1, b1) == e(a2, b2), the form used by
// BLS04 and BZ03 verification. It runs one Miller loop over (a1, b1) and
// (a2, -b2), which shares the squarings of the accumulator, and applies a
// single final exponentiation. Variable-time: verification inputs are
// public.
func PairingCheck(a1 *G1, b1 *G2, a2 *G1, b2 *G2) bool {
	checks.Add(1)
	if a1.IsIdentity() || b1.IsIdentity() || a2.IsIdentity() || b2.IsIdentity() {
		return Pair(a1, b1).Equal(Pair(a2, b2))
	}
	pairs := [2]millerPair{newMillerPair(a1, b1), newMillerPair(a2, b2.Neg())}
	f := millerLoop(pairs[:])
	finalExponentiation(&f)
	return f.isOne()
}

// finalExponentiation raises the Miller value to (p^12 - 1)/r in place.
// The easy part (p^6-1)(p^2+1) uses conjugation, one inversion, and
// Frobenius; the hard part (p^4 - p^2 + 1)/r uses the standard BN addition
// chain (Devegili et al.) with three exponentiations by the curve
// parameter u. After the easy part every value lies in the cyclotomic
// subgroup, where squaring is cheap and conjugation inverts.
func finalExponentiation(f *fe12) {
	var t1, inv fe12
	// t1 = f^(p^6 - 1) = conj(f)·f^-1, then t1 ^= (p^2 + 1).
	inv.inv(f)
	t1.conjugate(f)
	t1.mul(&t1, &inv)
	inv.frobeniusP2(&t1)
	t1.mul(&inv, &t1)

	var fp1, fp2, fp3, fu, fu2, fu3 fe12
	fp1.frobenius(&t1)
	fp2.frobeniusP2(&t1)
	fp3.frobenius(&fp2)

	fu.expU(&t1)
	fu2.expU(&fu)
	fu3.expU(&fu2)

	var y0, y1, y2, y3, y4, y5, y6 fe12
	y3.frobenius(&fu)
	y3.conjugate(&y3)
	y4.frobenius(&fu2)
	y4.mul(&fu, &y4)
	y4.conjugate(&y4)
	y6.frobenius(&fu3)
	y6.mul(&fu3, &y6)
	y6.conjugate(&y6)
	y2.frobeniusP2(&fu2)
	y0.mul(&fp1, &fp2)
	y0.mul(&y0, &fp3)
	y1.conjugate(&t1)
	y5.conjugate(&fu2)

	var t0 fe12
	t0.cyclotomicSquare(&y6)
	t0.mul(&t0, &y4)
	t0.mul(&t0, &y5)
	t1.mul(&y3, &y5)
	t1.mul(&t1, &t0)
	t0.mul(&t0, &y2)
	t1.cyclotomicSquare(&t1)
	t1.mul(&t1, &t0)
	t1.cyclotomicSquare(&t1)
	t0.mul(&t1, &y1)
	t1.mul(&t1, &y0)
	t0.cyclotomicSquare(&t0)
	f.mul(&t0, &t1)
}
