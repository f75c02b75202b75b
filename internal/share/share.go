// Package share implements the secret-sharing substrate: Shamir sharing
// over prime fields, Feldman verifiable secret sharing over a group, and
// the integer-coefficient Lagrange interpolation (with the Δ = l!
// clearing factor) required by Shoup's threshold RSA scheme.
//
// Threshold semantics follow the paper: with parameters (t, n), any t+1
// of the n shares reconstruct the secret and any t shares reveal nothing.
// Polynomials therefore have degree t.
package share

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
	"sort"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
)

var (
	// ErrNotEnoughShares is returned when fewer than t+1 distinct shares
	// are supplied to a reconstruction.
	ErrNotEnoughShares = errors.New("share: not enough shares")
	// ErrDuplicateIndex is returned when two shares carry the same index.
	ErrDuplicateIndex = errors.New("share: duplicate share index")
)

// Share is one evaluation point f(Index) of the sharing polynomial.
// Indices run from 1 to n; index 0 is the secret and never leaves the
// dealer.
type Share struct {
	Index int
	Value *big.Int
}

// Clone returns a deep copy.
func (s Share) Clone() Share {
	return Share{Index: s.Index, Value: mathutil.Clone(s.Value)}
}

// ValidateParams checks threshold parameters.
func ValidateParams(t, n int) error {
	if t < 0 {
		return fmt.Errorf("share: negative threshold %d", t)
	}
	if n < 1 {
		return fmt.Errorf("share: invalid group size %d", n)
	}
	if t+1 > n {
		return fmt.Errorf("share: quorum %d exceeds group size %d", t+1, n)
	}
	return nil
}

// Polynomial is a degree-t polynomial over Z_q used by the dealer and by
// DKG participants.
type Polynomial struct {
	// Coeffs[0] is the secret; len(Coeffs) == t+1.
	Coeffs  []*big.Int
	Modulus *big.Int
}

// NewPolynomial samples a random degree-t polynomial with f(0) = secret.
func NewPolynomial(rand io.Reader, secret *big.Int, t int, modulus *big.Int) (*Polynomial, error) {
	if t < 0 {
		return nil, fmt.Errorf("share: negative degree %d", t)
	}
	coeffs := make([]*big.Int, t+1)
	coeffs[0] = mathutil.Mod(secret, modulus)
	for i := 1; i <= t; i++ {
		c, err := mathutil.RandInt(rand, modulus)
		if err != nil {
			return nil, fmt.Errorf("sample coefficient: %w", err)
		}
		coeffs[i] = c
	}
	return &Polynomial{Coeffs: coeffs, Modulus: mathutil.Clone(modulus)}, nil
}

// Eval returns f(x) mod q by Horner's rule.
func (p *Polynomial) Eval(x int) *big.Int {
	xv := big.NewInt(int64(x))
	acc := new(big.Int)
	for i := len(p.Coeffs) - 1; i >= 0; i-- {
		acc.Mul(acc, xv)
		acc.Add(acc, p.Coeffs[i])
		acc.Mod(acc, p.Modulus)
	}
	return acc
}

// Shares returns the n shares f(1), ..., f(n).
func (p *Polynomial) Shares(n int) []Share {
	out := make([]Share, n)
	for i := 1; i <= n; i++ {
		out[i-1] = Share{Index: i, Value: p.Eval(i)}
	}
	return out
}

// Split shares a secret with threshold t among n parties over Z_q.
func Split(rand io.Reader, secret *big.Int, t, n int, modulus *big.Int) ([]Share, error) {
	if err := ValidateParams(t, n); err != nil {
		return nil, err
	}
	poly, err := NewPolynomial(rand, secret, t, modulus)
	if err != nil {
		return nil, err
	}
	return poly.Shares(n), nil
}

// PublicKey is the public half of a discrete-log threshold key, the one
// key of SG02, KG20 and CKS05: the group key Y = x*G, the verification
// keys VK[i-1] = x_i*G of shares 1..n, and the threshold t. A party's
// private half is its Share x_i.
type PublicKey struct {
	Group group.Group
	Y     group.Point
	VK    []group.Point
	T     int
	N     int
}

// Deal runs the trusted-dealer setup of a discrete-log key: it samples
// the secret x, shares it with threshold t among n parties over the
// order of g, and derives the group key and the verification keys.
func Deal(rand io.Reader, g group.Group, t, n int) (*PublicKey, []Share, error) {
	if err := ValidateParams(t, n); err != nil {
		return nil, nil, err
	}
	x, err := g.RandomScalar(rand)
	if err != nil {
		return nil, nil, fmt.Errorf("sample secret: %w", err)
	}
	shares, err := Split(rand, x, t, n, g.Order())
	if err != nil {
		return nil, nil, err
	}
	pk := &PublicKey{Group: g, Y: g.BaseMul(x), VK: make([]group.Point, n), T: t, N: n}
	for i, s := range shares {
		pk.VK[i] = g.BaseMul(s.Value)
	}
	return pk, shares, nil
}

// CanonicalSubset is the single canonicalization point for signer/share
// index subsets: a strictly ascending copy of subset with duplicates
// removed. Callers reach interpolation with subsets in whatever order
// they were collected (map iteration, network arrival); canonicalizing
// here guarantees that equivalent sets produce identical coefficient
// maps and identical operation order.
func CanonicalSubset(subset []int) []int {
	out := make([]int, len(subset))
	copy(out, subset)
	sort.Ints(out)
	dedup := out[:0]
	for i, k := range out {
		if i == 0 || k != out[i-1] {
			dedup = append(dedup, k)
		}
	}
	return dedup
}

// LagrangeCoefficient computes λ_j = Π_{k∈S, k≠j} k/(k-j) mod q, the
// weight of share j when interpolating f(0) from the index subset S.
// The subset is canonicalized, so permutations of the same set are
// indistinguishable to this function.
func LagrangeCoefficient(j int, subset []int, modulus *big.Int) (*big.Int, error) {
	num := big.NewInt(1)
	den := big.NewInt(1)
	seen := false
	for _, k := range CanonicalSubset(subset) {
		if k == j {
			seen = true
			continue
		}
		num.Mul(num, big.NewInt(int64(k)))
		num.Mod(num, modulus)
		den.Mul(den, big.NewInt(int64(k-j)))
		den.Mod(den, modulus)
	}
	if !seen {
		return nil, fmt.Errorf("share: index %d not in subset", j)
	}
	dinv, err := mathutil.InvMod(den, modulus)
	if err != nil {
		return nil, fmt.Errorf("lagrange denominator: %w", err)
	}
	return mathutil.MulMod(num, dinv, modulus), nil
}

// Coefficients computes the full coefficient map λ_j for every j of the
// canonicalized subset.
func Coefficients(subset []int, modulus *big.Int) (map[int]*big.Int, error) {
	canon := CanonicalSubset(subset)
	out := make(map[int]*big.Int, len(canon))
	for _, j := range canon {
		lambda, err := LagrangeCoefficient(j, canon, modulus)
		if err != nil {
			return nil, err
		}
		out[j] = lambda
	}
	return out, nil
}

// Reconstruct interpolates f(0) from at least t+1 distinct shares.
func Reconstruct(shares []Share, t int, modulus *big.Int) (*big.Int, error) {
	if len(shares) < t+1 {
		return nil, ErrNotEnoughShares
	}
	use := shares[:t+1]
	subset := make([]int, len(use))
	dup := make(map[int]bool, len(use))
	for i, s := range use {
		if dup[s.Index] {
			return nil, ErrDuplicateIndex
		}
		dup[s.Index] = true
		subset[i] = s.Index
	}
	acc := new(big.Int)
	for _, s := range use {
		lambda, err := LagrangeCoefficient(s.Index, subset, modulus)
		if err != nil {
			return nil, err
		}
		acc.Add(acc, new(big.Int).Mul(lambda, s.Value))
		acc.Mod(acc, modulus)
	}
	return acc, nil
}

// InterpolateInExponent combines group elements P_j = f(j)*G into
// f(0)*G using Lagrange coefficients, the core of every threshold
// combine step. points maps share index to group element. The subset is
// canonicalized first, so equivalent point maps — collected in any
// order — combine in the same order; the interpolation itself is one
// multi-scalar multiplication.
func InterpolateInExponent(g group.Group, points map[int]group.Point) (group.Point, error) {
	if len(points) == 0 {
		return nil, ErrNotEnoughShares
	}
	subset := make([]int, 0, len(points))
	for idx := range points {
		subset = append(subset, idx)
	}
	subset = CanonicalSubset(subset)
	coeffs, err := Coefficients(subset, g.Order())
	if err != nil {
		return nil, err
	}
	pts := make([]group.Point, len(subset))
	scalars := make([]*big.Int, len(subset))
	for i, idx := range subset {
		pts[i] = points[idx]
		scalars[i] = coeffs[idx]
	}
	return group.MultiScalarMul(g, pts, scalars), nil
}

// FeldmanCommitment is the public commitment A_i = a_i*G to each
// polynomial coefficient, enabling share verification.
type FeldmanCommitment struct {
	Group  group.Group
	Points []group.Point // Points[i] commits to Coeffs[i]
}

// Commit produces the Feldman commitment of a polynomial over the scalar
// field of g. The polynomial modulus must equal g.Order().
func (p *Polynomial) Commit(g group.Group) (*FeldmanCommitment, error) {
	if p.Modulus.Cmp(g.Order()) != 0 {
		return nil, fmt.Errorf("share: polynomial modulus does not match group order")
	}
	pts := make([]group.Point, len(p.Coeffs))
	for i, c := range p.Coeffs {
		pts[i] = g.BaseMul(c)
	}
	return &FeldmanCommitment{Group: g, Points: pts}, nil
}

// PublicKey returns the commitment to the secret, f(0)*G.
func (c *FeldmanCommitment) PublicKey() group.Point { return c.Points[0] }

// VerifyShare checks s.Value*G == Σ A_i * index^i: one fixed-base
// multiplication by the secret share, and only additions for the
// public index.
func (c *FeldmanCommitment) VerifyShare(s Share) bool {
	expected := c.EvalInExponent(s.Index)
	return c.Group.BaseMul(s.Value).Equal(expected)
}

// EvalInExponent computes f(x)*G = Σ A_i·x^i from the coefficient
// commitments by Horner's rule. Each multiplication by x is a
// double-and-add on Point.Add (mulIndex), not a Point.Mul: that is
// variable-time in x, and x is a public share index.
func (c *FeldmanCommitment) EvalInExponent(x int) group.Point {
	if len(c.Points) == 0 {
		return c.Group.Identity()
	}
	// Horner in the exponent: acc = acc*x + A_i.
	acc := c.Points[len(c.Points)-1]
	for i := len(c.Points) - 2; i >= 0; i-- {
		acc = mulIndex(c.Group, acc, x).Add(c.Points[i])
	}
	return acc
}

// mulIndex returns x·P for a public integer x by left-to-right
// double-and-add: about log2|x| doublings plus one addition per one bit
// of |x|. It branches on the bits of x, so x must be public; secret
// scalars go through Point.Mul or Group.BaseMul.
func mulIndex(g group.Group, p group.Point, x int) group.Point {
	u := uint64(x)
	if x < 0 {
		p, u = p.Neg(), -u
	}
	if u == 0 {
		return g.Identity()
	}
	acc := p
	for bit := bits.Len64(u) - 2; bit >= 0; bit-- {
		acc = acc.Add(acc)
		if u>>uint(bit)&1 == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

// Fold returns the commitment to Σ_d weights[d]·f_d: coefficient k of
// the result is Σ_d weights[d]·A_{d,k}. Evaluating the folded
// commitment once gives what evaluating every commitment and weighting
// the results would, at the price of one evaluation. A nil weights
// slice weights every commitment 1, which is a plain sum with
// Point.Add. Otherwise each coefficient is one group.MultiScalarMul,
// which is variable-time: the weights must be public, as the dealers'
// Lagrange coefficients are. The commitments must all be over g and of
// one degree.
func Fold(g group.Group, coms []*FeldmanCommitment, weights []*big.Int) (*FeldmanCommitment, error) {
	if len(coms) == 0 {
		return nil, ErrNotEnoughShares
	}
	if weights != nil && len(weights) != len(coms) {
		return nil, fmt.Errorf("share: %d weights for %d commitments", len(weights), len(coms))
	}
	for _, c := range coms {
		if c == nil || len(c.Points) != len(coms[0].Points) {
			return nil, fmt.Errorf("share: folding commitments of different degrees")
		}
	}
	out := &FeldmanCommitment{Group: g, Points: make([]group.Point, len(coms[0].Points))}
	column := make([]group.Point, len(coms))
	for k := range out.Points {
		for d, c := range coms {
			column[d] = c.Points[k]
		}
		if weights == nil {
			acc := column[0]
			for _, pt := range column[1:] {
				acc = acc.Add(pt)
			}
			out.Points[k] = acc
		} else {
			out.Points[k] = group.MultiScalarMul(g, column, weights)
		}
	}
	return out, nil
}

// IntegerLagrangeCoefficient computes the Shoup coefficient
// λ^S_{0,j} = Δ · Π_{k∈S, k≠j} k / (j-k)... specifically
// Δ·Π_{k∈S,k≠j} (0-k)/(j-k), which is an integer because Δ = l!
// clears all denominators. Used for combining RSA signature shares where
// no modular inverse exists.
func IntegerLagrangeCoefficient(delta *big.Int, j int, subset []int) (*big.Int, error) {
	num := new(big.Int).Set(delta)
	den := big.NewInt(1)
	seen := false
	for _, k := range subset {
		if k == j {
			seen = true
			continue
		}
		num.Mul(num, big.NewInt(int64(-k)))
		den.Mul(den, big.NewInt(int64(j-k)))
	}
	if !seen {
		return nil, fmt.Errorf("share: index %d not in subset", j)
	}
	q, r := new(big.Int).QuoRem(num, den, new(big.Int))
	if r.Sign() != 0 {
		return nil, fmt.Errorf("share: Δ does not clear denominator for subset %v at %d", subset, j)
	}
	return q, nil
}
