// Package mathutil provides shared arbitrary-precision arithmetic helpers
// used by the group, pairing, secret-sharing, and RSA substrates.
//
// All helpers operate on math/big values and never retain references to
// their arguments.
package mathutil

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var (
	// ErrNoInverse is returned when a modular inverse does not exist.
	ErrNoInverse = errors.New("mathutil: no modular inverse")

	zero = big.NewInt(0)
	one  = big.NewInt(1)
	two  = big.NewInt(2)
)

// RandInt returns a uniformly random integer in [0, max).
func RandInt(r io.Reader, max *big.Int) (*big.Int, error) {
	if max.Sign() <= 0 {
		return nil, fmt.Errorf("mathutil: non-positive bound %v", max)
	}
	v, err := rand.Int(r, max)
	if err != nil {
		return nil, fmt.Errorf("random int: %w", err)
	}
	return v, nil
}

// RandNonZero returns a uniformly random integer in [1, max).
func RandNonZero(r io.Reader, max *big.Int) (*big.Int, error) {
	if max.Cmp(two) < 0 {
		return nil, fmt.Errorf("mathutil: bound %v too small", max)
	}
	for {
		v, err := RandInt(r, max)
		if err != nil {
			return nil, err
		}
		if v.Sign() != 0 {
			return v, nil
		}
	}
}

// Mod returns a mod m normalized into [0, m).
func Mod(a, m *big.Int) *big.Int {
	return new(big.Int).Mod(a, m)
}

// AddMod returns (a + b) mod m.
func AddMod(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Add(a, b), m)
}

// SubMod returns (a - b) mod m, normalized into [0, m).
func SubMod(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Sub(a, b), m)
}

// MulMod returns (a * b) mod m.
func MulMod(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), m)
}

// ExpMod returns a^e mod m. Negative exponents invert a first.
func ExpMod(a, e, m *big.Int) *big.Int {
	if e.Sign() < 0 {
		inv := new(big.Int).ModInverse(a, m)
		if inv == nil {
			// Caller contract requires a invertible for negative exponents;
			// surface a deterministic zero rather than a nil deref downstream.
			return new(big.Int)
		}
		return new(big.Int).Exp(inv, new(big.Int).Neg(e), m)
	}
	return new(big.Int).Exp(a, e, m)
}

// InvMod returns the modular inverse of a mod m.
func InvMod(a, m *big.Int) (*big.Int, error) {
	inv := new(big.Int).ModInverse(a, m)
	if inv == nil {
		return nil, ErrNoInverse
	}
	return inv, nil
}

// Factorial returns n! as a big integer.
func Factorial(n int) *big.Int {
	f := new(big.Int).Set(one)
	for i := 2; i <= n; i++ {
		f.Mul(f, big.NewInt(int64(i)))
	}
	return f
}

// SafePrime generates a safe prime p = 2q + 1 with the given bit length,
// returning (p, q). It retries candidate Sophie Germain primes until both
// q and 2q+1 pass probabilistic primality testing.
func SafePrime(r io.Reader, bits int) (p, q *big.Int, err error) {
	if bits < 16 {
		return nil, nil, fmt.Errorf("mathutil: safe prime bit length %d too small", bits)
	}
	for {
		q, err = rand.Prime(r, bits-1)
		if err != nil {
			return nil, nil, fmt.Errorf("generate prime: %w", err)
		}
		p = new(big.Int).Lsh(q, 1)
		p.Add(p, one)
		if p.ProbablyPrime(32) {
			return p, q, nil
		}
	}
}

// Sqrt3Mod4 computes a square root of a modulo a prime p with p ≡ 3 (mod 4)
// using the exponent (p+1)/4. It reports ok=false when a is not a quadratic
// residue.
func Sqrt3Mod4(a, p *big.Int) (root *big.Int, ok bool) {
	e := new(big.Int).Add(p, one)
	e.Rsh(e, 2)
	root = new(big.Int).Exp(a, e, p)
	check := MulMod(root, root, p)
	return root, check.Cmp(Mod(a, p)) == 0
}

// Jacobi wraps big.Jacobi with normalization.
func Jacobi(a, p *big.Int) int {
	return big.Jacobi(new(big.Int).Mod(a, p), p)
}

// Clone returns a defensive copy of a big integer, mapping nil to nil.
func Clone(a *big.Int) *big.Int {
	if a == nil {
		return nil
	}
	return new(big.Int).Set(a)
}

// EqualConstTime reports whether a == b without early exit on the byte
// representation. Both values must be non-negative.
func EqualConstTime(a, b *big.Int) bool {
	ab, bb := a.Bytes(), b.Bytes()
	if len(ab) != len(bb) {
		return a.Cmp(b) == 0
	}
	var v byte
	for i := range ab {
		v |= ab[i] ^ bb[i]
	}
	return v == 0
}
