package mathutil

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func TestFactorial(t *testing.T) {
	cases := map[int]int64{0: 1, 1: 1, 5: 120, 10: 3628800}
	for n, want := range cases {
		if got := Factorial(n); got.Int64() != want {
			t.Fatalf("%d! = %v, want %d", n, got, want)
		}
	}
}

func TestSafePrimeSmall(t *testing.T) {
	p, q, err := SafePrime(rand.Reader, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !p.ProbablyPrime(32) || !q.ProbablyPrime(32) {
		t.Fatal("outputs not prime")
	}
	want := new(big.Int).Add(new(big.Int).Lsh(q, 1), big.NewInt(1))
	if p.Cmp(want) != 0 {
		t.Fatal("p != 2q+1")
	}
	if _, _, err := SafePrime(rand.Reader, 4); err == nil {
		t.Fatal("tiny bit length accepted")
	}
}

func TestSqrt3Mod4(t *testing.T) {
	p := big.NewInt(23) // 23 ≡ 3 mod 4
	for a := int64(1); a < 23; a++ {
		sq := new(big.Int).Mod(big.NewInt(a*a), p)
		root, ok := Sqrt3Mod4(sq, p)
		if !ok {
			t.Fatalf("square %d reported as non-residue", sq)
		}
		if MulMod(root, root, p).Cmp(sq) != 0 {
			t.Fatalf("sqrt(%v)^2 != %v", sq, sq)
		}
	}
	// 5 is a non-residue mod 23.
	if _, ok := Sqrt3Mod4(big.NewInt(5), p); ok {
		t.Fatal("non-residue accepted")
	}
}

func TestExpModNegative(t *testing.T) {
	m := big.NewInt(97)
	a := big.NewInt(5)
	inv := ExpMod(a, big.NewInt(-1), m)
	if MulMod(a, inv, m).Int64() != 1 {
		t.Fatal("a * a^-1 != 1")
	}
	// Non-invertible base with negative exponent yields 0 by contract.
	if ExpMod(big.NewInt(0), big.NewInt(-1), m).Sign() != 0 {
		t.Fatal("contract for non-invertible base violated")
	}
}

func TestInvMod(t *testing.T) {
	m := big.NewInt(10)
	if _, err := InvMod(big.NewInt(4), m); err == nil {
		t.Fatal("gcd(4,10)=2 has no inverse")
	}
	inv, err := InvMod(big.NewInt(3), m)
	if err != nil {
		t.Fatal(err)
	}
	if MulMod(big.NewInt(3), inv, m).Int64() != 1 {
		t.Fatal("3 * inv(3) != 1 mod 10")
	}
}

func TestRandBounds(t *testing.T) {
	max := big.NewInt(100)
	for i := 0; i < 50; i++ {
		v, err := RandInt(rand.Reader, max)
		if err != nil {
			t.Fatal(err)
		}
		if v.Sign() < 0 || v.Cmp(max) >= 0 {
			t.Fatalf("RandInt out of range: %v", v)
		}
		nz, err := RandNonZero(rand.Reader, max)
		if err != nil {
			t.Fatal(err)
		}
		if nz.Sign() == 0 {
			t.Fatal("RandNonZero returned zero")
		}
	}
	if _, err := RandInt(rand.Reader, big.NewInt(0)); err == nil {
		t.Fatal("zero bound accepted")
	}
}

func TestEqualConstTime(t *testing.T) {
	a := big.NewInt(123456)
	b := big.NewInt(123456)
	c := big.NewInt(123457)
	if !EqualConstTime(a, b) || EqualConstTime(a, c) {
		t.Fatal("EqualConstTime wrong")
	}
}
