package share

import (
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"
	"testing/quick"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
)

var testModulus = group.Edwards25519().Order()

func TestSplitReconstruct(t *testing.T) {
	cases := []struct{ t, n int }{
		{0, 1}, {1, 4}, {2, 7}, {3, 10}, {10, 31},
	}
	for _, tc := range cases {
		secret, _ := mathutil.RandInt(rand.Reader, testModulus)
		shares, err := Split(rand.Reader, secret, tc.t, tc.n, testModulus)
		if err != nil {
			t.Fatalf("Split(t=%d,n=%d): %v", tc.t, tc.n, err)
		}
		if len(shares) != tc.n {
			t.Fatalf("got %d shares, want %d", len(shares), tc.n)
		}
		got, err := Reconstruct(shares, tc.t, testModulus)
		if err != nil {
			t.Fatalf("Reconstruct: %v", err)
		}
		if got.Cmp(secret) != 0 {
			t.Fatalf("t=%d n=%d: reconstructed %v, want %v", tc.t, tc.n, got, secret)
		}
	}
}

// TestDeal: a dealt discrete-log key gives share i index i and
// x_i·G = VK[i-1], any t+1 shares reconstruct the x with x·G = Y, and a
// quorum larger than n is refused.
func TestDeal(t *testing.T) {
	for _, tc := range []struct {
		g    group.Group
		t, n int
	}{
		{group.Edwards25519(), 0, 1},
		{group.Edwards25519(), 1, 4},
		{group.P256(), 2, 5},
	} {
		t.Run(fmt.Sprintf("%s-t%d-n%d", tc.g.Name(), tc.t, tc.n), func(t *testing.T) {
			pk, shares, err := Deal(rand.Reader, tc.g, tc.t, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			if pk.Group != tc.g || pk.T != tc.t || pk.N != tc.n || len(pk.VK) != tc.n || len(shares) != tc.n {
				t.Fatalf("dealt (%s, t=%d, n=%d) with %d verification keys and %d shares",
					pk.Group.Name(), pk.T, pk.N, len(pk.VK), len(shares))
			}
			for i, s := range shares {
				if s.Index != i+1 {
					t.Fatalf("share %d has index %d", i+1, s.Index)
				}
				if !tc.g.BaseMul(s.Value).Equal(pk.VK[i]) {
					t.Fatalf("share %d does not match VK[%d]", s.Index, i)
				}
			}
			x, err := Reconstruct(shares[tc.n-tc.t-1:], tc.t, tc.g.Order())
			if err != nil {
				t.Fatal(err)
			}
			if !tc.g.BaseMul(x).Equal(pk.Y) {
				t.Fatal("t+1 shares do not reconstruct the discrete log of Y")
			}
			if _, _, err := Deal(rand.Reader, tc.g, tc.n, tc.n); err == nil {
				t.Fatalf("dealt a quorum of %d among %d", tc.n+1, tc.n)
			}
		})
	}
}

func TestReconstructFromAnySubset(t *testing.T) {
	const tt, n = 2, 7
	secret := big.NewInt(424242)
	shares, err := Split(rand.Reader, secret, tt, n, testModulus)
	if err != nil {
		t.Fatal(err)
	}
	// Any quorum of t+1 shares, in any order, must reconstruct.
	subsets := [][]int{{0, 1, 2}, {4, 2, 6}, {6, 5, 4}, {0, 3, 6}}
	for _, idxs := range subsets {
		sub := make([]Share, 0, len(idxs))
		for _, i := range idxs {
			sub = append(sub, shares[i])
		}
		got, err := Reconstruct(sub, tt, testModulus)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(secret) != 0 {
			t.Fatalf("subset %v reconstructed %v", idxs, got)
		}
	}
}

func TestReconstructErrors(t *testing.T) {
	secret := big.NewInt(7)
	shares, _ := Split(rand.Reader, secret, 2, 5, testModulus)
	if _, err := Reconstruct(shares[:2], 2, testModulus); err == nil {
		t.Fatal("reconstruction with t shares must fail")
	}
	dup := []Share{shares[0], shares[0], shares[1]}
	if _, err := Reconstruct(dup, 2, testModulus); err == nil {
		t.Fatal("duplicate indices must be rejected")
	}
}

func TestTSharesRevealNothingAboutStructure(t *testing.T) {
	// With t shares, every candidate secret is consistent with some
	// polynomial: interpolating t shares plus a guessed secret at 0 is
	// always possible. We verify the interpolation degrees of freedom by
	// reconstructing different "secrets" from the same t shares plus one
	// forged point.
	const tt = 3
	secret := big.NewInt(1111)
	shares, _ := Split(rand.Reader, secret, tt, 7, testModulus)
	partial := shares[:tt] // only t shares
	for _, guess := range []int64{0, 5, 99} {
		forged := append(append([]Share{}, partial...), Share{Index: 7, Value: big.NewInt(guess)})
		if _, err := Reconstruct(forged, tt, testModulus); err != nil {
			t.Fatalf("t shares + arbitrary point not interpolable: %v", err)
		}
	}
}

func TestValidateParams(t *testing.T) {
	cases := []struct {
		t, n   int
		wantOK bool
	}{
		{0, 1, true}, {2, 7, true}, {3, 4, true},
		{-1, 5, false}, {3, 3, false}, {0, 0, false},
	}
	for _, tc := range cases {
		err := ValidateParams(tc.t, tc.n)
		if (err == nil) != tc.wantOK {
			t.Fatalf("ValidateParams(%d,%d) err=%v, wantOK=%v", tc.t, tc.n, err, tc.wantOK)
		}
	}
}

func TestLagrangeSumsToSecret(t *testing.T) {
	f := func(a, b, c uint32) bool {
		poly := &Polynomial{
			Coeffs:  []*big.Int{big.NewInt(int64(a)), big.NewInt(int64(b)), big.NewInt(int64(c))},
			Modulus: testModulus,
		}
		shares := poly.Shares(5)
		got, err := Reconstruct(shares[1:4], 2, testModulus)
		return err == nil && got.Cmp(big.NewInt(int64(a))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInterpolateInExponent(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			secret, _ := g.RandomScalar(rand.Reader)
			shares, err := Split(rand.Reader, secret, 2, 5, g.Order())
			if err != nil {
				t.Fatal(err)
			}
			points := map[int]group.Point{
				shares[1].Index: g.BaseMul(shares[1].Value),
				shares[3].Index: g.BaseMul(shares[3].Value),
				shares[4].Index: g.BaseMul(shares[4].Value),
			}
			combined, err := InterpolateInExponent(g, points)
			if err != nil {
				t.Fatal(err)
			}
			if !combined.Equal(g.BaseMul(secret)) {
				t.Fatal("exponent interpolation does not yield secret*G")
			}
		})
	}
}

func TestFeldmanVSS(t *testing.T) {
	g := group.Edwards25519()
	secret, _ := g.RandomScalar(rand.Reader)
	poly, err := NewPolynomial(rand.Reader, secret, 2, g.Order())
	if err != nil {
		t.Fatal(err)
	}
	com, err := poly.Commit(g)
	if err != nil {
		t.Fatal(err)
	}
	if !com.PublicKey().Equal(g.BaseMul(secret)) {
		t.Fatal("commitment public key mismatch")
	}
	for _, s := range poly.Shares(5) {
		if !com.VerifyShare(s) {
			t.Fatalf("valid share %d rejected", s.Index)
		}
		bad := s.Clone()
		bad.Value.Add(bad.Value, big.NewInt(1))
		if com.VerifyShare(bad) {
			t.Fatalf("corrupted share %d accepted", s.Index)
		}
	}
}

func TestFeldmanModulusMismatch(t *testing.T) {
	poly, _ := NewPolynomial(rand.Reader, big.NewInt(5), 1, big.NewInt(97))
	if _, err := poly.Commit(group.Edwards25519()); err == nil {
		t.Fatal("modulus mismatch must be rejected")
	}
}

func TestIntegerLagrange(t *testing.T) {
	// Share an integer secret over Z_m (m composite) and reconstruct
	// Δ^2-scaled as Shoup's combine does: Σ λ_j s_j = Δ · f(0) when
	// λ_j = Δ·Π(0-k)/(j-k).
	const n, tt = 5, 2
	delta := mathutil.Factorial(n)
	m := big.NewInt(15485863 * 2) // composite modulus, like m = p'q'
	secret := big.NewInt(123456)
	poly, err := NewPolynomial(rand.Reader, secret, tt, m)
	if err != nil {
		t.Fatal(err)
	}
	shares := poly.Shares(n)
	subset := []int{1, 3, 5}
	acc := new(big.Int)
	for _, j := range subset {
		lambda, err := IntegerLagrangeCoefficient(delta, j, subset)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(acc, new(big.Int).Mul(lambda, shares[j-1].Value))
	}
	acc.Mod(acc, m)
	want := mathutil.MulMod(delta, secret, m)
	if acc.Cmp(want) != 0 {
		t.Fatalf("Σ λ_j s_j = %v, want Δ·secret = %v", acc, want)
	}
}

func TestIntegerLagrangeExactDivision(t *testing.T) {
	// Δ = l! must clear the denominator for every subset of {1..l} and
	// every member index.
	const n = 7
	delta := mathutil.Factorial(n)
	subsets := [][]int{{1, 2, 3}, {2, 4, 6}, {1, 4, 7}, {5, 6, 7}, {1, 2, 3, 4, 5}}
	for _, s := range subsets {
		for _, j := range s {
			if _, err := IntegerLagrangeCoefficient(delta, j, s); err != nil {
				t.Fatalf("subset %v index %d: %v", s, j, err)
			}
		}
	}
}

func TestIntegerLagrangeUnknownIndex(t *testing.T) {
	if _, err := IntegerLagrangeCoefficient(mathutil.Factorial(5), 9, []int{1, 2, 3}); err == nil {
		t.Fatal("index outside subset must error")
	}
}

func TestCanonicalSubset(t *testing.T) {
	cases := []struct {
		in, want []int
	}{
		{nil, []int{}},
		{[]int{}, []int{}},
		{[]int{3}, []int{3}},
		{[]int{3, 1, 2}, []int{1, 2, 3}},
		{[]int{2, 1, 2, 3, 1}, []int{1, 2, 3}},
		{[]int{5, 5, 5}, []int{5}},
	}
	for _, c := range cases {
		got := CanonicalSubset(c.in)
		if len(got) != len(c.want) {
			t.Fatalf("CanonicalSubset(%v) = %v, want %v", c.in, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("CanonicalSubset(%v) = %v, want %v", c.in, got, c.want)
			}
		}
	}
	// The input slice is never mutated.
	in := []int{4, 2, 4, 1}
	CanonicalSubset(in)
	if in[0] != 4 || in[1] != 2 || in[2] != 4 || in[3] != 1 {
		t.Fatalf("input mutated: %v", in)
	}
}
