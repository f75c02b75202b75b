package share_test

import (
	"bytes"
	"crypto/rand"
	"fmt"
	"math/big"
	"testing"

	"thetacrypt/internal/dkg"
	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
)

// evalWithMul is EvalInExponent as it was computed before the index
// multiplications became additions: Horner's rule with Point.Mul.
func evalWithMul(c *share.FeldmanCommitment, x int) group.Point {
	xv := big.NewInt(int64(x))
	acc := c.Group.Identity()
	for i := len(c.Points) - 1; i >= 0; i-- {
		acc = acc.Mul(xv).Add(c.Points[i])
	}
	return acc
}

// oldCombine is dkg.Combine's public half as it was computed before
// folding: Y = Σ_d A_{d,0}, and VK_j = Σ_d f_d(j)*G with every dealer's
// commitment evaluated at every j.
func oldCombine(g group.Group, n int, qual []int, coms map[int]*share.FeldmanCommitment) (group.Point, []group.Point) {
	y := g.Identity()
	for _, d := range qual {
		y = y.Add(coms[d].PublicKey())
	}
	vk := make([]group.Point, n)
	for j := 1; j <= n; j++ {
		acc := g.Identity()
		for _, d := range qual {
			acc = acc.Add(evalWithMul(coms[d], j))
		}
		vk[j-1] = acc
	}
	return y, vk
}

// oldNewVerificationKeys is share.NewVerificationKeys as it was
// computed before folding, over the given dealers: VK'_j =
// Σ_d λ_d·F_d(j) and pub = Σ_d λ_d·A_{d,0}.
func oldNewVerificationKeys(g group.Group, newN int, dealers []int, coms map[int]*share.FeldmanCommitment) ([]group.Point, group.Point) {
	vk := make([]group.Point, newN)
	for j := 1; j <= newN; j++ {
		acc := g.Identity()
		for _, d := range dealers {
			lambda, _ := share.LagrangeCoefficient(d, dealers, g.Order())
			acc = acc.Add(evalWithMul(coms[d], j).Mul(lambda))
		}
		vk[j-1] = acc
	}
	pub := g.Identity()
	for _, d := range dealers {
		lambda, _ := share.LagrangeCoefficient(d, dealers, g.Order())
		pub = pub.Add(coms[d].PublicKey().Mul(lambda))
	}
	return vk, pub
}

func samePoints(t *testing.T, what string, got, want []group.Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Marshal(), want[i].Marshal()) {
			t.Fatalf("%s: point %d differs from the old formula", what, i+1)
		}
	}
}

// dkgDealings runs the dealing step of an (t, n) DKG and returns every
// dealer's commitment and the sub-shares party 1 receives.
func dkgDealings(t *testing.T, g group.Group, tt, n int) (map[int]*share.FeldmanCommitment, map[int]share.Share) {
	t.Helper()
	coms := make(map[int]*share.FeldmanCommitment, n)
	subs := make(map[int]share.Share, n)
	for d := 1; d <= n; d++ {
		p, err := dkg.NewParticipant(g, d, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		dealing, err := p.Deal(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		coms[d], subs[d] = dealing.Commitment, dealing.SubShares[0]
	}
	return coms, subs
}

// resharings has each of the given holders of a random (oldT, oldN)
// sharing deal a (newT, newN) resharing, and returns the commitments.
func resharings(t *testing.T, g group.Group, oldT, oldN, newT, newN int, dealers []int) map[int]*share.FeldmanCommitment {
	t.Helper()
	secret, _ := g.RandomScalar(rand.Reader)
	old, err := share.Split(rand.Reader, secret, oldT, oldN, g.Order())
	if err != nil {
		t.Fatal(err)
	}
	coms := make(map[int]*share.FeldmanCommitment, len(dealers))
	for _, d := range dealers {
		re, err := share.Reshare(rand.Reader, g, old[d-1], newT, newN)
		if err != nil {
			t.Fatal(err)
		}
		coms[d] = re.Commitment
	}
	return coms
}

// TestFoldedFinalizeMatchesOldFormula: dkg.Combine and
// NewVerificationKeys compute their public results from one folded
// commitment; the group key and every verification key are the same
// group elements, byte for byte, as the per-dealer formula gives.
func TestFoldedFinalizeMatchesOldFormula(t *testing.T) {
	for _, g := range []group.Group{group.P256(), group.Edwards25519()} {
		for _, p := range []struct{ t, n int }{{0, 1}, {1, 4}, {2, 7}, {3, 10}} {
			t.Run(fmt.Sprintf("%s/%d-of-%d", g.Name(), p.t+1, p.n), func(t *testing.T) {
				coms, subs := dkgDealings(t, g, p.t, p.n)
				qual := make([]int, 0, p.n)
				for d := 1; d <= p.n; d++ {
					// Leave dealer 2 out where the quorum allows it.
					if d != 2 || p.n < p.t+2 {
						qual = append(qual, d)
					}
				}
				res, err := dkg.Combine(g, 1, p.t, p.n, qual, coms, subs)
				if err != nil {
					t.Fatal(err)
				}
				y, vk := oldCombine(g, p.n, qual, coms)
				samePoints(t, "keygen", append([]group.Point{res.PublicKey}, res.VK...), append([]group.Point{y}, vk...))

				// A refresh, by the last oldT+1 holders so that the
				// Lagrange weights are not those of 1..oldT+1.
				dealers := make([]int, 0, p.t+1)
				for d := p.n - p.t; d <= p.n; d++ {
					dealers = append(dealers, d)
				}
				rcoms := resharings(t, g, p.t, p.n, p.t, p.n, dealers)
				gotVK, gotPub, err := share.NewVerificationKeys(g, p.t, p.n, rcoms)
				if err != nil {
					t.Fatal(err)
				}
				wantVK, wantPub := oldNewVerificationKeys(g, p.n, dealers, rcoms)
				samePoints(t, "refresh", append([]group.Point{gotPub}, gotVK...), append([]group.Point{wantPub}, wantVK...))
			})
		}
		t.Run(g.Name()+"/3-of-7-to-4-of-10", func(t *testing.T) {
			dealers := []int{2, 5, 7}
			coms := resharings(t, g, 2, 7, 3, 10, dealers)
			gotVK, gotPub, err := share.NewVerificationKeys(g, 2, 10, coms)
			if err != nil {
				t.Fatal(err)
			}
			wantVK, wantPub := oldNewVerificationKeys(g, 10, dealers, coms)
			samePoints(t, "membership change", append([]group.Point{gotPub}, gotVK...), append([]group.Point{wantPub}, wantVK...))
		})
	}
}

// TestReshareQuorumIsLowestDealers: given more than oldT+1 dealers,
// NewVerificationKeys and CombineReshares both use the oldT+1 lowest
// indices, so every call (and every node) derives the same sharing
// however the map iterates.
func TestReshareQuorumIsLowestDealers(t *testing.T) {
	g := group.P256()
	const oldT, oldN, newT, newN = 1, 4, 1, 4
	dealers := []int{1, 2, 3, 4}[:oldT+2]
	secret, _ := g.RandomScalar(rand.Reader)
	old, err := share.Split(rand.Reader, secret, oldT, oldN, g.Order())
	if err != nil {
		t.Fatal(err)
	}
	coms := make(map[int]*share.FeldmanCommitment)
	subs := make(map[int]share.Share) // addressed to new party 1
	for _, d := range dealers {
		re, err := share.Reshare(rand.Reader, g, old[d-1], newT, newN)
		if err != nil {
			t.Fatal(err)
		}
		coms[d], subs[d] = re.Commitment, re.SubShares[0]
	}
	lowest := dealers[:oldT+1]
	wantVK, wantPub := oldNewVerificationKeys(g, newN, lowest, coms)
	wantX := new(big.Int)
	for _, d := range lowest {
		lambda, _ := share.LagrangeCoefficient(d, lowest, g.Order())
		wantX.Add(wantX, new(big.Int).Mul(lambda, subs[d].Value))
	}
	wantX.Mod(wantX, g.Order())
	for i := 0; i < 50; i++ {
		vk, pub, err := share.NewVerificationKeys(g, oldT, newN, coms)
		if err != nil {
			t.Fatal(err)
		}
		samePoints(t, "verification keys", append([]group.Point{pub}, vk...), append([]group.Point{wantPub}, wantVK...))
		x, err := share.CombineReshares(g, 1, oldT, subs)
		if err != nil {
			t.Fatal(err)
		}
		if x.Cmp(wantX) != 0 {
			t.Fatalf("call %d combined a share of another quorum", i)
		}
	}
}

// counts tallies the scalar multiplications of a countingGroup.
type counts struct{ mul, baseMul int }

// countingGroup wraps a group and counts Point.Mul and Group.BaseMul
// calls on it. It does not offer group.MultiScalarMul's fast path, so
// a multi-scalar multiplication over it runs the generic per-term sum,
// which P-256 runs anyway.
type countingGroup struct {
	group.Group
	c *counts
}

type countingPoint struct {
	group.Point
	c *counts
}

func (g countingGroup) wrap(p group.Point) group.Point { return countingPoint{p, g.c} }

func (g countingGroup) Identity() group.Point  { return g.wrap(g.Group.Identity()) }
func (g countingGroup) Generator() group.Point { return g.wrap(g.Group.Generator()) }
func (g countingGroup) BaseMul(k *big.Int) group.Point {
	g.c.baseMul++
	return g.wrap(g.Group.BaseMul(k))
}
func (g countingGroup) HashToPoint(domain string, data ...[]byte) group.Point {
	return g.wrap(g.Group.HashToPoint(domain, data...))
}
func (g countingGroup) UnmarshalPoint(data []byte) (group.Point, error) {
	p, err := g.Group.UnmarshalPoint(data)
	if err != nil {
		return nil, err
	}
	return g.wrap(p), nil
}

func (p countingPoint) Add(q group.Point) group.Point {
	return countingPoint{p.Point.Add(q.(countingPoint).Point), p.c}
}
func (p countingPoint) Neg() group.Point { return countingPoint{p.Point.Neg(), p.c} }
func (p countingPoint) Mul(k *big.Int) group.Point {
	p.c.mul++
	return countingPoint{p.Point.Mul(k), p.c}
}
func (p countingPoint) Equal(q group.Point) bool {
	qq, ok := q.(countingPoint)
	return ok && p.Point.Equal(qq.Point)
}

// TestFinalizeMultiplicationCounts pins the scalar multiplications of a
// dealing's finish on the benchmark's key-lifecycle shape (P-256, n = 4,
// t = 1): keygen's finish and every sub-share check multiply by share
// indices with additions only, and a reshare's finish pays one Point.Mul
// per folded coefficient and dealer at most.
func TestFinalizeMultiplicationCounts(t *testing.T) {
	const tt, n = 1, 4
	c := &counts{}
	g := countingGroup{group.P256(), c}
	coms, subs := dkgDealings(t, g, tt, n)
	qual := []int{1, 2, 3, 4}

	*c = counts{}
	if _, err := dkg.Combine(g, 1, tt, n, qual, coms, subs); err != nil {
		t.Fatal(err)
	}
	if *c != (counts{}) {
		t.Errorf("keygen finish: %d Point.Mul, %d BaseMul; want none", c.mul, c.baseMul)
	}

	*c = counts{}
	if !coms[2].VerifyShare(subs[2]) {
		t.Fatal("valid sub-share rejected")
	}
	if *c != (counts{baseMul: 1}) {
		t.Errorf("VerifyShare: %d Point.Mul, %d BaseMul; want 0 and 1", c.mul, c.baseMul)
	}

	for _, dealers := range [][]int{{1, 2}, {2, 4}} {
		rcoms := resharings(t, g, tt, n, tt, n, dealers)
		*c = counts{}
		if _, _, err := share.NewVerificationKeys(g, tt, n, rcoms); err != nil {
			t.Fatal(err)
		}
		if c.mul > (tt+1)*(tt+1) || c.baseMul != 0 {
			t.Errorf("reshare finish by %v: %d Point.Mul, %d BaseMul; want at most %d and 0", dealers, c.mul, c.baseMul, (tt+1)*(tt+1))
		}
		// Dealers 1 and 2 weigh 2 and −1; the −1 is a negation.
		if dealers[0] == 1 && c.mul != tt+1 {
			t.Errorf("reshare finish by 1 and 2: %d Point.Mul, want %d", c.mul, tt+1)
		}
	}
}

// FuzzEvalInExponent checks EvalInExponent, which multiplies by the
// index with additions, against Σ A_k·x^k computed with Point.Mul, on
// both groups, for one to four coefficients and x in [0, 4096]. The
// committed corpus holds x = 0, 4096 and a value past it that wraps to
// 0, all-zero coefficients, and a 256-bit one.
func FuzzEvalInExponent(f *testing.F) {
	f.Fuzz(func(t *testing.T, x uint16, k uint8, a, b, c, d []byte) {
		idx := int(x) % 4097
		raw := [][]byte{a, b, c, d}[:1+int(k)%4]
		for _, g := range []group.Group{group.P256(), group.Edwards25519()} {
			com := &share.FeldmanCommitment{Group: g, Points: make([]group.Point, len(raw))}
			for i, r := range raw {
				if len(r) > 64 {
					r = r[:64]
				}
				com.Points[i] = g.BaseMul(new(big.Int).SetBytes(r))
			}
			want := g.Identity()
			for i, pt := range com.Points {
				xi := new(big.Int).Exp(big.NewInt(int64(idx)), big.NewInt(int64(i)), nil)
				want = want.Add(pt.Mul(xi))
			}
			got := com.EvalInExponent(idx)
			if !got.Equal(want) {
				t.Fatalf("%s: EvalInExponent(%d) over %d coefficients differs from Σ A_k·x^k", g.Name(), idx, len(raw))
			}
		}
	})
}
