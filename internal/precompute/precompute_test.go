package precompute

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
)

// --- Lagrange coefficient cache ---

func TestCacheHitMissAndPermutation(t *testing.T) {
	s := NewSuite(rand.Reader, Options{})
	g := group.Edwards25519()
	src := s.Coefficients("KG20", "k", 1)

	m1, err := src.Lagrange([]int{3, 1, 2}, g.Order())
	if err != nil {
		t.Fatal(err)
	}
	// A permutation (and a duplicate) of the same subset must hit the
	// same entry.
	m2, err := src.Lagrange([]int{1, 2, 3, 2}, g.Order())
	if err != nil {
		t.Fatal(err)
	}
	for idx := 1; idx <= 3; idx++ {
		if m1[idx].Cmp(m2[idx]) != 0 {
			t.Fatalf("coefficient for %d differs between permutations", idx)
		}
	}
	st := s.Stats()
	if st.LagrangeMisses != 1 || st.LagrangeHits != 1 {
		t.Fatalf("want 1 miss + 1 hit, got misses=%d hits=%d", st.LagrangeMisses, st.LagrangeHits)
	}

	// Cached values must agree with direct computation.
	direct, err := share.Coefficients([]int{1, 2, 3}, g.Order())
	if err != nil {
		t.Fatal(err)
	}
	for idx, want := range direct {
		if m1[idx].Cmp(want) != 0 {
			t.Fatalf("cached coefficient for %d disagrees with direct computation", idx)
		}
	}
}

func TestCacheEpochAndKeyIsolation(t *testing.T) {
	s := NewSuite(rand.Reader, Options{})
	g := group.Edwards25519()
	subset := []int{1, 2}

	if _, err := s.Coefficients("KG20", "k", 1).Lagrange(subset, g.Order()); err != nil {
		t.Fatal(err)
	}
	// A different epoch and a different key must each miss.
	if _, err := s.Coefficients("KG20", "k", 2).Lagrange(subset, g.Order()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Coefficients("KG20", "other", 1).Lagrange(subset, g.Order()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LagrangeMisses != 3 || st.LagrangeHits != 0 {
		t.Fatalf("want 3 misses + 0 hits, got misses=%d hits=%d", st.LagrangeMisses, st.LagrangeHits)
	}
}

func TestCacheInvalidateDropsOldEpochs(t *testing.T) {
	s := NewSuite(rand.Reader, Options{})
	g := group.Edwards25519()
	subset := []int{1, 2}
	for epoch := 1; epoch <= 3; epoch++ {
		if _, err := s.Coefficients("KG20", "k", epoch).Lagrange(subset, g.Order()); err != nil {
			t.Fatal(err)
		}
	}
	s.Invalidate("KG20", "k", 3)
	// Epochs 1 and 2 were dropped; epoch 3 survives.
	if _, err := s.Coefficients("KG20", "k", 3).Lagrange(subset, g.Order()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LagrangeHits != 1 {
		t.Fatalf("epoch-3 entry should have survived invalidation, hits=%d", st.LagrangeHits)
	}
	if _, err := s.Coefficients("KG20", "k", 2).Lagrange(subset, g.Order()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LagrangeMisses != 4 {
		t.Fatalf("epoch-2 entry should have been dropped, misses=%d", st.LagrangeMisses)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(2)
	g := group.Edwards25519()
	src := func(epoch int) CoeffSource {
		return CoeffSource{cache: c, scheme: "KG20", keyID: "k", epoch: epoch}
	}
	for epoch := 1; epoch <= 3; epoch++ {
		if _, err := src(epoch).Lagrange([]int{1, 2}, g.Order()); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 1 is the oldest entry and must have been evicted.
	if _, err := src(1).Lagrange([]int{1, 2}, g.Order()); err != nil {
		t.Fatal(err)
	}
	if misses := c.misses.Load(); misses != 4 {
		t.Fatalf("want 4 misses after eviction, got %d", misses)
	}
}

func TestNilSuiteIsDirect(t *testing.T) {
	var s *Suite
	g := group.Edwards25519()
	m, err := s.Coefficients("KG20", "k", 1).Lagrange([]int{1, 2}, g.Order())
	if err != nil || len(m) != 2 {
		t.Fatalf("nil suite must compute directly, got %v, %v", m, err)
	}
	if s.Verifier() != nil {
		t.Fatal("nil suite must hand out a nil verifier")
	}
	s.Invalidate("KG20", "k", 1)
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("nil suite stats must be zero, got %+v", st)
	}
}

// --- Share verifier ---

// relFor builds a true relation a*G + (-a)*G == 0 with a fresh scalar.
func relFor(t *testing.T, g group.Group) group.Relation {
	t.Helper()
	a, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	neg := new(big.Int).Sub(g.Order(), a)
	return group.Relation{
		Points:  []group.Point{g.Generator(), g.Generator()},
		Scalars: []*big.Int{a, neg},
	}
}

// badRel builds a relation that does not hold.
func badRel(g group.Group) group.Relation {
	return group.Relation{
		Points:  []group.Point{g.Generator()},
		Scalars: []*big.Int{big.NewInt(1)},
	}
}

// TestBatchVerifyLoneItemIsDirect: each call checks its relations as
// written and counts one check, and its verdict is that call's alone.
func TestBatchVerifyLoneItemIsDirect(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			s := NewSuite(rand.Reader, Options{})
			b := s.Verifier()
			if err := b.Verify(g, []group.Relation{relFor(t, g), relFor(t, g)}); err != nil {
				t.Fatalf("true relations rejected: %v", err)
			}
			if err := b.Verify(g, []group.Relation{relFor(t, g), badRel(g)}); err != ErrRelation {
				t.Fatalf("false relation accepted: %v", err)
			}
			if err := b.Verify(g, []group.Relation{relFor(t, g)}); err != nil {
				t.Fatalf("a rejected item poisoned the next one: %v", err)
			}
			if st := s.Stats(); st.BatchesVerified != 3 || st.BatchedRelations != 5 {
				t.Fatalf("want three checks of 5 relations in all, got %+v", st)
			}
		})
	}
}

func TestBatchVerifyFailureOnlyRejectsBadCaller(t *testing.T) {
	s := NewSuite(rand.Reader, Options{})
	b := s.Verifier()
	g := group.Edwards25519()

	// One bad caller among many concurrent good ones: verdicts and
	// counters must be exact.
	const good = 8
	var wg sync.WaitGroup
	goodErrs := make([]error, good)
	var badErr error
	for i := 0; i < good; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			goodErrs[i] = b.Verify(g, []group.Relation{relFor(t, g)})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		badErr = b.Verify(g, []group.Relation{badRel(g)})
	}()
	wg.Wait()
	for i, err := range goodErrs {
		if err != nil {
			t.Fatalf("good caller %d rejected: %v", i, err)
		}
	}
	if badErr != ErrRelation {
		t.Fatalf("bad caller accepted: %v", badErr)
	}
	if st := s.Stats(); st.BatchesVerified != good+1 || st.BatchedRelations != good+1 {
		t.Fatalf("want %d checks of one relation each, got %+v", good+1, st)
	}
}

func TestNilBatchVerifierIsDirect(t *testing.T) {
	var b *Verifier
	g := group.Edwards25519()
	if err := b.Verify(g, []group.Relation{relFor(t, g)}); err != nil {
		t.Fatalf("nil verifier rejected a true relation: %v", err)
	}
	if err := b.Verify(g, []group.Relation{badRel(g)}); err != ErrRelation {
		t.Fatalf("nil verifier accepted a false relation: %v", err)
	}
}

// --- Benchmarks: the amortization wins the PR claims ---

func BenchmarkLagrangeDirect(b *testing.B) {
	g := group.Edwards25519()
	subset := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := share.Coefficients(subset, g.Order()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLagrangeCached(b *testing.B) {
	s := NewSuite(rand.Reader, Options{})
	g := group.Edwards25519()
	src := s.Coefficients("KG20", "k", 1)
	subset := []int{1, 2, 3, 4, 5, 6, 7, 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := src.Lagrange(subset, g.Order()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRels(b *testing.B, g group.Group, n int) [][]group.Relation {
	b.Helper()
	out := make([][]group.Relation, n)
	for i := range out {
		a, err := g.RandomScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		neg := new(big.Int).Sub(g.Order(), a)
		out[i] = []group.Relation{{
			Points:  []group.Point{g.Generator(), g.Generator()},
			Scalars: []*big.Int{a, neg},
		}}
	}
	return out
}

func BenchmarkVerifyIndividual(b *testing.B) {
	g := group.Edwards25519()
	rels := benchRels(b, g, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range rels {
			if err := (*Verifier)(nil).Verify(g, r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
