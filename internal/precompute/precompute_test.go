package precompute

import (
	"crypto/rand"
	"math/big"
	"runtime"
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
	s := NewSuite(rand.Reader, Options{CoeffCap: 2})
	g := group.Edwards25519()
	for epoch := 1; epoch <= 3; epoch++ {
		if _, err := s.Coefficients("KG20", "k", epoch).Lagrange([]int{1, 2}, g.Order()); err != nil {
			t.Fatal(err)
		}
	}
	// Epoch 1 is the oldest entry and must have been evicted.
	if _, err := s.Coefficients("KG20", "k", 1).Lagrange([]int{1, 2}, g.Order()); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.LagrangeMisses != 4 {
		t.Fatalf("want 4 misses after eviction, got %d", st.LagrangeMisses)
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

// --- Batch verifier ---

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

// parkThenDrain submits each relation set from its own goroutine while
// a flush is marked as running, so all of them park in one pending
// batch; it then drains that batch as the flushing caller would and
// returns every caller's verdict. This makes the fold-and-replay path
// deterministic instead of depending on how goroutines interleave.
func parkThenDrain(t *testing.T, b *BatchVerifier, g group.Group, sets [][]group.Relation) []error {
	t.Helper()
	b.mu.Lock()
	b.flushing = true
	b.mu.Unlock()
	errs := make([]error, len(sets))
	var wg sync.WaitGroup
	for i, rels := range sets {
		wg.Add(1)
		go func(i int, rels []group.Relation) {
			defer wg.Done()
			errs[i] = b.Verify(g, rels)
		}(i, rels)
	}
	for {
		b.mu.Lock()
		n := len(b.pending)
		b.mu.Unlock()
		if n == len(sets) {
			break
		}
		runtime.Gosched()
	}
	b.drain()
	wg.Wait()
	return errs
}

func TestBatchVerifyPassesAndFailsWithAttribution(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			s := NewSuite(rand.Reader, Options{})
			b := s.Verifier()

			// Two concurrent items fold into one multi-scalar
			// multiplication and pass together.
			errs := parkThenDrain(t, b, g, [][]group.Relation{
				{relFor(t, g), relFor(t, g)},
				{relFor(t, g)},
			})
			for i, err := range errs {
				if err != nil {
					t.Fatalf("true relations of caller %d rejected: %v", i, err)
				}
			}
			if st := s.Stats(); st.BatchesVerified != 1 || st.CoalescedRequests != 1 || st.BatchFallbacks != 0 {
				t.Fatalf("want one folded batch of two and no fallback, got %+v", st)
			}

			// A false relation in a fold fails the batch, which is
			// replayed so that only its caller is rejected.
			errs = parkThenDrain(t, b, g, [][]group.Relation{
				{relFor(t, g)},
				{relFor(t, g), badRel(g)},
				{relFor(t, g)},
			})
			if errs[0] != nil || errs[2] != nil {
				t.Fatalf("good callers rejected alongside the bad one: %v", errs)
			}
			if errs[1] != ErrRelation {
				t.Fatalf("false relation accepted: %v", errs[1])
			}
			if st := s.Stats(); st.BatchFallbacks != 1 {
				t.Fatalf("failed batch should have been replayed individually once, got %d fallbacks", st.BatchFallbacks)
			}
		})
	}
}

// TestBatchVerifyLoneItemIsDirect: a flush holding one item checks its
// relations as written, with no fold and so no fallback, and its
// verdict is that item's alone.
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
			st := s.Stats()
			if st.BatchesVerified != 3 || st.BatchedRelations != 5 || st.MaxBatch != 1 {
				t.Fatalf("want three one-item batches of 5 relations in all, got %+v", st)
			}
			if st.BatchFallbacks != 0 || st.CoalescedRequests != 0 {
				t.Fatalf("a lone item must not take the fold-and-replay path, got %+v", st)
			}
		})
	}
}

func TestBatchVerifyCoalescesConcurrentCallers(t *testing.T) {
	s := NewSuite(rand.Reader, Options{})
	b := s.Verifier()
	g := group.Edwards25519()

	const callers = 16
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = b.Verify(g, []group.Relation{relFor(t, g)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d rejected: %v", i, err)
		}
	}
	st := s.Stats()
	if st.BatchedRelations != callers {
		t.Fatalf("want %d relations verified, got %d", callers, st.BatchedRelations)
	}
	// Coalescing is scheduling-dependent; what must hold is conservation:
	// every caller is accounted for either as a flush or as a coalesced
	// rider, and no batch exceeded the caller count.
	if st.BatchesVerified+st.CoalescedRequests != callers {
		t.Fatalf("batches %d + coalesced %d != callers %d",
			st.BatchesVerified, st.CoalescedRequests, callers)
	}
	if st.MaxBatch < 1 || st.MaxBatch > callers {
		t.Fatalf("max batch %d out of range", st.MaxBatch)
	}
}

func TestBatchVerifyFailureOnlyRejectsBadCaller(t *testing.T) {
	s := NewSuite(rand.Reader, Options{})
	b := s.Verifier()
	g := group.Edwards25519()

	// One bad caller among many good ones: attribution must be exact
	// regardless of how the callers landed in batches.
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
}

func TestNilBatchVerifierIsDirect(t *testing.T) {
	var b *BatchVerifier
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
			if err := checkDirect(g, r); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkBatchVerify(b *testing.B) {
	g := group.Edwards25519()
	v := newBatchVerifier(rand.Reader)
	rels := benchRels(b, g, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for _, r := range rels {
			wg.Add(1)
			go func(r []group.Relation) {
				defer wg.Done()
				if err := v.Verify(g, r); err != nil {
					b.Error(err)
				}
			}(r)
		}
		wg.Wait()
	}
}
