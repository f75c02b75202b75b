package precompute

import (
	"crypto/rand"
	"math/big"
	"runtime"
	"sync"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/schemes/frost"
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
	if s.Verifier() != nil || s.NoncePool() != nil {
		t.Fatal("nil suite must hand out nil verifier and pool")
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

// --- FROST nonce pool ---

// bankFor fills a pool bank for members 1..n with count slots under
// refill run `run`.
func bankFor(t *testing.T, p *NoncePool, scheme, keyID string, epoch, n, count int, run, base uint64) {
	t.Helper()
	g := group.Edwards25519()
	for idx := 1; idx <= n; idx++ {
		nonces, comms, err := frost.Precompute(rand.Reader, g, idx, count)
		if err != nil {
			t.Fatal(err)
		}
		if idx == 1 {
			p.BankOwn(scheme, keyID, epoch, run, base, nonces, comms)
		} else {
			p.Observe(scheme, keyID, epoch, run, base, comms)
		}
	}
}

func TestNoncePoolAcquireConsumes(t *testing.T) {
	s := NewSuite(rand.Reader, Options{PoolDepth: 4})
	p := s.NoncePool()
	bankFor(t, p, "KG20", "k", 1, 3, 4, p.run, 0)

	if d := p.DepthOf("KG20", "k", 1); d != 4 {
		t.Fatalf("banked depth = %d, want 4", d)
	}
	seq, nonce, comms, ok := p.Acquire("KG20", "k", 1, []int{1, 2})
	if !ok || nonce == nil || len(comms) != 2 {
		t.Fatalf("acquire failed: ok=%v comms=%d", ok, len(comms))
	}
	if seq != 0 {
		t.Fatalf("lowest slot should be consumed first, got seq %d", seq)
	}
	if d := p.DepthOf("KG20", "k", 1); d != 3 {
		t.Fatalf("depth after acquire = %d, want 3", d)
	}
	// The consumed slot is gone for good: a follower cannot claim it.
	if _, _, ok := p.Claim("KG20", "k", 1, seq, 1); ok {
		t.Fatal("consumed slot claimable again — nonce reuse")
	}
}

func TestNoncePoolClaimConsumes(t *testing.T) {
	s := NewSuite(rand.Reader, Options{PoolDepth: 2})
	p := s.NoncePool()
	bankFor(t, p, "KG20", "k", 1, 3, 2, p.run, 0)

	nonce, own, ok := p.Claim("KG20", "k", 1, 1, 1)
	if !ok || nonce == nil || own == nil {
		t.Fatalf("claim failed: ok=%v", ok)
	}
	if _, _, ok := p.Claim("KG20", "k", 1, 1, 1); ok {
		t.Fatal("slot claimable twice — nonce reuse")
	}
	if d := p.DepthOf("KG20", "k", 1); d != 1 {
		t.Fatalf("depth after claim = %d, want 1", d)
	}
}

func TestNoncePoolExhaustionAndIncompleteSlots(t *testing.T) {
	s := NewSuite(rand.Reader, Options{PoolDepth: 2})
	p := s.NoncePool()
	g := group.Edwards25519()

	// Bank own nonces but only member 2's commitments: slots are
	// incomplete for signer set {1, 3} and must not be acquirable.
	nonces, comms, err := frost.Precompute(rand.Reader, g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.BankOwn("KG20", "k", 1, p.run, 0, nonces, comms)
	n2, c2, err := frost.Precompute(rand.Reader, g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	_ = n2
	p.Observe("KG20", "k", 1, p.run, 0, c2)

	if _, _, _, ok := p.Acquire("KG20", "k", 1, []int{1, 3}); ok {
		t.Fatal("acquired a slot missing signer 3's commitment")
	}
	if st := s.Stats(); st.NonceExhaustions != 1 {
		t.Fatalf("exhaustions = %d, want 1", st.NonceExhaustions)
	}
	// The same slots are complete for {1, 2}.
	if _, _, _, ok := p.Acquire("KG20", "k", 1, []int{1, 2}); !ok {
		t.Fatal("complete slot not acquirable")
	}
}

func TestNoncePoolRefillWatermark(t *testing.T) {
	s := NewSuite(rand.Reader, Options{PoolDepth: 4, PoolRefill: 2})
	p := s.NoncePool()

	_, base, count, need := p.NeedRefill("KG20", "k", 1)
	if !need || base != 0 || count != 4 {
		t.Fatalf("empty bank: need=%v base=%d count=%d, want refill of 4 from 0", need, base, count)
	}
	bankFor(t, p, "KG20", "k", 1, 2, 4, p.run, 0)
	if _, _, _, need := p.NeedRefill("KG20", "k", 1); need {
		t.Fatal("full bank should not need a refill")
	}
	// Consume down to the watermark.
	p.Acquire("KG20", "k", 1, []int{1, 2})
	p.Acquire("KG20", "k", 1, []int{1, 2})
	p.Acquire("KG20", "k", 1, []int{1, 2})
	_, base, count, need = p.NeedRefill("KG20", "k", 1)
	if !need || base != 4 || count != 3 {
		t.Fatalf("depleted bank: need=%v base=%d count=%d, want refill of 3 from 4", need, base, count)
	}
}

func TestNoncePoolReplayCannotResurrect(t *testing.T) {
	s := NewSuite(rand.Reader, Options{PoolDepth: 2})
	p := s.NoncePool()
	g := group.Edwards25519()
	nonces, comms, err := frost.Precompute(rand.Reader, g, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.BankOwn("KG20", "k", 1, p.run, 0, nonces, comms)
	if _, _, ok := p.Claim("KG20", "k", 1, 0, 1); !ok {
		t.Fatal("claim failed")
	}
	// Replaying the same refill must not resurrect the consumed slot.
	p.BankOwn("KG20", "k", 1, p.run, 0, nonces, comms)
	if _, _, ok := p.Claim("KG20", "k", 1, 0, 1); ok {
		t.Fatal("replayed refill resurrected a consumed nonce")
	}
}

// TestNoncePoolRestartedInitiatorOpensFreshRun: the refill initiator's
// sequence counter is volatile, so after a restart it proposes base 0
// again — under a NEW per-boot run id. Followers must re-bank those
// sequence numbers in the fresh namespace instead of skipping them via
// the high-water-mark guard (skipping while still broadcasting
// commitments is the divergence that hard-fails every later pooled
// round), and the old run's slots — unusable since the initiator lost
// its secrets — must be dropped with the reset.
func TestNoncePoolRestartedInitiatorOpensFreshRun(t *testing.T) {
	s := NewSuite(rand.Reader, Options{PoolDepth: 2})
	p := s.NoncePool()

	// Life 1 of the initiator: run A banks seqs 0..1; one is consumed.
	bankFor(t, p, "KG20", "k", 1, 2, 2, 111, 0)
	if _, _, _, ok := p.Acquire("KG20", "k", 1, []int{1, 2}); !ok {
		t.Fatal("run-A slot not acquirable")
	}

	// Life 2: the restarted initiator proposes base 0 again, run B.
	bankFor(t, p, "KG20", "k", 1, 2, 2, 222, 0)
	if d := p.DepthOf("KG20", "k", 1); d != 2 {
		t.Fatalf("run-B refill banked depth %d, want 2 (old run dropped, base 0 re-banked)", d)
	}
	seq, nonce, comms, ok := p.Acquire("KG20", "k", 1, []int{1, 2})
	if !ok || nonce == nil || len(comms) != 2 {
		t.Fatalf("run-B slot not acquirable: ok=%v", ok)
	}
	if seq != 0 {
		t.Fatalf("run-B sequence numbers must restart at 0, got %d", seq)
	}
	// Consume-once still holds within the new run.
	if _, _, ok := p.Claim("KG20", "k", 1, seq, 1); ok {
		t.Fatal("consumed run-B slot claimable again")
	}
}

func TestNoncePoolEpochInvalidation(t *testing.T) {
	s := NewSuite(rand.Reader, Options{PoolDepth: 2})
	p := s.NoncePool()
	bankFor(t, p, "KG20", "k", 1, 2, 2, p.run, 0)
	bankFor(t, p, "KG20", "k", 2, 2, 2, p.run, 0)

	// Epoch keying alone already prevents cross-epoch use.
	if _, _, _, ok := p.Acquire("KG20", "k", 3, []int{1, 2}); ok {
		t.Fatal("acquired material for an epoch never banked")
	}
	s.Invalidate("KG20", "k", 2)
	if d := p.DepthOf("KG20", "k", 1); d != 0 {
		t.Fatalf("old epoch survived invalidation, depth %d", d)
	}
	if d := p.DepthOf("KG20", "k", 2); d != 2 {
		t.Fatalf("current epoch dropped by invalidation, depth %d", d)
	}
}

func TestPoolDisabled(t *testing.T) {
	s := NewSuite(rand.Reader, Options{})
	if s.NoncePool().Enabled() {
		t.Fatal("pool enabled without PoolDepth")
	}
	if _, _, _, need := s.NoncePool().NeedRefill("KG20", "k", 1); need {
		t.Fatal("disabled pool wants a refill")
	}
	if _, _, _, ok := s.NoncePool().Acquire("KG20", "k", 1, []int{1}); ok {
		t.Fatal("disabled pool handed out a nonce")
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

func BenchmarkNoncePoolAcquire(b *testing.B) {
	g := group.Edwards25519()
	p := newNoncePool(rand.Reader, 64, 32)
	signers := []int{1, 2}
	// Pre-bank b.N slots outside the timer.
	for idx := 1; idx <= 2; idx++ {
		batch := 1024
		var all []*frost.Nonce
		var comms []*frost.NonceCommitment
		for len(all) < b.N {
			ns, cs, err := frost.Precompute(rand.Reader, g, idx, batch)
			if err != nil {
				b.Fatal(err)
			}
			all, comms = append(all, ns...), append(comms, cs...)
		}
		if idx == 1 {
			p.BankOwn("KG20", "k", 1, p.run, 0, all, comms)
		} else {
			p.Observe("KG20", "k", 1, p.run, 0, comms)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := p.Acquire("KG20", "k", 1, signers); !ok {
			b.Fatal("pool ran dry")
		}
	}
}
