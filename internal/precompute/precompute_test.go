package precompute

import (
	"crypto/rand"
	"math/big"
	"sync"
	"testing"

	"thetacrypt/internal/group"
)

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
			b := NewSuite(rand.Reader, Options{}).Verifier()
			if err := b.Verify(g, []group.Relation{relFor(t, g), relFor(t, g)}); err != nil {
				t.Fatalf("true relations rejected: %v", err)
			}
			if err := b.Verify(g, []group.Relation{relFor(t, g), badRel(g)}); err != ErrRelation {
				t.Fatalf("false relation accepted: %v", err)
			}
			if err := b.Verify(g, []group.Relation{relFor(t, g)}); err != nil {
				t.Fatalf("a rejected item poisoned the next one: %v", err)
			}
			if st := b.Stats(); st.BatchesVerified != 3 || st.BatchedRelations != 5 {
				t.Fatalf("want three checks of 5 relations in all, got %+v", st)
			}
		})
	}
}

func TestBatchVerifyFailureOnlyRejectsBadCaller(t *testing.T) {
	b := NewSuite(rand.Reader, Options{}).Verifier()
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
	if st := b.Stats(); st.BatchesVerified != good+1 || st.BatchedRelations != good+1 {
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
	if st := b.Stats(); st != (Stats{}) {
		t.Fatalf("nil verifier counted %+v", st)
	}
}

// --- Benchmarks ---

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
