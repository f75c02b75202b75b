// Package precompute is the amortization layer under the threshold
// schemes: work whose cost does not depend on the request payload is
// done once and reused across requests, and the share checks that
// remain are counted.
//
// One suite, two parts:
//
//   - Cache memoizes Lagrange coefficient maps keyed by (scheme, key,
//     epoch, canonical signer subset), replacing the per-call
//     recomputation in the schemes' combine and share-verification
//     paths.
//   - Verifier runs one direct check per peer share of SG02 and CKS05:
//     the linear point relations of its DLEQ proof, each as written, and
//     counts the checks and relations. BLS04 and KG20 shares never reach
//     it: their signatures verify themselves, so those schemes check the
//     combined result once instead.
//
// Everything is keyed by the key's epoch: material precomputed under an
// old sharing can never be combined with shares of a new one (Gennaro
// et al.'s binding requirement for preprocessed material under
// proactive resharing).
package precompute

import "io"

// coeffCap bounds the number of cached coefficient maps; the oldest is
// evicted first.
const coeffCap = 1024

// Options is empty and unused. It stays only as NewSuite's second
// argument.
type Options struct{}

// Stats is a point-in-time snapshot of the suite's counters, exported
// through the engine's stats and /v2/info.
type Stats struct {
	LagrangeHits   int64
	LagrangeMisses int64
	// BatchesVerified counts peer-share checks, one per Verify call with
	// relations; BatchedRelations counts the relations they checked.
	BatchesVerified  int64
	BatchedRelations int64
}

// Suite bundles the two parts behind one handle the engine owns and
// threads into every protocol instance. A nil *Suite is valid and
// disables both caching and counting (direct computation everywhere).
type Suite struct {
	coeffs *Cache
	verify *Verifier
}

// NewSuite builds a suite. Neither argument is used; both stay only
// because benchmark code outside this package calls
// NewSuite(rand.Reader, Options{}).
func NewSuite(_ io.Reader, _ Options) *Suite {
	return &Suite{coeffs: newCache(coeffCap), verify: &Verifier{}}
}

// Coefficients returns the cached coefficient source bound to one
// (scheme, key, epoch); nil (direct computation) on a nil suite.
func (s *Suite) Coefficients(scheme, keyID string, epoch int) CoeffSource {
	if s == nil {
		return CoeffSource{}
	}
	return CoeffSource{cache: s.coeffs, scheme: scheme, keyID: keyID, epoch: epoch}
}

// Verifier returns the suite's counting share checker (nil on a nil
// suite; a nil *Verifier checks without counting).
func (s *Suite) Verifier() *Verifier {
	if s == nil {
		return nil
	}
	return s.verify
}

// Invalidate drops all material of the named key precomputed under an
// epoch older than keepEpoch — the reshare-finalization hook. Lookups
// are epoch-keyed, so this is memory hygiene rather than a correctness
// requirement: stale entries could never be returned for the new epoch.
func (s *Suite) Invalidate(scheme, keyID string, keepEpoch int) {
	if s == nil {
		return
	}
	s.coeffs.invalidate(scheme, keyID, keepEpoch)
}

// Stats snapshots all counters.
func (s *Suite) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		LagrangeHits:     s.coeffs.hits.Load(),
		LagrangeMisses:   s.coeffs.misses.Load(),
		BatchesVerified:  s.verify.checks.Load(),
		BatchedRelations: s.verify.relations.Load(),
	}
}
