// Package precompute is the amortization layer under the threshold
// schemes: work whose cost does not depend on the request payload is
// done once (or off the critical path) and reused across requests.
//
// Two mechanisms, one suite:
//
//   - Cache memoizes Lagrange coefficient maps keyed by (scheme, key,
//     epoch, canonical signer subset), replacing the per-call
//     recomputation in the schemes' combine and share-verification
//     paths.
//   - BatchVerifier folds the linear point relations of the DLEQ share
//     proofs of SG02 and CKS05 that are pending at the same time into
//     one random-linear-combination multi-scalar multiplication,
//     falling back to per-proof verification on batch failure so
//     signer attribution is preserved. In the measured deployments
//     concurrent requests do not coalesce (precompute.coalesced_ratio
//     reads 0.000 on every benchmark workload): nearly every flush
//     holds one proof, and a lone proof is checked directly, relation
//     by relation, at the cost of the equations as written. BLS04 and
//     KG20 shares never reach it: their signatures verify themselves,
//     so those schemes check the combined result once instead.
//
// Everything is keyed by the key's epoch: material precomputed under an
// old sharing can never be combined with shares of a new one (Gennaro
// et al.'s binding requirement for preprocessed material under
// proactive resharing).
package precompute

import "io"

// Options configures a Suite.
type Options struct {
	// CoeffCap bounds the number of cached coefficient maps (default
	// 1024, oldest evicted first).
	CoeffCap int
}

// Stats is a point-in-time snapshot of the suite's counters, exported
// through the engine's stats and /v2/info.
type Stats struct {
	LagrangeHits      int64
	LagrangeMisses    int64
	BatchesVerified   int64
	BatchedRelations  int64
	MaxBatch          int
	BatchFallbacks    int64
	CoalescedRequests int64
}

// Suite bundles the two mechanisms behind one handle the engine owns
// and threads into every protocol instance. A nil *Suite is valid and
// disables all precomputation (direct computation everywhere).
type Suite struct {
	coeffs *Cache
	batch  *BatchVerifier
}

// NewSuite builds a suite. rand seeds the batch verifier's random
// linear combinations.
func NewSuite(rand io.Reader, opts Options) *Suite {
	if opts.CoeffCap <= 0 {
		opts.CoeffCap = 1024
	}
	return &Suite{
		coeffs: newCache(opts.CoeffCap),
		batch:  newBatchVerifier(rand),
	}
}

// Coefficients returns the cached coefficient source bound to one
// (scheme, key, epoch); nil (direct computation) on a nil suite.
func (s *Suite) Coefficients(scheme, keyID string, epoch int) CoeffSource {
	if s == nil {
		return CoeffSource{}
	}
	return CoeffSource{cache: s.coeffs, scheme: scheme, keyID: keyID, epoch: epoch}
}

// Verifier returns the shared batch verifier (nil on a nil suite; a
// nil *BatchVerifier verifies directly).
func (s *Suite) Verifier() *BatchVerifier {
	if s == nil {
		return nil
	}
	return s.batch
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
		LagrangeHits:      s.coeffs.hits.Load(),
		LagrangeMisses:    s.coeffs.misses.Load(),
		BatchesVerified:   s.batch.batches.Load(),
		BatchedRelations:  s.batch.relations.Load(),
		MaxBatch:          int(s.batch.maxBatch.Load()),
		BatchFallbacks:    s.batch.fallbacks.Load(),
		CoalescedRequests: s.batch.coalesced.Load(),
	}
}
