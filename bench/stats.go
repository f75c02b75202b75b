package main

import (
	"math"
	"sort"

	"thetacrypt/api"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p percent of the samples at
// or below it. It returns NaN for an empty sample.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// nearestRank is the 1-based position of the p-th percentile among n
// sorted samples.
func nearestRank(n int, p float64) int {
	return min(max(int(math.Ceil(p*float64(n)/100)), 1), n)
}

// samplesBeyond is the number of samples strictly above the
// nearest-rank p-th percentile's position.
func samplesBeyond(n int, p float64) int { return n - nearestRank(n, p) }

// tailPercentile is the highest whole percentile of n samples that
// still has at least ten samples beyond it (p90 at 100 samples, p99 at
// 1000), and 0 when even the median has fewer.
func tailPercentile(n int) int {
	for p := 99; p >= 50; p-- {
		if samplesBeyond(n, float64(p)) >= 10 {
			return p
		}
	}
	return 0
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 50) }

// ratio is num/den, and 0 when den is 0: a layer that did no work has
// no ratio to report, and the report's consumers need a number.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counters is the sum, over every node of a deployment, of the
// cumulative engine, transport and precompute counters the per-layer
// metrics are derived from.
type counters struct {
	RejectedShares, Overloaded, PartialBroadcasts uint64
	FramesSent, Resent, Dropped                   uint64

	LagrangeHits, LagrangeMisses      int64
	BatchesVerified, BatchedRelations int64
	BatchFallbacks, CoalescedRequests int64
	NonceExhaustions                  int64
}

// sumCounters folds the per-node snapshots into one set of totals.
func sumCounters(nodes []api.EngineStats) counters {
	var c counters
	for _, st := range nodes {
		c.RejectedShares += st.RejectedShares
		c.Overloaded += st.Overloaded
		c.PartialBroadcasts += st.PartialBroadcasts
		if st.Transport != nil {
			for _, p := range st.Transport.Peers {
				c.FramesSent += p.Sent
				c.Resent += p.Resent
				c.Dropped += p.Dropped
			}
		}
		if cr := st.Crypto; cr != nil {
			c.LagrangeHits += cr.LagrangeHits
			c.LagrangeMisses += cr.LagrangeMisses
			c.BatchesVerified += cr.BatchesVerified
			c.BatchedRelations += cr.BatchedRelations
			c.BatchFallbacks += cr.BatchFallbacks
			c.CoalescedRequests += cr.CoalescedRequests
			c.NonceExhaustions += cr.NonceExhaustions
		}
	}
	return c
}

// sub is the counters' growth from before to after (a − b).
func (a counters) sub(b counters) counters {
	return counters{
		RejectedShares:    a.RejectedShares - b.RejectedShares,
		Overloaded:        a.Overloaded - b.Overloaded,
		PartialBroadcasts: a.PartialBroadcasts - b.PartialBroadcasts,
		FramesSent:        a.FramesSent - b.FramesSent,
		Resent:            a.Resent - b.Resent,
		Dropped:           a.Dropped - b.Dropped,
		LagrangeHits:      a.LagrangeHits - b.LagrangeHits,
		LagrangeMisses:    a.LagrangeMisses - b.LagrangeMisses,
		BatchesVerified:   a.BatchesVerified - b.BatchesVerified,
		BatchedRelations:  a.BatchedRelations - b.BatchedRelations,
		BatchFallbacks:    a.BatchFallbacks - b.BatchFallbacks,
		CoalescedRequests: a.CoalescedRequests - b.CoalescedRequests,
		NonceExhaustions:  a.NonceExhaustions - b.NonceExhaustions,
	}
}
