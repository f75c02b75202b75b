package precompute

import (
	"crypto/rand"
	"errors"
	"io"
	"math/big"
	"sync"
	"sync/atomic"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
)

// ErrRelation is the per-item verdict after a failed batch is replayed
// individually: these relations do not hold. Callers wrap it with their
// scheme-level rejection (attribution is theirs — each Verify call
// covers exactly one share's relations).
var ErrRelation = errors.New("precompute: relation does not hold")

// batchItem is one caller's pending verification: its relations and the
// channel its verdict is delivered on.
type batchItem struct {
	g    group.Group
	rels []group.Relation
	done chan error
}

// BatchVerifier folds the linear relations of concurrently pending
// proofs into one random-linear-combination multi-scalar multiplication
// per group. Scheduling is caller-becomes-flusher single-flight: the
// first caller to arrive while no flush is running drains the queue and
// verifies for everyone; callers arriving mid-flush park their items
// and are picked up by the next drain, so batches form exactly when the
// engine is processing shares concurrently and a lone caller pays no
// added latency. A flushing caller verifies exactly one batch — the one
// holding its own item — and hands any work that piled up meanwhile to
// a detached drainer, so no request's latency grows with other callers'
// traffic. A failed batch is replayed item by item, preserving
// per-share attribution. A nil *BatchVerifier verifies directly.
//
// A batch of one item is checked directly, relation by relation, as
// written: the random multipliers only pay for themselves when there is
// something to fold them with, and scaling a lone relation would turn
// its generator and ±1 terms — which MultiScalarMul's per-term path
// takes at the price of a fixed-base multiplication or an addition —
// into full multiplications. On the deployments measured so far
// (precompute.coalesced_ratio 0.000 on every benchmark workload) every
// flush holds one item, so this is the path shares actually take.
type BatchVerifier struct {
	rand io.Reader

	mu       sync.Mutex
	pending  []*batchItem
	flushing bool

	batches   atomic.Int64
	relations atomic.Int64
	fallbacks atomic.Int64
	coalesced atomic.Int64
	maxBatch  atomic.Int64
}

func newBatchVerifier(r io.Reader) *BatchVerifier {
	if r == nil {
		r = rand.Reader
	}
	return &BatchVerifier{rand: r}
}

// Verify checks that every relation holds, batching with whatever else
// is pending. It blocks until this caller's verdict is known and
// returns nil or ErrRelation.
func (b *BatchVerifier) Verify(g group.Group, rels []group.Relation) error {
	if len(rels) == 0 {
		return nil
	}
	if b == nil {
		return checkDirect(g, rels)
	}
	it := &batchItem{g: g, rels: rels, done: make(chan error, 1)}
	b.mu.Lock()
	b.pending = append(b.pending, it)
	if b.flushing {
		b.mu.Unlock()
		return <-it.done
	}
	b.flushing = true
	batch := b.pending
	b.pending = nil
	b.mu.Unlock()
	// This batch contains the caller's own item, so its verdict is known
	// once the flush returns. Items that arrived mid-flush go to a
	// detached drainer instead of this caller: under sustained traffic a
	// caller that kept draining could flush other requests' batches
	// indefinitely, giving one unlucky request unbounded tail latency.
	b.flush(batch)
	b.mu.Lock()
	if len(b.pending) == 0 {
		b.flushing = false
		b.mu.Unlock()
	} else {
		b.mu.Unlock()
		go b.drain()
	}
	return <-it.done
}

// drain flushes pending batches until the queue is observed empty; the
// flushing flag stays set for the whole time, so exactly one goroutine
// — a caller or a drainer — owns the queue at any moment and every
// parked item is eventually verified even if no further caller arrives.
func (b *BatchVerifier) drain() {
	for {
		b.mu.Lock()
		batch := b.pending
		b.pending = nil
		if len(batch) == 0 {
			b.flushing = false
			b.mu.Unlock()
			return
		}
		b.mu.Unlock()
		b.flush(batch)
	}
}

func checkDirect(g group.Group, rels []group.Relation) error {
	for _, rel := range rels {
		if !rel.Holds(g) {
			return ErrRelation
		}
	}
	return nil
}

// flush verifies one drained batch: per distinct group holding two or
// more items, every pending relation is scaled by a fresh 128-bit
// multiplier and folded into a single multi-scalar multiplication. If
// the folded sum is the identity all items pass (a forged share would
// need to guess the multipliers); otherwise each item is replayed
// individually so exactly the bad shares are rejected. A group's lone
// item is checked directly.
func (b *BatchVerifier) flush(batch []*batchItem) {
	b.batches.Add(1)
	if n := int64(len(batch)); n > b.maxBatch.Load() {
		b.maxBatch.Store(n)
	}
	if len(batch) > 1 {
		b.coalesced.Add(int64(len(batch) - 1))
	}
	byGroup := make(map[string][]*batchItem)
	groups := make(map[string]group.Group)
	for _, it := range batch {
		name := it.g.Name()
		byGroup[name] = append(byGroup[name], it)
		groups[name] = it.g
		b.relations.Add(int64(len(it.rels)))
	}
	for name, items := range byGroup {
		b.flushGroup(groups[name], items)
	}
}

var batchMultiplierBound = new(big.Int).Lsh(big.NewInt(1), 128)

func (b *BatchVerifier) flushGroup(g group.Group, items []*batchItem) {
	if len(items) == 1 {
		items[0].done <- checkDirect(g, items[0].rels)
		return
	}
	var pts []group.Point
	var scalars []*big.Int
	order := g.Order()
	for _, it := range items {
		for _, rel := range it.rels {
			r, err := mathutil.RandInt(b.rand, batchMultiplierBound)
			if err != nil {
				// No randomness, no RLC soundness: replay everything
				// individually.
				b.fallbackGroup(g, items)
				return
			}
			r.Add(r, big.NewInt(1)) // never zero out a relation
			for i, p := range rel.Points {
				pts = append(pts, p)
				scalars = append(scalars, mathutil.MulMod(rel.Scalars[i], r, order))
			}
		}
	}
	if group.MultiScalarMul(g, pts, scalars).IsIdentity() {
		for _, it := range items {
			it.done <- nil
		}
		return
	}
	b.fallbackGroup(g, items)
}

func (b *BatchVerifier) fallbackGroup(g group.Group, items []*batchItem) {
	b.fallbacks.Add(1)
	for _, it := range items {
		it.done <- checkDirect(g, it.rels)
	}
}
