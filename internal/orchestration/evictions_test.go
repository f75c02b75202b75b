package orchestration

import (
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"runtime"
	"testing"

	"thetacrypt/internal/network/memnet"
)

// TestEvictionMemoryCompact pins what the engine keeps per evicted id
// — its tombstone and its generation memory, both FIFOs included — at
// the default RetainMax, for eviction counts from a short run's to past
// the tombstone cap. The ids themselves are allocated beforehand and
// kept alive, so only the bookkeeping is measured.
func TestEvictionMemoryCompact(t *testing.T) {
	const retainMax = 4096
	const maxBytesPerID = 100
	for _, n := range []int{1000, 3000, 5000, 4 * retainMax, 6 * retainMax} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			ids := make([]string, n)
			for i := range ids {
				ids[i] = hex.EncodeToString([]byte(fmt.Sprintf("evicted-%08d", i)))
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			e := &Engine{
				tombstones:   make(map[string]uint64),
				tombstoneMax: 4 * retainMax,
				gens:         make(map[uint64]int),
				genOrder:     ring[uint64]{limit: 16 * retainMax},
				genSeed:      maphash.MakeSeed(),
				genMax:       16 * retainMax,
			}
			for i, id := range ids {
				e.tombstoneLocked(id, 1+i%3)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perID := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
			runtime.KeepAlive(ids)
			runtime.KeepAlive(e)
			t.Logf("%d evicted ids: %.0f B each", n, perID)
			if perID > maxBytesPerID {
				t.Fatalf("%d evicted ids cost %.0f B each, want at most %d", n, perID, maxBytesPerID)
			}
		})
	}
}

// TestTombstoneFIFOOrderAndClears: the tombstone FIFO evicts the oldest
// live tombstone first, a cleared tombstone's dead slot neither counts
// against the cap nor evicts a re-created tombstone of the same id, and
// clears alone cannot grow the FIFO without bound.
func TestTombstoneFIFOOrderAndClears(t *testing.T) {
	c := newCluster(t, 1, 3, memnet.Options{}, func(cfg *Config) { cfg.RetainMax = 1 }) // tombstoneMax = 4
	e := c.engines[0]
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, id := range []string{"a", "b", "c", "d"} {
		e.tombstoneLocked(id, 1)
	}
	e.clearTombstoneLocked("a")
	e.tombstoneLocked("a", 5) // re-created: now the newest
	e.tombstoneLocked("e", 1) // evicts b, the oldest live one
	for id, want := range map[string]bool{"a": true, "b": false, "c": true, "d": true, "e": true} {
		if _, ok := e.tombstones[id]; ok != want {
			t.Fatalf("tombstone %q present=%v, want %v", id, ok, want)
		}
	}
	if got := e.nextGenLocked("a"); got != 6 {
		t.Fatalf("nextGen(a) = %d, want 6", got)
	}
	for i := 0; i < 10000; i++ {
		e.tombstoneLocked("churn", 1)
		e.clearTombstoneLocked("churn")
	}
	if e.tombOrder.n > 2*len(e.tombstones)+64 {
		t.Fatalf("clears grew the FIFO to %d slots for %d tombstones", e.tombOrder.n, len(e.tombstones))
	}
	// The first churn tombstone met a full FIFO and pushed out c, the
	// oldest; after that the clears kept room.
	for id, want := range map[string]bool{"a": true, "c": false, "d": true, "e": true, "churn": false} {
		if _, ok := e.tombstones[id]; ok != want {
			t.Fatalf("after churn: tombstone %q present=%v, want %v", id, ok, want)
		}
	}
	// Generations survive both ways out of the FIFO.
	for id, want := range map[string]int{"a": 6, "b": 2, "c": 2, "churn": 2, "never": 1} {
		if got := e.nextGenLocked(id); got != want {
			t.Fatalf("nextGen(%q) = %d, want %d", id, got, want)
		}
	}
}
