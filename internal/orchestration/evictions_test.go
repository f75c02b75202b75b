package orchestration

import (
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"testing"

	"thetacrypt/internal/network/memnet"
)

// TestEvictionMemoryCompact pins what the engine keeps per evicted id
// — its record and its FIFO slot — at the default RetainMax, for
// eviction counts from a short run's to past the placeholder cap. The
// ids themselves are allocated beforehand and kept alive, so only the
// bookkeeping is measured.
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
			m := newEvictionMemory(16 * retainMax)
			for i, id := range ids {
				m.tombstone(id, 1+i%3)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			perID := float64(after.HeapAlloc-before.HeapAlloc) / float64(n)
			runtime.KeepAlive(ids)
			runtime.KeepAlive(m)
			t.Logf("%d evicted ids: %.0f B each", n, perID)
			if perID > maxBytesPerID {
				t.Fatalf("%d evicted ids cost %.0f B each, want at most %d", n, perID, maxBytesPerID)
			}
		})
	}
}

// TestTombstoneFIFOOrderAndClears: the engine remembers the ids of the
// last 16 × RetainMax evictions and forgets the one evicted longest ago
// first, tombstoned or cleared alike; a clear keeps the record's
// generation and its place, a re-tombstone is a new eviction and moves
// the record to the back, and clears and re-tombstones never grow the
// memory.
func TestTombstoneFIFOOrderAndClears(t *testing.T) {
	c := newCluster(t, 1, 3, memnet.Options{}, func(cfg *Config) { cfg.RetainMax = 1 }) // 16 records
	e := c.engines[0]
	e.mu.Lock()
	defer e.mu.Unlock()
	m := &e.evictedIDs
	for i := 0; i < 16; i++ {
		m.tombstone(fmt.Sprint("id-", i), 1)
	}
	m.clear("id-0")
	m.tombstone("id-0", 5) // re-created: now the newest
	m.clear("id-1")
	m.tombstone("new", 1) // forgets id-1, the oldest, though it is cleared
	for id, want := range map[string]struct {
		tomb bool
		next int
	}{"id-0": {true, 6}, "id-1": {false, 1}, "id-2": {true, 2}, "new": {true, 2}} {
		if tomb, next := m.tombstoned(id), m.nextGen(id); tomb != want.tomb || next != want.next {
			t.Fatalf("%s: tombstoned=%v nextGen=%d, want %v and %d", id, tomb, next, want.tomb, want.next)
		}
	}
	m.clear("id-2")
	m.tombstone("newer", 1) // forgets id-2: a cleared record ages the same
	if got := m.nextGen("id-2"); got != 1 {
		t.Fatalf("nextGen(id-2) = %d after its record was pushed out, want 1", got)
	}
	for i := 0; i < 10000; i++ {
		m.clear("id-5")
		m.tombstone("id-5", 1) // after the first, the newest: no new slot
	}
	if len(m.recs) != 15 || m.nextGen("id-3") != 1 || !m.tombstoned("id-4") {
		t.Fatalf("churn on one id: %d records, want 15 with only id-3 forgotten", len(m.recs))
	}
	for i := 0; i < 10000; i++ {
		m.clear(fmt.Sprint("id-", 5+i%2))
		m.tombstone(fmt.Sprint("id-", 5+i%2), 1)
	}
	if len(m.recs) != 2 || len(m.order.buf) != 16 {
		t.Fatalf("churn on two ids: %d records in a FIFO of %d, want 2 in 16", len(m.recs), len(m.order.buf))
	}
	if !m.tombstoned("id-5") || !m.tombstoned("id-6") || m.nextGen("id-6") != 2 {
		t.Fatal("churn on two ids forgot one of them")
	}
}

// FuzzEvictionMemory checks the evicted-id memory against an exact
// model: records keyed by the id itself, each kept while the id is among
// the last 16 tombstoned (a repeat of the last one not counting), the
// cap RetainMax 1 gives. Each pair of input
// bytes is one operation — tombstone, clear, nextGen or tombstoned — on
// one of 24 ids, more than 16, so the FIFO forgets.
func FuzzEvictionMemory(f *testing.F) {
	f.Add([]byte{0, 1, 0, 26, 2, 1, 3, 26, 1, 1, 3, 1, 2, 1})
	seq := make([]byte, 0, 128)
	for i := byte(0); i < 40; i++ {
		seq = append(seq, i%4, i*7)
	}
	f.Add(seq)
	// Every id tombstoned once, so the first eight are forgotten.
	var all []byte
	for id := byte(0); id < 24; id++ {
		all = append(all, 0, 24+id)
	}
	f.Add(append(all, 2, 0, 3, 0, 2, 23, 3, 23))
	f.Fuzz(func(t *testing.T, ops []byte) {
		const limit = 16
		m := newEvictionMemory(limit)
		type modelRec struct {
			gen  int
			tomb bool
		}
		model := map[string]modelRec{}
		var order []string // the ids of the last limit tombstones, oldest first
		for i := 0; i+1 < len(ops); i += 2 {
			id, gen := fmt.Sprint("id-", ops[i+1]%24), int(ops[i+1]/24)
			switch ops[i] % 4 {
			case 0:
				m.tombstone(id, gen)
				if len(order) == 0 || order[len(order)-1] != id {
					order = append(order, id)
				}
				if len(order) > limit {
					if old := order[0]; !slices.Contains(order[1:], old) {
						delete(model, old)
					}
					order = order[1:]
				}
				model[id] = modelRec{gen: max(model[id].gen, gen), tomb: true}
			case 1:
				m.clear(id)
				if rec, ok := model[id]; ok {
					model[id] = modelRec{gen: rec.gen}
				}
			case 2:
				if got, want := m.nextGen(id), model[id].gen+1; got != want {
					t.Fatalf("op %d: nextGen(%s) = %d, want %d", i/2, id, got, want)
				}
			case 3:
				if got, want := m.tombstoned(id), model[id].tomb; got != want {
					t.Fatalf("op %d: tombstoned(%s) = %v, want %v", i/2, id, got, want)
				}
			}
		}
		if len(m.recs) != len(model) || len(m.order.buf) != len(order) {
			t.Fatalf("%d records in a FIFO of %d, want %d in %d", len(m.recs), len(m.order.buf), len(model), len(order))
		}
		for k := 0; k < 24; k++ {
			id := fmt.Sprint("id-", k)
			if m.nextGen(id) != model[id].gen+1 || m.tombstoned(id) != model[id].tomb {
				t.Fatalf("%s ends at nextGen %d tombstoned %v, want %+v", id, m.nextGen(id), m.tombstoned(id), model[id])
			}
		}
	})
}
