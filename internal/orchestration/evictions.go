package orchestration

import "hash/maphash"

// This file holds the engine's memory of evicted instance ids: one
// record per id, holding the highest generation the id is known to have
// run as and whether it is tombstoned (evicted, with no activity since).
// Every finished request passes through this memory once the retention
// cap is reached, so it is kept compact: a flat map keyed by a seeded
// 64-bit hash of the id, so the id's bytes need not outlive its
// instance, with FIFO order in a circular buffer of hashes. Each
// eviction, a repeated one included, takes the newest slot, so a record
// is forgotten once ring.limit evictions have followed its last one.
//
// Two ids whose hashes collide share one record. That errs toward a
// higher generation, an ErrExpired, or a fresh id's early shares being
// dropped as stale until its start arrives: the shared generation is the
// higher of the two, and a run may always start at a higher generation
// than it needs (peers supersede any lower copy and join), whereas one
// started too low is what this memory prevents; and the shared flag can
// only make Attach answer ErrExpired for an id that is not tracked.

// evictionMemory maps the hash of an evicted id to its record, forgetting
// the oldest record once it holds ring.limit of them. The engine guards
// it with Engine.mu.
type evictionMemory struct {
	recs  map[uint64]evictRecord
	order ring
	seed  maphash.Seed
}

// evictRecord is what the engine remembers of one evicted id; pos is
// the ring slot of its latest eviction.
type evictRecord struct {
	gen  int
	pos  int32
	tomb bool
}

func newEvictionMemory(limit int) evictionMemory {
	return evictionMemory{
		recs:  make(map[uint64]evictRecord),
		order: ring{limit: limit},
		seed:  maphash.MakeSeed(),
	}
}

// tombstone records that id was evicted after running as generation
// gen: the flag is set, the generation raised, never lowered, and the
// record moved to the newest slot unless it holds it already. The slot
// pushed out forgets its record only if it was that record's latest.
func (m *evictionMemory) tombstone(id string, gen int) {
	h := maphash.String(m.seed, id)
	rec, ok := m.recs[h]
	if !ok || rec.pos != m.order.newest() {
		pos, old, full := m.order.add(h)
		if full && old != h && m.recs[old].pos == pos {
			delete(m.recs, old)
		}
		rec.pos = pos
	}
	rec.gen, rec.tomb = max(rec.gen, gen), true
	m.recs[h] = rec
}

// clear drops id's tombstone: new activity supersedes it. The
// generation and the slot stay, since a later re-submission must still
// run above it.
func (m *evictionMemory) clear(id string) {
	h := maphash.String(m.seed, id)
	if rec, ok := m.recs[h]; ok && rec.tomb {
		rec.tomb = false
		m.recs[h] = rec
	}
}

// tombstoned reports whether id is evicted with no activity since.
func (m *evictionMemory) tombstoned(id string) bool {
	return m.recs[maphash.String(m.seed, id)].tomb
}

// nextGen is the generation a fresh run of id should run as: one above
// the recorded one, or 1 when id has no record.
func (m *evictionMemory) nextGen(id string) int {
	return m.recs[maphash.String(m.seed, id)].gen + 1
}

// ring is a FIFO of at most limit hashes in a circular buffer, which
// grows by append until it holds limit; from then on every add pushes
// out the oldest.
type ring struct {
	buf   []uint64
	head  int
	limit int
}

// add stores h and returns its slot and, when the ring was full, the
// oldest hash, which it pushed out of that slot.
func (r *ring) add(h uint64) (pos int32, old uint64, full bool) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, h)
		return int32(len(r.buf) - 1), 0, false
	}
	pos = int32(r.head)
	old, r.buf[r.head] = r.buf[r.head], h
	r.head = (r.head + 1) % r.limit
	return pos, old, true
}

// newest returns the slot of the hash added last, or -1 for an empty
// ring.
func (r *ring) newest() int32 {
	if len(r.buf) < r.limit {
		return int32(len(r.buf) - 1)
	}
	return int32((r.head + r.limit - 1) % r.limit)
}
