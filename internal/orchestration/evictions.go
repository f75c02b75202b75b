package orchestration

import "hash/maphash"

// This file holds the engine's memory of evicted instance ids: the
// tombstones (an id was evicted and has seen no activity since) and the
// generation memory behind them. Every finished request passes through
// this memory once the retention cap is reached, so it is kept compact:
// flat maps of small values, with FIFO order in circular buffers rather
// than a container/list element and an interface-boxed value per id,
// and an id is held by one of the two at a time — its generation moves
// to the generation memory when its tombstone goes.

// tombSlot is one entry of the tombstone FIFO: the evicted id and the
// generation it ran as. A cleared tombstone leaves its slot behind,
// dead, until it reaches the front or a compaction drops it; a slot is
// live exactly when e.tombstones maps its id to its position.
type tombSlot struct {
	id  string
	gen int
}

// ring is a FIFO in a circular buffer that grows by a quarter when
// full, up to limit slots when limit > 0. Entries keep the absolute
// position they were pushed at (base is the oldest's), so a position
// stays valid while the buffer grows.
type ring[T any] struct {
	buf   []T
	head  int
	n     int
	base  uint64
	limit int
}

// push appends v and returns its position.
func (r *ring[T]) push(v T) uint64 {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	return r.base + uint64(r.n-1)
}

// pop removes the oldest entry and returns it with its position; the
// ring is not empty.
func (r *ring[T]) pop() (T, uint64) {
	var zero T
	v, pos := r.buf[r.head], r.base
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	r.base++
	return v, pos
}

// at returns the entry at position pos, which is in the ring.
func (r *ring[T]) at(pos uint64) *T {
	return &r.buf[(r.head+int(pos-r.base))%len(r.buf)]
}

func (r *ring[T]) grow() {
	size := len(r.buf) + len(r.buf)/4 + 16
	if r.limit > 0 && size > r.limit {
		size = r.limit
	}
	buf := make([]T, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = buf, 0
}

// tombstoneLocked remembers an evicted id (and the generation it ran
// as) in the bounded FIFO; e.mu is held.
func (e *Engine) tombstoneLocked(id string, gen int) {
	if pos, ok := e.tombstones[id]; ok {
		if s := e.tombOrder.at(pos); gen > s.gen {
			s.gen = gen
		}
		return
	}
	// Make room first, so the FIFO never holds more live slots than
	// the cap. The oldest tombstone's generation moves on to the
	// generation memory.
	for len(e.tombstones) >= e.tombstoneMax {
		s, pos := e.tombOrder.pop()
		if cur, ok := e.tombstones[s.id]; ok && cur == pos {
			delete(e.tombstones, s.id)
			e.rememberGenLocked(s.id, s.gen)
		}
	}
	e.tombstones[id] = e.tombOrder.push(tombSlot{id: id, gen: gen})
}

// clearTombstoneLocked forgets an evicted id (new activity supersedes
// the tombstone); e.mu is held. Its generation moves to the generation
// memory: the superseding run still needs to announce a generation
// above the evicted one if it is ever resubmitted. The id's FIFO slot
// stays behind, dead; once dead slots outnumber live ones the FIFO is
// compacted, so clears cannot grow it without bound.
func (e *Engine) clearTombstoneLocked(id string) {
	pos, ok := e.tombstones[id]
	if !ok {
		return
	}
	e.rememberGenLocked(id, e.tombOrder.at(pos).gen)
	delete(e.tombstones, id)
	if e.tombOrder.n < 2*len(e.tombstones)+64 {
		return
	}
	live := ring[tombSlot]{base: e.tombOrder.base + uint64(e.tombOrder.n)}
	for e.tombOrder.n > 0 {
		s, pos := e.tombOrder.pop()
		if cur, ok := e.tombstones[s.id]; ok && cur == pos {
			e.tombstones[s.id] = live.push(s)
		}
	}
	e.tombOrder = live
}

// rememberGenLocked records the highest generation id is known to have
// run as, for when its tombstone is gone; e.mu is held. Only FIFO
// pressure forgets it.
//
// It is keyed by a seeded 64-bit hash of the id rather than the id
// itself, so the id's bytes need not outlive its tombstone. Two ids
// that collide share one entry holding the higher generation of the
// two. That errs only upward, which is safe: a run may always start at
// a higher generation than it needs (peers supersede any lower copy and
// join), whereas one started too low is what this memory prevents.
func (e *Engine) rememberGenLocked(id string, gen int) {
	h := maphash.String(e.genSeed, id)
	if old, ok := e.gens[h]; ok {
		if gen > old {
			e.gens[h] = gen
		}
		return
	}
	if len(e.gens) >= e.genMax {
		old, _ := e.genOrder.pop()
		delete(e.gens, old)
	}
	e.gens[h] = gen
	e.genOrder.push(h)
}

// nextGenLocked is the generation a fresh local submission of id should
// run as: one above the evicted run's, when remembered; e.mu is held.
// The generation memory backstops the tombstone, so it survives the
// tombstone's own eviction or supersession.
func (e *Engine) nextGenLocked(id string) int {
	if pos, ok := e.tombstones[id]; ok {
		return e.tombOrder.at(pos).gen + 1
	}
	if gen, ok := e.gens[maphash.String(e.genSeed, id)]; ok {
		return gen + 1
	}
	return 1
}
