package orchestration

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// pollStats waits until cond holds for an engine's snapshot.
func pollStats(t *testing.T, e *Engine, d time.Duration, cond func(Stats) bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	var last Stats
	for time.Now().Before(deadline) {
		last = e.Stats()
		if cond(last) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s; last stats: %+v", msg, last)
}

// TestResubmitAfterCapEvictionJoinsPeersFreshRun is the regression test
// for the cross-node retention desync: node 1 evicts a finished
// instance under its retention cap while its peers still retain
// theirs. A re-submission on node 1 starts generation 2 and announces
// it; the retained peers must supersede their stale generation-1 copy
// and participate in the fresh run, instead of treating the start as a
// duplicate and stalling the run until liveTTL expiry.
func TestResubmitAfterCapEvictionJoinsPeersFreshRun(t *testing.T) {
	const tt, n = 1, 3
	c := newCluster(t, tt, n, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = time.Minute // keep TTL/liveTTL expiry out of the test window
		cfg.RetainMax = 128
		if cfg.Keys.Index == 1 {
			cfg.RetainMax = 1 // only node 1 cap-evicts
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	reqA := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("gen-A")}
	reqB := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("gen-B")}

	fA, err := c.engines[0].Submit(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	rA, err := fA.Wait(ctx)
	if err != nil || rA.Err != nil {
		t.Fatalf("first run: %v / %v", err, rA.Err)
	}
	// Every node must have retired its copy before the eviction step.
	for i, e := range c.engines {
		pollStats(t, e, 10*time.Second, func(st Stats) bool { return st.Finished >= 1 },
			"node "+string(rune('1'+i))+" never retired the first run")
	}

	// A second instance pushes A out of node 1's size-1 retention window;
	// the peers retain both.
	fB, err := c.engines[0].Submit(ctx, reqB)
	if err != nil {
		t.Fatal(err)
	}
	if rB, err := fB.Wait(ctx); err != nil || rB.Err != nil {
		t.Fatalf("second run: %v / %v", err, rB.Err)
	}
	pollStats(t, c.engines[0], 10*time.Second, func(st Stats) bool { return st.Evicted >= 1 },
		"node 1 never cap-evicted the first run")

	// Re-submit A on node 1. Without the generation tag the retained
	// peers would ignore the announcement and this run would stall until
	// liveTTL (minutes); with it, they join and it completes promptly.
	fA2, err := c.engines[0].Submit(ctx, reqA)
	if err != nil {
		t.Fatal(err)
	}
	rerunCtx, cancelRerun := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancelRerun()
	rA2, err := fA2.Wait(rerunCtx)
	if err != nil {
		t.Fatalf("re-run after eviction stalled: %v", err)
	}
	if rA2.Err != nil {
		t.Fatalf("re-run failed: %v", rA2.Err)
	}
	if !bytes.Equal(rA.Value, rA2.Value) {
		t.Fatalf("re-run coin differs from the original: %x vs %x", rA2.Value, rA.Value)
	}
}

// TestGenerationMemorySurvivesTombstoneEviction is the regression test
// for the double-eviction stall: an id that restarts at generation 1
// after its generation N was evicted is ignored by peers still
// retaining N, stalling the run until liveTTL. So a cleared or
// re-tombstoned id keeps its highest generation, and so does a
// tombstone that fillers follow, as long as the FIFO keeps its record;
// a re-tombstone is a new eviction, so it lasts 16 × RetainMax further
// evictions however old the id's first one is.
func TestGenerationMemorySurvivesTombstoneEviction(t *testing.T) {
	c := newCluster(t, 1, 3, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = 1 // 16 records
	})
	e := c.engines[0]

	e.mu.Lock()
	m := &e.evictedIDs
	m.tombstone("doomed", 2)
	for i := 0; i < 8; i++ {
		m.tombstone(fmt.Sprintf("filler-%d", i), 1)
	}
	afterFillers := m.nextGen("doomed")
	m.clear("doomed")
	cleared, clearedTomb := m.nextGen("doomed"), m.tombstoned("doomed")
	m.tombstone("doomed", 1) // a lower generation does not lower the record
	retombed, retombedTomb := m.nextGen("doomed"), m.tombstoned("doomed")
	for i := 8; i < 23; i++ {
		m.tombstone(fmt.Sprintf("filler-%d", i), 1)
	}
	lasted, lastedTomb := m.nextGen("doomed"), m.tombstoned("doomed")
	m.tombstone("filler-23", 1)
	forgotten := m.nextGen("doomed")
	e.mu.Unlock()

	if afterFillers != 3 {
		t.Fatalf("nextGen after fillers = %d, want 3", afterFillers)
	}
	if cleared != 3 || clearedTomb {
		t.Fatalf("cleared: nextGen %d tombstoned %v, want 3 and false", cleared, clearedTomb)
	}
	if retombed != 3 || !retombedTomb {
		t.Fatalf("re-tombstoned: nextGen %d tombstoned %v, want 3 and true", retombed, retombedTomb)
	}
	if lasted != 3 || !lastedTomb {
		t.Fatalf("15 evictions after the re-tombstone: nextGen %d tombstoned %v, want 3 and true", lasted, lastedTomb)
	}
	if forgotten != 1 {
		t.Fatalf("16 evictions after the re-tombstone: nextGen %d, want 1", forgotten)
	}
}

// TestGenerationMemoryBounded pins the memory's own bounds: it may
// forget the oldest ids under FIFO pressure, but never grows past
// 16 × RetainMax records, and updating a remembered id keeps the highest
// generation without duplicating its entry.
func TestGenerationMemoryBounded(t *testing.T) {
	c := newCluster(t, 1, 3, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = 1 // 16 records
	})
	e := c.engines[0]

	e.mu.Lock()
	m := &e.evictedIDs
	for i := 0; i < 100; i++ {
		m.tombstone(fmt.Sprintf("id-%d", i), i+1)
	}
	size := len(m.recs)
	m.tombstone("id-99", 200)
	m.tombstone("id-99", 150) // lower generation must not regress the memory
	next := m.nextGen("id-99")
	sizeAfter := len(m.recs)
	e.mu.Unlock()

	if size > 16 {
		t.Fatalf("gen memory grew to %d entries, cap is 16", size)
	}
	if sizeAfter != size {
		t.Fatalf("re-recording a remembered id changed the entry count: %d -> %d", size, sizeAfter)
	}
	if next != 201 {
		t.Fatalf("nextGen after update = %d, want 201", next)
	}
}

// TestStaleShareKeepsTombstone: a peer share of an evicted run (at or
// below its generation) must not resurrect the id as a placeholder —
// that would undo the eviction, grow the engine, and leave Attach
// pending until RetainTTL instead of answering ErrExpired. A share of a
// newer run still supersedes the tombstone, since a peer may be
// re-running the instance.
func TestStaleShareKeepsTombstone(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = time.Minute
		cfg.RetainMax = 1
	})
	e := c.engines[0]
	reqA, reqB := coinReq("stale-A"), coinReq("stale-B")
	idA := reqA.InstanceID()
	waitAll(t, c.submitAll(t, reqA))
	waitAll(t, c.submitAll(t, reqB)) // pushes A out of the size-1 window

	tracked := func(id string) (inst, tomb bool) {
		e.mu.Lock()
		defer e.mu.Unlock()
		_, inst = e.instances[id]
		tomb = e.evictedIDs.tombstoned(id)
		return inst, tomb
	}
	waitUntil(t, 10*time.Second, func() bool {
		inst, tomb := tracked(idA)
		return !inst && tomb
	}, "node 1 never evicted A")
	attachExpires := func() bool {
		select {
		case res := <-e.Attach(idA).Done():
			return errors.Is(res.Err, ErrExpired)
		default:
			return false
		}
	}
	if !attachExpires() {
		t.Fatal("Attach(A) did not answer ErrExpired at once after the eviction")
	}

	// Events are handled in order, so once the barrier's placeholder
	// exists the share injected before it has been handled.
	inject := func(id string, gen int) {
		e.events <- event{env: &network.Envelope{
			From: 2, Instance: id, Kind: network.KindProto, Round: 1, Gen: gen, Payload: []byte{1},
		}}
	}
	inject(idA, 1)
	inject("barrier", 1)
	waitUntil(t, 5*time.Second, func() bool { inst, _ := tracked("barrier"); return inst },
		"barrier share never handled")
	if inst, tomb := tracked(idA); inst || !tomb {
		t.Fatalf("stale share: A tracked=%v, tombstoned=%v; want the tombstone kept", inst, tomb)
	}
	if got := e.InstanceCount(); got != 2 {
		t.Fatalf("InstanceCount = %d, want 2 (B and the barrier)", got)
	}
	if !attachExpires() {
		t.Fatal("Attach(A) no longer answers ErrExpired at once after a stale share")
	}

	// A share of the next generation is a peer's re-run: it parks.
	inject(idA, 2)
	waitUntil(t, 5*time.Second, func() bool { inst, tomb := tracked(idA); return inst && !tomb },
		"a share of a newer run did not supersede the tombstone")
}

// TestUnversionedShareIgnored: every engine stamps generation ≥ 1 on its
// envelopes, so a share with Gen 0 is malformed. It neither parks nor,
// once the run starts, counts as a rejected share.
func TestUnversionedShareIgnored(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{})
	e := c.engines[0]
	req := coinReq("unversioned")
	// Events are handled in order, so once the barrier's placeholder
	// exists the share injected before it has been handled.
	e.events <- event{env: &network.Envelope{
		From: 4, Instance: req.InstanceID(), Kind: network.KindProto, Round: 1, Payload: []byte("not a share"),
	}}
	e.events <- event{env: &network.Envelope{
		From: 4, Instance: "barrier", Kind: network.KindProto, Round: 1, Gen: 1, Payload: []byte{1},
	}}
	tracked := func(id string) bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		_, ok := e.instances[id]
		return ok
	}
	waitUntil(t, 5*time.Second, func() bool { return tracked("barrier") }, "barrier share never handled")
	if tracked(req.InstanceID()) {
		t.Fatal("a Gen 0 share parked on a placeholder")
	}
	waitAll(t, c.submitAll(t, req))
	if st := e.Stats(); st.RejectedShares != 0 {
		t.Fatalf("stats after the run: %+v, want no rejected share", st)
	}
}
