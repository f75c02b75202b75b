package orchestration

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t testing.TB, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("condition never held: %s", msg)
}

func coinReq(session string) protocols.Request {
	return protocols.Request{
		Scheme: schemes.CKS05, Op: protocols.OpCoin,
		Payload: []byte("lifecycle"), Session: session,
	}
}

// TestRetentionCapBoundsMemory is the sustained-load acceptance test:
// far more requests than the retention cap are submitted and consumed,
// and every engine's retained results settle at the cap instead of
// growing without bound.
func TestRetentionCapBoundsMemory(t *testing.T) {
	const cap = 16
	const total = 96
	const wave = 16
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = cap
		cfg.RetainTTL = time.Hour // only the cap evicts here
	})
	for start := 0; start < total; start += wave {
		reqs := make([]protocols.Request, wave)
		for i := range reqs {
			reqs[i] = coinReq(fmt.Sprintf("cap-%d", start+i))
		}
		subs, err := c.engines[0].SubmitBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		for _, sub := range subs {
			res, err := sub.Future.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if res.Err != nil {
				t.Fatalf("instance %s failed: %v", sub.InstanceID, res.Err)
			}
		}
	}
	for i, e := range c.engines {
		// Retained results sit at the cap and no run is left unfinished.
		// Whatever else is tracked is a bare placeholder: a share that
		// reached this node after the cap had already evicted its
		// finished run parks as one (any activity on an evicted id
		// supersedes its tombstone) until RetainTTL, bounded by the
		// placeholder cap. How many there are depends on how far the
		// slowest peer's shares trail the fastest quorum.
		settled := func() (retained, live, placeholders, tracked int) {
			e.mu.Lock()
			defer e.mu.Unlock()
			return e.retained.n, e.live.Len(), e.placeholders.Len(), len(e.instances)
		}
		waitUntil(t, 20*time.Second, func() bool {
			retained, live, _, _ := settled()
			return retained == cap && live == 0 && e.Stats().Evicted >= total-cap
		}, fmt.Sprintf("engine %d never settled at retention cap %d: %+v", i+1, cap, e.Stats()))
		retained, live, placeholders, tracked := settled()
		if retained != cap || live != 0 || tracked != cap+placeholders || placeholders > total-cap {
			t.Fatalf("engine %d: retained=%d live=%d placeholders=%d tracked=%d, want retained=%d, no live run, nothing else but late-share placeholders",
				i+1, retained, live, placeholders, tracked, cap)
		}
	}
}

// TestRetainTTLEvictsAndAttachExpires: after the retention window, the
// result is gone and Attach reports a typed ErrExpired immediately
// instead of parking a watcher forever.
func TestRetainTTLEvictsAndAttachExpires(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = 80 * time.Millisecond
		cfg.SweepInterval = 10 * time.Millisecond
	})
	req := coinReq("ttl")
	waitAll(t, c.submitAll(t, req))
	id := req.InstanceID()

	e := c.engines[0]
	waitUntil(t, 10*time.Second, func() bool { return e.InstanceCount() == 0 },
		"finished instance never evicted by TTL sweep")
	if st := e.Stats(); st.Evicted == 0 || st.Finished != 0 {
		t.Fatalf("stats after TTL eviction: %+v", st)
	}

	select {
	case res := <-e.Attach(id).Done():
		if !errors.Is(res.Err, ErrExpired) {
			t.Fatalf("attach after expiry: got %v, want ErrExpired", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("attach on evicted instance did not resolve immediately")
	}
}

// TestFinishedInstanceReleasesProtocolState: a result reaches its
// watchers only once the instance is retired into the retention window,
// where it keeps the result and drops the protocol state machine; and
// everything a retained instance is asked to do — duplicate submit,
// Attach, a late peer share — still answers from the result exactly as
// when the state machine was kept.
func TestFinishedInstanceReleasesProtocolState(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = time.Hour
	})
	req := coinReq("release")
	id := req.InstanceID()
	want := waitAll(t, c.submitAll(t, req))[0]

	// The result was released, so the instance is already retired.
	e := c.engines[0]
	if st := e.Stats(); st.Finished != 1 || st.Live != 0 {
		t.Fatalf("stats with the result in hand: %+v, want the instance retired", st)
	}
	e.mu.Lock()
	inst := e.instances[id]
	created := inst != nil && inst.created
	e.mu.Unlock()
	if !created {
		t.Fatal("retained instance is not recorded as started")
	}
	inst.mu.Lock()
	live, finished := inst.run, inst.finished
	inst.mu.Unlock()
	if !finished || live != nil {
		t.Fatalf("retained instance: finished=%v run=%+v, want finished with no run (no protocol state, futures, backlog or request strings)", finished, live)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	same := func(what string, f *Future) {
		t.Helper()
		got, err := f.Wait(ctx)
		if err != nil || got.Err != nil {
			t.Fatalf("%s: %v / %v", what, err, got.Err)
		}
		if string(got.Value) != string(want.Value) || !got.Finished.Equal(want.Finished) {
			t.Fatalf("%s returned a different result: %+v, want %+v", what, got, want)
		}
	}

	// Duplicate submit: flagged, and served from the retained result.
	subs, err := e.SubmitBatch(ctx, []protocols.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if !subs[0].Duplicate || subs[0].InstanceID != id {
		t.Fatalf("re-submission of a retained instance: %+v, want the same handle flagged duplicate", subs[0])
	}
	same("duplicate submit", subs[0].Future)
	same("attach", e.Attach(id))

	// A late share for the finished instance is dropped without being
	// parsed (garbage would otherwise count as a rejected share). The
	// worker handles events in order, so once a later request finished
	// the late share has been through.
	late := network.Envelope{Instance: id, Kind: network.KindProto, Round: 1, Payload: []byte("late")}
	if err := c.hub.Endpoint(4).Send(ctx, 1, late); err != nil {
		t.Fatal(err)
	}
	waitAll(t, c.submitAll(t, coinReq("release-after")))
	if st := e.Stats(); st.Finished != 2 || st.RejectedShares != 0 || st.Evicted != 0 || st.Live != 0 {
		t.Fatalf("stats after a late share on a retained instance: %+v", st)
	}
	same("attach after a late share", e.Attach(id))
}

// TestRetainedInstanceFootprint pins what every finished request costs
// for the whole retention window (RetainMax 4096 instances per node): the
// instance struct itself. A fast scheme completes thousands of requests
// inside RetainTTL, so bytes added here show up as resident memory of the
// deployment; state only a live run reads belongs behind instance.run,
// which retire drops.
func TestRetainedInstanceFootprint(t *testing.T) {
	// 112 is an allocator size class, and today's size exactly; the
	// next field costs every retained result 16 bytes.
	if size := unsafe.Sizeof(instance{}); size > 112 {
		t.Fatalf("instance is %d bytes, want at most 112: move live-run state into run", size)
	}
}

// TestRetentionWindowLinks walks the intrusive FIFO through the removals
// the engine makes: the front (cap and TTL eviction), the middle and the
// back (supersession), and an instance that is not in the window.
func TestRetentionWindowLinks(t *testing.T) {
	var w retention
	insts := make([]*instance, 5)
	for i := range insts {
		insts[i] = &instance{id: fmt.Sprint(i)}
		w.pushBack(insts[i])
	}
	order := func() string {
		var fwd, back string
		for inst := w.front; inst != nil; inst = inst.next {
			fwd += inst.id
		}
		for inst := w.back; inst != nil; inst = inst.prev {
			back = inst.id + back
		}
		if fwd != back || len(fwd) != w.n {
			t.Fatalf("window reads %q forwards, %q backwards, n=%d", fwd, back, w.n)
		}
		return fwd
	}
	for _, step := range []struct {
		remove int
		want   string
	}{{2, "0134"}, {0, "134"}, {4, "13"}, {4, "13"}, {1, "3"}, {3, ""}} {
		w.remove(insts[step.remove])
		if got := order(); got != step.want {
			t.Fatalf("after removing %d: %q, want %q", step.remove, got, step.want)
		}
		if in := insts[step.remove]; in.retained || in.prev != nil || in.next != nil {
			t.Fatalf("removed instance %d keeps links", step.remove)
		}
	}
	w.pushBack(insts[2])
	if got := order(); got != "2" {
		t.Fatalf("re-inserted into an emptied window: %q", got)
	}
}

// TestRetainedInstanceParksNewerGenerationShare: a share of generation
// N+1 that overtakes its start announcement finds the retained, released
// copy of generation N. It must still park there — on a bare run that
// holds nothing but the backlog — and reach the fresh run when the start
// announcement supersedes the copy.
func TestRetainedInstanceParksNewerGenerationShare(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = time.Hour
	})
	req := coinReq("park-on-retained")
	id := req.InstanceID()
	waitAll(t, c.submitAll(t, req))
	e := c.engines[0]
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	early := network.Envelope{Instance: id, Kind: network.KindProto, Round: 1, Gen: 2, Payload: []byte("early")}
	if err := c.hub.Endpoint(4).Send(ctx, 1, early); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		inst := e.instances[id]
		return inst != nil && inst.run != nil
	}, "the early share never parked on the retained instance")
	e.mu.Lock()
	inst := e.instances[id]
	parked, bare := len(inst.run.backlog), inst.run.proto == nil && inst.run.futures == nil && inst.run.lelem == nil
	e.mu.Unlock()
	if parked != 1 || !bare {
		t.Fatalf("retained instance after an early share: %d parked, bare run=%v; want 1 on a bare run", parked, bare)
	}
	// Still retained, still serving its result.
	if res, err := e.Attach(id).Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("attach on the retained instance: %v / %v", err, res.Err)
	}
	if st := e.Stats(); st.Finished != 1 || st.RejectedShares != 0 {
		t.Fatalf("stats with the share parked: %+v", st)
	}

	// The start announcement of generation 2 supersedes the copy and
	// replays the parked share into the fresh run, where the garbage is
	// parsed and rejected.
	start := network.Envelope{Instance: id, Kind: network.KindStart, Gen: 2, Payload: req.Marshal()}
	if err := c.hub.Endpoint(4).Send(ctx, 1, start); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, func() bool { return e.Stats().RejectedShares == 1 },
		"the parked share never reached the superseding run")
	if st := e.Stats(); st.Finished != 0 || st.Live != 1 {
		t.Fatalf("stats after the superseding start: %+v, want the stale copy gone and the fresh run live", st)
	}
}

// TestResubmitAfterEvictionStartsFresh: an evicted instance does not
// count as a duplicate — re-submitting the request clears the tombstone
// and runs a fresh instance to completion on every node.
func TestResubmitAfterEvictionStartsFresh(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = 80 * time.Millisecond
		cfg.SweepInterval = 10 * time.Millisecond
	})
	req := coinReq("fresh")
	first := waitAll(t, c.submitAll(t, req))

	for i, e := range c.engines {
		e := e
		waitUntil(t, 10*time.Second, func() bool { return e.InstanceCount() == 0 },
			fmt.Sprintf("engine %d never evicted the finished instance", i+1))
	}

	subs, err := c.engines[0].SubmitBatch(context.Background(), []protocols.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if subs[0].Duplicate {
		t.Fatal("re-submission after eviction flagged duplicate")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	res, err := subs[0].Future.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("fresh run failed: %v", res.Err)
	}
	// CKS05 is deterministic in the coin name: the fresh run reproduces
	// the evicted value.
	if string(res.Value) != string(first[0].Value) {
		t.Fatal("fresh run disagrees with the evicted result")
	}
	// The tombstone is gone: Attach serves the retained fresh result.
	select {
	case res := <-c.engines[0].Attach(req.InstanceID()).Done():
		if res.Err != nil {
			t.Fatalf("attach after fresh run: %v", res.Err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("attach after fresh run did not resolve")
	}
}

// TestPlaceholderWatchersExpire: a watcher attached to an id that never
// materializes is failed with ErrExpired by the sweeper, and the
// placeholder does not leak.
func TestPlaceholderWatchersExpire(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainTTL = 80 * time.Millisecond
		cfg.SweepInterval = 10 * time.Millisecond
	})
	e := c.engines[0]
	f := e.Attach("never-started-instance")
	select {
	case res := <-f.Done():
		if !errors.Is(res.Err, ErrExpired) {
			t.Fatalf("placeholder watcher got %v, want ErrExpired", res.Err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("placeholder watcher never expired")
	}
	waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 0 },
		"expired placeholder still tracked")
}

// TestPlaceholderCapBoundsWatchers: attaching watchers for arbitrary
// unknown ids (the shape of an unauthenticated result-query flood)
// cannot grow engine state past the placeholder cap — the oldest
// placeholders are evicted with ErrExpired instead.
func TestPlaceholderCapBoundsWatchers(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = 2 // placeholder cap = 4 * RetainMax = 8
		cfg.RetainTTL = time.Hour
	})
	e := c.engines[0]
	const flood = 40
	futures := make([]*Future, flood)
	for i := range futures {
		futures[i] = e.Attach(fmt.Sprintf("bogus-id-%04d", i))
	}
	if got := e.InstanceCount(); got > 8 {
		t.Fatalf("watcher flood grew engine to %d instances, cap is 8", got)
	}
	// The overflowed watchers were expired, not silently dropped.
	for i := 0; i < flood-8; i++ {
		select {
		case res := <-futures[i].Done():
			if !errors.Is(res.Err, ErrExpired) {
				t.Fatalf("evicted watcher %d got %v, want ErrExpired", i, res.Err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("evicted watcher %d never resolved", i)
		}
	}
	if st := e.Stats(); st.Evicted < flood-8 {
		t.Fatalf("stats after flood: %+v", st)
	}
}

// TestDuplicateSubmitWithWorkers smoke-tests duplicate submissions
// racing adoption when several workers share the event queue (the
// backlog must survive until the adopter publishes the protocol).
func TestDuplicateSubmitWithWorkers(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.Workers = 4
	})
	for round := 0; round < 5; round++ {
		req := coinReq(fmt.Sprintf("workers-%d", round))
		var futures []*Future
		for _, e := range c.engines {
			for dup := 0; dup < 3; dup++ {
				f, err := e.Submit(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				futures = append(futures, f)
			}
		}
		// The first future per engine is enough: duplicates may share.
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		res, err := futures[0].Wait(ctx)
		cancel()
		if err != nil || res.Err != nil {
			t.Fatalf("round %d: %v / %v", round, err, res.Err)
		}
	}
}

// TestStalledRunExpires: a started instance whose quorum never forms
// (here: one live node of four) is expired by the sweeper after the
// live-run window — watchers get ErrExpired and the engine returns to
// zero tracked instances instead of leaking the stalled run.
func TestStalledRunExpires(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(4, memnet.Options{})
	t.Cleanup(hub.Close)
	e := New(Config{
		Keys:          nodes[0],
		Net:           hub.Endpoint(1),
		RetainTTL:     80 * time.Millisecond, // liveTTL floors at 2s
		SweepInterval: 20 * time.Millisecond,
	})
	t.Cleanup(e.Stop)

	f, err := e.Submit(context.Background(), coinReq("stalled"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-f.Done():
		if !errors.Is(res.Err, ErrExpired) {
			t.Fatalf("stalled run resolved with %v, want ErrExpired", res.Err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("stalled run never expired")
	}
	waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 0 },
		"stalled instance still tracked after expiry")
	if st := e.Stats(); st.Evicted == 0 {
		t.Fatalf("stats after stalled-run expiry: %+v", st)
	}
}

// blockingNet wedges every Broadcast until released, pinning the worker
// so the event queue can be saturated deterministically.
type blockingNet struct {
	release chan struct{}
	in      chan network.Envelope
}

func (b *blockingNet) Send(context.Context, int, network.Envelope) error { return nil }
func (b *blockingNet) Broadcast(context.Context, network.Envelope) error {
	<-b.release
	return nil
}
func (b *blockingNet) Receive() <-chan network.Envelope       { return b.in }
func (b *blockingNet) TransportStats() network.TransportStats { return network.TransportStats{} }
func (b *blockingNet) Close() error                           { return nil }

// TestSubmitOverloadedFailsFast: a saturated event queue rejects both
// Submit and SubmitBatch with the typed ErrOverloaded instead of
// blocking the submitter, and the rejections are counted.
func TestSubmitOverloadedFailsFast(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	bn := &blockingNet{release: make(chan struct{}), in: make(chan network.Envelope)}
	e := New(Config{
		Keys:     nodes[0],
		Net:      bn,
		QueueLen: 1,
	})
	t.Cleanup(e.Stop)
	t.Cleanup(func() { close(bn.release) }) // unwedge the worker before Stop

	ctx := context.Background()
	if _, err := e.Submit(ctx, coinReq("a")); err != nil {
		t.Fatal(err)
	}
	// The worker dequeues "a" and wedges in the start announcement.
	waitUntil(t, 5*time.Second, func() bool { return e.Stats().QueueDepth == 0 },
		"worker never picked up the first submission")
	if _, err := e.Submit(ctx, coinReq("b")); err != nil { // fills the queue
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := e.Submit(ctx, coinReq("c")); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit on full queue: got %v, want ErrOverloaded", err)
	}
	if _, err := e.SubmitBatch(ctx, []protocols.Request{coinReq("d")}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("batch on full queue: got %v, want ErrOverloaded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("overload rejection took %v, want fail-fast", elapsed)
	}
	st := e.Stats()
	if st.Overloaded != 2 || st.QueueDepth != 1 || st.QueueCap != 1 {
		t.Fatalf("stats after overload: %+v", st)
	}
}

// TestRejectedSharesCounted: the stats snapshot counts invalid shares
// alongside the existing observer hook.
func TestRejectedSharesCounted(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{})
	req := coinReq("rejected")
	garbage := network.Envelope{
		Instance: req.InstanceID(),
		Kind:     network.KindProto,
		Round:    1,
		Payload:  []byte("not a share"),
	}
	if err := c.hub.Endpoint(4).Broadcast(context.Background(), garbage); err != nil {
		t.Fatal(err)
	}
	// Let the garbage park on a placeholder first: a share that reaches an
	// instance after it finished is dropped unparsed, and a coin finishes
	// within a couple of link hops.
	for _, e := range c.engines[:3] {
		e := e
		waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 1 },
			"garbage share never reached the engine")
	}
	futures := make([]*Future, 0, 3)
	for _, e := range c.engines[:3] {
		f, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	waitAll(t, futures)
	waitUntil(t, 5*time.Second, func() bool {
		var total uint64
		for _, e := range c.engines[:3] {
			total += e.Stats().RejectedShares
		}
		return total > 0
	}, "garbage shares not counted in stats")
}

// BenchmarkSustainedLoad drives waves of coin instances through a
// 4-node cluster with a small retention cap and reports the retained
// instance count, demonstrating bounded per-node state under sustained
// traffic.
func BenchmarkSustainedLoad(b *testing.B) {
	const cap = 32
	const wave = 8
	c := newCluster(b, 1, 4, memnet.Options{}, func(cfg *Config) {
		cfg.RetainMax = cap
		cfg.RetainTTL = time.Hour
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := make([]protocols.Request, wave)
		for j := range reqs {
			reqs[j] = coinReq(fmt.Sprintf("bench-%d-%d", i, j))
		}
		subs, err := c.engines[0].SubmitBatch(context.Background(), reqs)
		if err != nil {
			b.Fatal(err)
		}
		for _, sub := range subs {
			res, err := sub.Future.Wait(context.Background())
			if err != nil || res.Err != nil {
				b.Fatalf("wait: %v / %v", err, res.Err)
			}
		}
	}
	b.StopTimer()
	waitUntil(b, 20*time.Second, func() bool { return c.engines[0].Stats().Finished <= cap },
		"retained results above retention cap after load")
	b.ReportMetric(float64(c.engines[0].Stats().Finished), "retained-instances")
	b.ReportMetric(float64(c.engines[0].Stats().Evicted), "evicted")
}
