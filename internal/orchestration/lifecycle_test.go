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
			return e.lists[retainedList].n, e.lists[liveList].n, e.lists[placeholderList].n, len(e.instances)
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
	late := network.Envelope{Instance: id, Kind: network.KindProto, Round: 1, Gen: 1, Payload: []byte("late")}
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

// bareEngine is an engine's bookkeeping without its goroutines, network
// or keys, for driving the lists and the eviction memory step by step.
func bareEngine(retainMax int) *Engine {
	return &Engine{
		cfg:            Config{RetainMax: retainMax, RetainTTL: time.Minute},
		instances:      make(map[string]*instance),
		placeholderMax: 4 * retainMax,
		liveTTL:        4 * time.Minute,
		evictedIDs:     newEvictionMemory(16 * retainMax),
	}
}

// checkLists walks every instance list of e forwards and backwards and
// returns each one's ids in order. The links must agree both ways, each
// count must match its walk, every member must carry its list's tag and
// be the tracked instance of its id, and the lists together must hold
// every tracked instance.
func checkLists(t *testing.T, e *Engine) [listTags]string {
	t.Helper()
	var ids [listTags]string
	members := 0
	for tag := range e.lists {
		l := &e.lists[tag]
		var fwd, back string
		n := 0
		for inst := l.front; inst != nil; inst = inst.next {
			if inst.list != listTag(tag) || e.instances[inst.id] != inst {
				t.Fatalf("list %d holds %s, tagged %d, tracked %v", tag, inst.id, inst.list, e.instances[inst.id] == inst)
			}
			fwd += inst.id
			n++
		}
		for inst := l.back; inst != nil; inst = inst.prev {
			back = inst.id + back
		}
		if fwd != back || n != l.n {
			t.Fatalf("list %d reads %q forwards, %q backwards, n=%d", tag, fwd, back, l.n)
		}
		ids[tag] = fwd
		members += n
	}
	if members != len(e.instances) || ids[noList] != "" {
		t.Fatalf("lists hold %d instances (%q unlisted), engine tracks %d", members, ids[noList], len(e.instances))
	}
	return ids
}

// TestRetentionWindowLinks walks the one intrusive FIFO through the
// removals the engine makes on each of its three lists: the front (cap
// and TTL eviction), the middle and the back (supersession), with and
// without a tombstone; then an instance's moves from placeholder to live
// to retained, the placeholder and retention caps, and a sweep that
// expires every list.
func TestRetentionWindowLinks(t *testing.T) {
	for name, tag := range map[string]listTag{"placeholders": placeholderList, "live": liveList, "retained": retainedList} {
		tag := tag
		t.Run(name, func(t *testing.T) {
			e := bareEngine(1)
			insts := make([]*instance, 5)
			for i := range insts {
				insts[i] = newInstance(fmt.Sprint(i), 1)
				e.instances[insts[i].id] = insts[i]
				e.listLocked(insts[i], tag)
			}
			for _, step := range []struct {
				drop int
				tomb bool
				want string
			}{{2, false, "0134"}, {0, true, "134"}, {4, false, "13"}, {1, true, "3"}, {3, false, ""}} {
				e.dropLocked(insts[step.drop], step.tomb)
				if got := checkLists(t, e)[tag]; got != step.want {
					t.Fatalf("after dropping %d: %q, want %q", step.drop, got, step.want)
				}
				in := insts[step.drop]
				if in.list != noList || in.prev != nil || in.next != nil {
					t.Fatalf("dropped instance %d keeps links", step.drop)
				}
				if got := e.evictedIDs.tombstoned(in.id); got != step.tomb {
					t.Fatalf("dropped instance %d tombstoned=%v, want %v", step.drop, got, step.tomb)
				}
			}
			if e.evicted != 5 {
				t.Fatalf("Evicted = %d after five drops", e.evicted)
			}
			e.instances["2"] = insts[2]
			e.listLocked(insts[2], tag)
			if got := checkLists(t, e)[tag]; got != "2" {
				t.Fatalf("re-inserted into an emptied list: %q", got)
			}
		})
	}

	t.Run("moves", func(t *testing.T) {
		e := bareEngine(2) // 8 placeholders, 2 retained
		want := func(placeholders, live, retained string) {
			t.Helper()
			if got := checkLists(t, e); got[placeholderList] != placeholders || got[liveList] != live || got[retainedList] != retained {
				t.Fatalf("lists %q / %q / %q, want %q / %q / %q", got[placeholderList], got[liveList], got[retainedList], placeholders, live, retained)
			}
		}
		insts := map[string]*instance{}
		for _, id := range []string{"a", "b", "c"} {
			insts[id], _ = e.newPlaceholderLocked(id)
		}
		e.adoptLocked(insts["b"])
		e.adoptLocked(insts["a"])
		want("c", "ba", "")
		finish := func(id string) {
			insts[id].created, insts[id].finished = true, true
			e.retire(insts[id])
		}
		finish("b")
		want("c", "a", "b")
		finish("a")
		want("c", "", "ba")
		var evicted []*instance
		for _, id := range []string{"d", "e", "f", "g", "h", "i", "j", "k"} {
			var out []*instance
			insts[id], out = e.newPlaceholderLocked(id)
			evicted = append(evicted, out...)
		}
		if len(evicted) != 1 || evicted[0] != insts["c"] || e.evictedIDs.tombstoned("c") {
			t.Fatalf("the placeholder cap pushed out %d instances, want c alone and no tombstone", len(evicted))
		}
		want("defghijk", "", "ba")
		e.adoptLocked(insts["e"])
		e.adoptLocked(insts["k"])
		insts["k"].created = true
		finish("e")
		want("dfghij", "k", "ae")
		if !e.evictedIDs.tombstoned("b") || e.instances["b"] != nil {
			t.Fatal("the retention cap did not evict b, the oldest result, with a tombstone")
		}
		e.sweep(time.Now().Add(time.Hour))
		want("", "", "")
		for id, tomb := range map[string]bool{"a": true, "e": true, "k": true, "d": false} {
			if got := e.evictedIDs.tombstoned(id); got != tomb {
				t.Fatalf("after the sweep %s tombstoned=%v, want %v", id, got, tomb)
			}
		}
	})
}

// recordingProto is a protocol that never advances and records the
// sender of every message it is fed.
type recordingProto struct{ senders []int }

func (p *recordingProto) DoRound() (*protocols.RoundOutput, error) { return nil, nil }
func (p *recordingProto) Update(msg protocols.ProtocolMessage) error {
	p.senders = append(p.senders, msg.Sender)
	return nil
}
func (p *recordingProto) IsReadyForNextRound() bool { return false }
func (p *recordingProto) IsReadyToFinalize() bool   { return false }
func (p *recordingProto) Finalize() ([]byte, error) { return nil, nil }

// parked is a backlog with one share of each of generations 1 to 3, the
// share of generation g sent by node g.
func parked() []backlogEntry {
	var b []backlogEntry
	for gen := 1; gen <= 3; gen++ {
		b = append(b, backlogEntry{msg: protocols.ProtocolMessage{Sender: gen, Round: 1}, gen: gen})
	}
	return b
}

// TestDrainBacklogKeepsNewerGeneration: a started run of generation 2
// is fed its own parked share, drops the stale one and leaves the share
// of generation 3 parked for the start that will supersede it.
func TestDrainBacklogKeepsNewerGeneration(t *testing.T) {
	e := bareEngine(1)
	inst := newInstance("x", 2)
	proto := &recordingProto{}
	inst.run.proto, inst.run.backlog, inst.created = proto, parked(), true
	e.drainBacklog("x", inst)
	if fmt.Sprint(proto.senders) != "[2]" {
		t.Fatalf("delivered shares of senders %v, want [2]", proto.senders)
	}
	if b := inst.run.backlog; len(b) != 1 || b[0].gen != 3 {
		t.Fatalf("backlog after the drain: %+v, want the generation-3 share alone", b)
	}
}

// TestReleaseKeepsNewerGenerationShare: releasing a finished instance
// fires its watchers and drops the protocol, but a share parked for a
// newer generation stays, on a bare run, for the superseding start.
func TestReleaseKeepsNewerGenerationShare(t *testing.T) {
	inst := newInstance("x", 1)
	f := &Future{ch: make(chan Result, 1)}
	inst.run.proto, inst.run.futures = &recordingProto{}, []*Future{f}
	inst.run.backlog = parked()[2:]
	inst.finished = true
	inst.releaseLocked()
	select {
	case <-f.Done():
	default:
		t.Fatal("release did not fire the watcher")
	}
	if r := inst.run; r == nil || r.proto != nil || r.futures != nil || len(r.backlog) != 1 || r.backlog[0].gen != 3 {
		t.Fatalf("run after the release: %+v, want a bare run holding the generation-3 share", r)
	}
}

// TestPumpStopsWhileQueueFull: Stop ends the pump while it waits for
// room in a full event queue to hand a received envelope on.
func TestPumpStopsWhileQueueFull(t *testing.T) {
	in := make(chan network.Envelope)
	e := bareEngine(1)
	e.cfg.Net = &blockingNet{in: in}
	e.events = make(chan event) // no worker: the hand-off never completes
	e.stop = make(chan struct{})
	e.done.Add(1)
	go e.pump()
	in <- network.Envelope{Gen: 1} // taken: the pump now waits on the queue
	close(e.stop)
	e.done.Wait()
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
	parked, bare := len(inst.run.backlog), inst.run.proto == nil && inst.run.futures == nil && inst.list == retainedList
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
// queued behind the adopting one on the engine's worker (the backlog
// must survive until the adopter publishes the protocol).
func TestDuplicateSubmitWithWorkers(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{})
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
		Gen:      1,
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
