// Package orchestration implements the core layer's execution engine
// (the paper's Fig. 3): an instance manager tracking protocol instances,
// a protocol executor driving each instance's TRI state machine, and the
// dispatch of protocol messages to and from the network layer.
//
// Each engine runs one worker goroutine that processes events (client
// requests and network messages) sequentially. This models the paper's
// deployment, where every Thetacrypt container is pinned to a single
// vCPU.
//
// The engine is built to run indefinitely under sustained load. Two
// subsystems bound its state:
//
//   - Instance lifecycle: finished instances stay retrievable for a
//     retention window (RetainTTL, capped at RetainMax instances) and
//     are then evicted by a background sweeper or by O(1) cap
//     enforcement at finish time. An evicted instance leaves a bounded
//     tombstone behind, so Attach and result queries report a typed
//     ErrExpired instead of silently recreating state, and a
//     re-submission of the same request starts a fresh instance.
//     Placeholders (watchers for ids this node never ran) and started
//     instances that never finish (a quorum that never forms) expire
//     the same way, so no path grows engine state without bound.
//
//   - Flow control: the event queue never blocks a submitter. When it
//     is saturated, Submit and SubmitBatch fail fast with a typed
//     ErrOverloaded that the service layer translates to HTTP 429 and
//     the client SDK retries with backoff.
//
// Stats exposes a snapshot of both subsystems for metrics and tests.
package orchestration

import (
	"container/list"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/precompute"
	"thetacrypt/internal/protocols"
)

// Errors returned by the engine.
var (
	ErrStopped = errors.New("orchestration: engine stopped")
	// ErrOverloaded reports that the event queue is saturated and the
	// submission was not admitted. The request had no effect; callers
	// retry with backoff.
	ErrOverloaded = errors.New("orchestration: engine overloaded, event queue full")
	// ErrExpired reports that an instance's result passed the retention
	// window and was evicted, or that a watched instance never
	// materialized within the window.
	ErrExpired = errors.New("orchestration: instance expired, result evicted after retention window")
)

// maxBacklog bounds the protocol messages parked for an instance that
// has not started on this node; beyond it, further early shares are
// dropped (a correct peer sends at most one share per round).
const maxBacklog = 1024

// Key-install retry: a peer's start announcement can race ahead of the
// DKG finalization that installs the key it refers to (each node
// finalizes on its own schedule). Instead of failing the instance with
// key_unknown, the engine re-enqueues the announcement with exponential
// backoff; early peer shares keep parking on the placeholder meanwhile.
// After the last retry the normal path runs and reports the typed
// missing-key failure.
const (
	keyRetryBase = 5 * time.Millisecond
	maxKeyRetry  = 9 // cumulative backoff ≈ 2.5s
)

// Result is the outcome of a protocol instance on this node.
type Result struct {
	InstanceID string
	Value      []byte
	Err        error
	// Started and Finished delimit the server-side processing of the
	// request on this node, the paper's server-side latency.
	Started  time.Time
	Finished time.Time
}

// Future delivers the result of a submitted request.
type Future struct {
	ch chan Result
}

// Done returns the channel carrying the final result.
func (f *Future) Done() <-chan Result { return f.ch }

// Wait blocks for the result or context cancellation.
func (f *Future) Wait(ctx context.Context) (Result, error) {
	select {
	case r := <-f.ch:
		return r, nil
	case <-ctx.Done():
		return Result{}, ctx.Err()
	}
}

// Config assembles an engine.
type Config struct {
	// Keys is the node's keystore (index, thresholds, named keys). The
	// engine reads it to resolve shares and OpKeyGen instances write
	// freshly generated keys into it.
	Keys *keys.Keystore
	// Net is the node's P2P endpoint.
	Net network.P2P
	// Rand defaults to crypto/rand.Reader.
	Rand io.Reader
	// QueueLen bounds the internal event queue (default 4096). A full
	// queue rejects submissions with ErrOverloaded instead of blocking.
	QueueLen int
	// RetainTTL is how long a finished instance (and its result) stays
	// retrievable before the sweeper evicts it (default 2 minutes).
	RetainTTL time.Duration
	// RetainMax caps the number of finished instances retained at once
	// (default 4096); the oldest is evicted first, in O(1).
	RetainMax int
	// SweepInterval is the cadence of the background sweeper (default
	// RetainTTL/8, clamped to [10ms, 5s]).
	SweepInterval time.Duration
	// OnRejectedShare, when set, observes invalid shares (for metrics
	// and tests), once per rejected share. It runs on the worker
	// goroutine and must be fast.
	OnRejectedShare func(instanceID string, err error)
	// Identity and Roster, when set, seal each DKG and reshare
	// sub-share box to its recipient's identity key; without them a
	// box carries the bare sub-share. Both run the same three rounds.
	// All nodes of a deployment must agree (a node opens only the box
	// encoding it produces). They are typically the same identity
	// material the secure transport authenticates with.
	Identity *identity.Key
	Roster   identity.Roster
}

// Stats is a point-in-time snapshot of the engine's lifecycle and flow
// control state.
type Stats struct {
	// Live counts instances not yet finished, including placeholders
	// awaiting adoption.
	Live int
	// Finished counts finished instances inside the retention window.
	Finished int
	// Evicted counts instances evicted since engine start (retention
	// cap, TTL expiry, and expired placeholders).
	Evicted uint64
	// QueueDepth and QueueCap describe the event queue.
	QueueDepth int
	QueueCap   int
	// RejectedShares counts invalid shares dropped by share
	// verification, one per share.
	RejectedShares uint64
	// Overloaded counts submissions rejected with ErrOverloaded.
	Overloaded uint64
	// PartialBroadcasts counts round broadcasts that failed for some —
	// but not all — peers; the run continues, since the surviving set
	// may still reach a quorum. A rising counter points at a lagging or
	// down peer (see Transport).
	PartialBroadcasts uint64
	// Transport is the P2P layer's per-peer health snapshot: link state
	// (up/dialing/down), outbound queue depth, and send/drop counters.
	Transport network.TransportStats
	// Crypto counts the direct peer-share checks and the relations
	// they checked.
	Crypto precompute.Stats
}

// Engine is one node's orchestration module.
type Engine struct {
	cfg  Config
	self int
	// verifier is the node-wide counting share checker threaded into
	// every protocol instance.
	verifier precompute.Verifier

	events chan event

	mu        sync.Mutex
	instances map[string]*instance
	stopped   bool
	// retained holds finished instances in finish order; the front is
	// always the next to evict, making both cap and TTL eviction O(1)
	// per instance.
	retained retention
	// placeholders holds bare instances awaiting adoption (creation
	// order): watchers for ids this node has not seen and parked early
	// shares. They expire after RetainTTL and are capped at
	// placeholderMax (oldest evicted first), so unauthenticated result
	// queries cannot grow engine state without bound.
	placeholders   *list.List
	placeholderMax int
	// live holds started instances in adoption order; a run that never
	// finishes (e.g. a quorum that never forms) is expired after
	// liveTTL, so no path grows engine state without bound.
	live    *list.List
	liveTTL time.Duration
	// tombstones remembers evicted instance ids so lookups report
	// ErrExpired instead of recreating state: id -> position of its
	// slot in tombOrder, a bounded FIFO of tombstoneMax live entries.
	// See evictions.go.
	tombstones   map[string]uint64
	tombOrder    ring[tombSlot]
	tombstoneMax int
	// gens is a second, longer memory of the highest generation an id
	// is known to have run as, keyed by a hash of the id under genSeed.
	// An id's generation moves here when its tombstone is pushed out of
	// its FIFO or superseded: without it, a double eviction (the
	// tombstone itself evicted by churn before the re-submission
	// arrives) would restart the id at generation 1, which peers still
	// retaining generation N ignore, stalling the run until liveTTL.
	// Bounded FIFO (genOrder) of genMax.
	gens     map[uint64]int
	genOrder ring[uint64]
	genSeed  maphash.Seed
	genMax   int
	evicted  uint64

	rejectedShares    atomic.Uint64
	overloaded        atomic.Uint64
	partialBroadcasts atomic.Uint64

	stop chan struct{}
	done sync.WaitGroup
}

// instance is what the engine keeps per instance id for as long as the id
// is tracked, through the whole retention window (RetainMax per node), so
// it holds only what a finished instance still serves; everything a live
// run needs besides sits behind run. TestRetainedInstanceFootprint pins
// the size.
type instance struct {
	id string
	// gen is the run generation of this id: a re-submission after a
	// retention eviction starts generation N+1, announced on the start
	// envelope, so peers that still retain generation N supersede their
	// stale copy and join the fresh run instead of stalling it
	// (guarded by Engine.mu; effectively immutable once the protocol is
	// published).
	gen int
	// mu serializes all access to the TRI protocol, which is not safe
	// for concurrent use.
	mu sync.Mutex
	// run is the live half of the instance, nil once the instance has
	// been retired and released. The pointer is set before the instance
	// is published and cleared with both Engine.mu and mu held
	// (releaseLocked), so it may be read under either lock; the fields
	// behind it keep the lock they name. After the release only
	// parkLocked, under Engine.mu, sets it again.
	run *run
	// created records that the protocol was published for this instance
	// (guarded by Engine.mu). It is what "this instance was started"
	// means once release has dropped the run: a finished instance only
	// ever serves result, so it does not keep the state machine —
	// adapter, ciphertext, every share and dealing — alive for the whole
	// retention window.
	created bool
	// starting marks that a worker has claimed the instance for
	// protocol creation (guarded by Engine.mu). It distinguishes a
	// placeholder — created by Attach or by a peer share arriving
	// before the start announcement — from an instance whose protocol
	// is being (or has been) set up, so exactly one submission adopts
	// and starts each placeholder.
	starting bool
	finished bool
	// released marks that the result has been handed to the watchers,
	// which happens after the engine's own books show the instance
	// finished (see releaseLocked).
	released bool
	// retained marks membership of Engine.retained, whose links are
	// prev and next (all three guarded by Engine.mu).
	retained   bool
	prev, next *instance
	// started is the creation time, as an offset from clock: the start
	// of the server-side latency and the placeholder sweep's clock. With
	// value, err and took, final once finished is set, it is the result,
	// which result() spells out: a Result would repeat the id and hold
	// two full time.Time values. err sits behind a pointer, allocated
	// only when an instance fails, because an interface takes 8 bytes
	// more in every retained instance.
	started time.Duration
	took    time.Duration
	value   []byte
	err     *error
}

// clock is the time base of instance timestamps. An offset from it takes
// 8 bytes where a time.Time takes 24, and reads back with clock's
// monotonic reading.
var clock = time.Now()

// result is the instance's Result; inst.finished is set. Finished is
// derived the same way every time, so every watcher of an instance sees
// equal timestamps, and both keep clock's monotonic reading.
func (inst *instance) result() Result {
	r := Result{InstanceID: inst.id, Value: inst.value, Started: inst.startedAt(), Finished: inst.finishedAt()}
	if inst.err != nil {
		r.Err = *inst.err
	}
	return r
}

// startedAt is when the instance was created.
func (inst *instance) startedAt() time.Time { return clock.Add(inst.started) }

// finishedAt is when the instance finished: the retention clock.
func (inst *instance) finishedAt() time.Time { return clock.Add(inst.started + inst.took) }

// retention is the retention window: a FIFO of finished instances linked
// through the instances themselves, so that a retained result costs no
// list element on top of its instance.
type retention struct {
	front, back *instance
	n           int
}

func (l *retention) pushBack(inst *instance) {
	inst.retained, inst.prev, inst.next = true, l.back, nil
	if l.back != nil {
		l.back.next = inst
	} else {
		l.front = inst
	}
	l.back = inst
	l.n++
}

// remove unlinks inst if it is in the window.
func (l *retention) remove(inst *instance) {
	if !inst.retained {
		return
	}
	if inst.prev != nil {
		inst.prev.next = inst.next
	} else {
		l.front = inst.next
	}
	if inst.next != nil {
		inst.next.prev = inst.prev
	} else {
		l.back = inst.prev
	}
	inst.retained, inst.prev, inst.next = false, nil, nil
	l.n--
}

// run is the state of an instance that only a live run reads: released
// (and left to the collector) when the instance finishes.
type run struct {
	// proto is published under Engine.mu and used under instance.mu.
	proto   protocols.Protocol
	futures []*Future
	// backlog holds protocol messages that arrived before the instance
	// (or their generation) was started on this node (guarded by
	// Engine.mu).
	backlog []backlogEntry
	// pelem/lelem are this instance's entries in Engine.placeholders and
	// Engine.live (guarded by Engine.mu; nil when absent); adoptedAt is
	// the live-run clock, set when a worker adopts the instance.
	pelem, lelem *list.Element
	adoptedAt    time.Time
}

func newInstance(id string, gen int) *instance {
	return &instance{id: id, gen: gen, started: time.Since(clock), run: &run{}}
}

// parkLocked queues a protocol message that arrived ahead of the run it
// belongs to; Engine.mu is held. A released instance grows a bare run
// again for it: a share of a newer generation waits there for the start
// announcement that will supersede the retained copy.
func (inst *instance) parkLocked(msg protocols.ProtocolMessage, gen int) {
	if inst.run == nil {
		inst.run = &run{}
	}
	if len(inst.run.backlog) < maxBacklog {
		inst.run.backlog = append(inst.run.backlog, backlogEntry{msg: msg, gen: gen})
	}
}

type event struct {
	// Exactly one of req/batch/env is meaningful.
	req    *protocols.Request
	future *Future
	batch  []batchItem
	env    *network.Envelope
	// keyRetries counts how often a start announcement was deferred
	// waiting for its key to be installed.
	keyRetries int
}

// batchItem is one request of a batched submission.
type batchItem struct {
	req    protocols.Request
	future *Future
}

// backlogEntry is one parked protocol message with the run generation
// it belongs to; entries of other generations are filtered at drain.
type backlogEntry struct {
	msg protocols.ProtocolMessage
	gen int
}

// New creates and starts an engine.
func New(cfg Config) *Engine {
	if cfg.Rand == nil {
		cfg.Rand = rand.Reader
	}
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 4096
	}
	if cfg.RetainTTL <= 0 {
		cfg.RetainTTL = 2 * time.Minute
	}
	if cfg.RetainMax <= 0 {
		cfg.RetainMax = 4096
	}
	if cfg.SweepInterval <= 0 {
		cfg.SweepInterval = cfg.RetainTTL / 8
		if cfg.SweepInterval > 5*time.Second {
			cfg.SweepInterval = 5 * time.Second
		}
		if cfg.SweepInterval < 10*time.Millisecond {
			cfg.SweepInterval = 10 * time.Millisecond
		}
	}
	// A started instance gets several retention windows (with a floor)
	// to finish before it is expired: generous against slow protocol
	// runs, still a hard bound on stalled ones (e.g. a quorum that
	// never forms).
	liveTTL := 4 * cfg.RetainTTL
	if liveTTL < 2*time.Second {
		liveTTL = 2 * time.Second
	}
	e := &Engine{
		cfg:            cfg,
		self:           cfg.Keys.Index,
		events:         make(chan event, cfg.QueueLen),
		instances:      make(map[string]*instance),
		placeholders:   list.New(),
		placeholderMax: 4 * cfg.RetainMax,
		live:           list.New(),
		liveTTL:        liveTTL,
		tombstones:     make(map[string]uint64),
		tombstoneMax:   4 * cfg.RetainMax,
		gens:           make(map[uint64]int),
		genOrder:       ring[uint64]{limit: 16 * cfg.RetainMax},
		genSeed:        maphash.MakeSeed(),
		genMax:         16 * cfg.RetainMax,
		stop:           make(chan struct{}),
	}
	e.done.Add(3)
	go e.pump()
	go e.sweeper()
	go e.worker()
	return e
}

// Stop shuts the engine down and waits for its goroutines.
func (e *Engine) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	e.mu.Unlock()
	close(e.stop)
	e.done.Wait()
}

// Submit starts a protocol instance for the request on this node and
// announces it to the peers. The same request submitted on several nodes
// joins a single logical instance. Submit never blocks on a saturated
// engine: it fails fast with ErrOverloaded and the caller retries.
func (e *Engine) Submit(ctx context.Context, req protocols.Request) (*Future, error) {
	f := &Future{ch: make(chan Result, 1)}
	if err := e.enqueueEvent(ctx, event{req: &req, future: f}); err != nil {
		return nil, err
	}
	return f, nil
}

// Submission describes one request of a batched submission: its
// deterministic instance id, the future delivering its result, and
// whether the request joined an instance that already existed on this
// node (idempotent re-submission).
type Submission struct {
	InstanceID string
	Future     *Future
	Duplicate  bool
}

// SubmitBatch starts protocol instances for 1..N requests with a single
// event-queue hand-off, amortizing dispatch across the batch: the whole
// batch is processed in one worker pass instead of N queue round-trips.
// Submissions are returned in request order. Duplicate detection is a
// snapshot taken at enqueue time; concurrent submitters racing on the
// same request still join one instance, only the flag is best-effort
// for the loser of the race. An instance evicted after its retention
// window does not count as existing: re-submitting it starts a fresh
// run. Like Submit, a saturated queue yields ErrOverloaded, not a stall.
func (e *Engine) SubmitBatch(ctx context.Context, reqs []protocols.Request) ([]Submission, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	subs := make([]Submission, len(reqs))
	items := make([]batchItem, len(reqs))
	inBatch := make(map[string]bool, len(reqs))
	e.mu.Lock()
	for i, req := range reqs {
		id := req.InstanceID()
		// A bare placeholder (created by Attach or an early peer share)
		// is not a running instance: the submission that adopts it is
		// still the first submission.
		inst, exists := e.instances[id]
		dup := exists && (inst.starting || inst.created)
		f := &Future{ch: make(chan Result, 1)}
		subs[i] = Submission{InstanceID: id, Future: f, Duplicate: dup || inBatch[id]}
		items[i] = batchItem{req: req, future: f}
		inBatch[id] = true
	}
	e.mu.Unlock()
	if err := e.enqueueEvent(ctx, event{batch: items}); err != nil {
		return nil, err
	}
	return subs, nil
}

// enqueueEvent admits one submission event without ever blocking on a
// full queue (admission control): saturation is reported as
// ErrOverloaded so the caller can shed or retry with backoff.
func (e *Engine) enqueueEvent(ctx context.Context, ev event) error {
	select {
	case <-e.stop:
		return ErrStopped
	case <-ctx.Done():
		return ctx.Err()
	default:
	}
	select {
	case e.events <- ev:
		return nil
	default:
		e.overloaded.Add(1)
		return ErrOverloaded
	}
}

// pump moves network envelopes into the event queue. Unlike client
// submissions, peer traffic is not shed on a full queue: blocking here
// propagates backpressure to the transport.
func (e *Engine) pump() {
	defer e.done.Done()
	for {
		select {
		case env, ok := <-e.cfg.Net.Receive():
			if !ok {
				return
			}
			select {
			case e.events <- event{env: &env}:
			case <-e.stop:
				return
			}
		case <-e.stop:
			return
		}
	}
}

// worker processes events sequentially.
func (e *Engine) worker() {
	defer e.done.Done()
	for {
		select {
		case ev := <-e.events:
			e.handle(ev)
		case <-e.stop:
			return
		}
	}
}

func (e *Engine) handle(ev event) {
	switch {
	case ev.req != nil:
		e.handleSubmit(*ev.req, ev.future)
	case ev.batch != nil:
		for _, item := range ev.batch {
			e.handleSubmit(item.req, item.future)
		}
	case ev.env != nil:
		e.handleEnvelope(*ev.env, ev.keyRetries)
	}
}

// ensureInstance creates (or returns) the instance for a request. A
// placeholder instance — left behind by Attach or by a peer share that
// arrived before the start announcement — is adopted: its futures and
// backlog are kept and the protocol is created and started here. A
// tombstoned (evicted) id is resurrected as a fresh instance of the
// next generation. A start announcement carrying a generation above
// the locally held copy supersedes it: the stale copy (typically a
// retained finished result whose peers already evicted theirs) is
// retired and this node joins the fresh run deliberately instead of
// stalling it until liveTTL expiry. gen is the announced generation
// (0 for a local submission, which derives it). Lock order is always
// e.mu before inst.mu. The instance is returned even on error, so
// callers can retire it.
func (e *Engine) ensureInstance(req protocols.Request, announce bool, future *Future, gen int) (*instance, error) {
	id := req.InstanceID()
	e.mu.Lock()
	inst, ok := e.instances[id]
	var superseded *instance
	if ok && gen > inst.gen && (inst.starting || inst.created) {
		superseded = inst
		e.supersedeLocked(inst)
		inst, ok = nil, false
	}
	adopt := false
	if ok {
		if !inst.created && !inst.starting {
			g := gen
			if g == 0 {
				// Local adoption of a placeholder: join the newest run
				// hinted by parked shares, else start the next known
				// generation.
				g = e.nextGenLocked(id)
				for _, b := range inst.run.backlog {
					if b.gen > g {
						g = b.gen
					}
				}
			}
			if g > inst.gen {
				inst.gen = g
			}
			e.adoptLocked(inst)
			adopt = true
		}
	} else {
		g := gen
		if g == 0 {
			g = e.nextGenLocked(id)
		}
		e.clearTombstoneLocked(id)
		inst = newInstance(id, g)
		if superseded != nil && superseded.run != nil {
			// Early shares of the fresh run may have parked on the old
			// copy; carry them over (drainBacklog filters by generation).
			inst.run.backlog = superseded.run.backlog
			superseded.run.backlog = nil
		}
		e.instances[id] = inst
		e.adoptLocked(inst)
		adopt = true
	}
	e.mu.Unlock()
	if superseded != nil {
		// Fail the stale copy's watchers (no-op when it had finished).
		e.expireAll([]*instance{superseded})
	}
	if future != nil {
		inst.mu.Lock()
		inst.watchLocked(future)
		inst.mu.Unlock()
	}
	if !adopt {
		return inst, nil
	}

	proto, err := protocols.NewWith(e.cfg.Rand, e.cfg.Keys, req, protocols.Env{
		Verifier: &e.verifier,
		Identity: e.cfg.Identity,
		Roster:   e.cfg.Roster,
	})
	if err == nil {
		// Publish under e.mu so handleEnvelope's created check is race
		// free.
		e.mu.Lock()
		inst.run.proto = proto
		inst.created = true
		e.mu.Unlock()
	}

	inst.mu.Lock()
	defer inst.mu.Unlock()
	if err != nil {
		e.finishLocked(id, inst, Result{InstanceID: id, Err: err})
		return inst, err
	}

	if announce {
		start := network.Envelope{
			Instance: id,
			Kind:     network.KindStart,
			Gen:      inst.gen,
			Payload:  req.Marshal(),
		}
		if err := e.broadcast(start); err != nil {
			e.finishLocked(id, inst, Result{InstanceID: id, Err: fmt.Errorf("announce: %w", err)})
			return inst, err
		}
	}
	e.advanceLocked(id, inst, true)
	return inst, nil
}

// broadcast sends one envelope to every peer. Every P2P here stages it
// without waiting (the proxy ignores the context), so it carries no
// deadline. A partial failure is tolerated only while a quorum is
// still feasible: the threshold protocol needs t+1 shares including
// this node's own, so at least t of the attempted peers must have been
// reached. A tolerated incident is counted in Stats.PartialBroadcasts
// and the lagging peer shows in Stats.Transport. A quorum-killing
// failure, or one not attributable to specific peers (closed
// transport), is returned to fail the instance instead of letting it
// stall until retention expiry.
func (e *Engine) broadcast(env network.Envelope) error {
	err := e.cfg.Net.Broadcast(context.Background(), env)
	if err == nil {
		return nil
	}
	var be *network.BroadcastError
	if !errors.As(err, &be) {
		return err
	}
	// be.Peers is the count the transport actually attempted — the
	// authoritative denominator even when only part of the mesh is
	// registered (dynamic port assignment).
	if reached := be.Peers - len(be.Failed); reached >= e.cfg.Keys.T {
		e.partialBroadcasts.Add(1)
		return nil
	}
	return err
}

func (e *Engine) handleSubmit(req protocols.Request, future *Future) {
	inst, err := e.ensureInstance(req, true, future, 0)
	if err == nil {
		// Peer shares may have arrived before the local submission.
		e.drainBacklog(req.InstanceID(), inst)
	}
	e.retire(inst)
}

func (e *Engine) handleEnvelope(env network.Envelope, keyRetries int) {
	// Unversioned senders mean generation 1.
	gen := env.Gen
	if gen < 1 {
		gen = 1
	}
	switch env.Kind {
	case network.KindStart:
		req, err := protocols.UnmarshalRequest(env.Payload)
		if err != nil {
			return // malformed announcement; ignore
		}
		if req.InstanceID() != env.Instance {
			return // inconsistent announcement; ignore
		}
		if e.deferForKey(req, env, keyRetries) {
			return
		}
		inst, err := e.ensureInstance(req, false, nil, gen)
		if err == nil {
			e.drainBacklog(env.Instance, inst)
		}
		e.retire(inst)
	case network.KindProto:
		msg := protocols.ProtocolMessage{
			Sender: env.From, Round: env.Round, Payload: env.Payload,
		}
		e.mu.Lock()
		inst, ok := e.instances[env.Instance]
		if ok && inst.created {
			switch {
			case gen < inst.gen:
				e.mu.Unlock()
				return // stale share from a superseded run
			case gen > inst.gen:
				// Early share of a fresh run racing ahead of its start
				// announcement: park it; the superseding start carries
				// the backlog over.
				inst.parkLocked(msg, gen)
				e.mu.Unlock()
				return
			}
			e.mu.Unlock()
			e.deliver(env.Instance, inst, msg)
			e.retire(inst)
			return
		}
		// Share arrived before the start announcement (or while the
		// instance creation is in flight): park it. A share of a run at
		// or below an evicted id's generation is stale and keeps the
		// tombstone; a newer one supersedes it — a peer may be
		// legitimately re-running the instance.
		var evicted []*instance
		if inst == nil {
			if gen < e.nextGenLocked(env.Instance) {
				e.mu.Unlock()
				return
			}
			e.clearTombstoneLocked(env.Instance)
			inst, evicted = e.newPlaceholderLocked(env.Instance)
		}
		inst.parkLocked(msg, gen)
		e.mu.Unlock()
		e.expireAll(evicted)
	}
}

// deferForKey reports whether a peer start announcement should wait
// for its key: the referenced key is not installed yet (a DKG on this
// node may still be finalizing), or the announcement pins a future
// epoch (a reshare on this node may still be finalizing), and retries
// remain. The envelope is re-enqueued after an exponential backoff;
// meanwhile the instance stays a placeholder, so early peer shares
// keep parking. A request pinned BEHIND the key's current epoch does
// not defer — time cannot roll it forward, so it fails fast with the
// typed epoch error.
func (e *Engine) deferForKey(req protocols.Request, env network.Envelope, retries int) bool {
	if req.Op == protocols.OpKeyGen || retries >= maxKeyRetry {
		return false
	}
	if k, err := e.cfg.Keys.Get(req.Scheme, req.EffectiveKeyID()); err == nil && req.Epoch <= k.Epoch {
		return false
	}
	delay := keyRetryBase << retries
	time.AfterFunc(delay, func() {
		select {
		case e.events <- event{env: &env, keyRetries: retries + 1}:
		case <-e.stop:
		}
	})
	return true
}

// drainBacklog replays messages that arrived before the instance start.
// Only entries of the instance's own generation are delivered; shares
// of an even newer run stay parked for the superseding start, stale
// ones are dropped.
func (e *Engine) drainBacklog(id string, inst *instance) {
	e.mu.Lock()
	if !inst.created {
		// The protocol is not published: draining now would feed the
		// parked shares to deliver, which discards them. The adopter
		// drains after publishing.
		e.mu.Unlock()
		return
	}
	r := inst.run
	if r == nil {
		// Already finished and released: nothing is parked that this
		// run could still use.
		e.mu.Unlock()
		return
	}
	backlog := r.backlog
	gen := inst.gen
	var keep []backlogEntry
	for _, entry := range backlog {
		if entry.gen > gen {
			keep = append(keep, entry)
		}
	}
	r.backlog = keep
	e.mu.Unlock()
	for _, entry := range backlog {
		if entry.gen == gen {
			e.deliver(id, inst, entry.msg)
		}
	}
}

func (e *Engine) deliver(id string, inst *instance, msg protocols.ProtocolMessage) {
	inst.mu.Lock()
	defer inst.mu.Unlock()
	if inst.finished || inst.run.proto == nil {
		return
	}
	if err := inst.run.proto.Update(msg); err != nil {
		rejected := protocols.Rejections(err)
		if rejected == nil {
			// Non-share errors are protocol failures.
			e.finishLocked(id, inst, Result{InstanceID: id, Err: err})
			return
		}
		for _, r := range rejected {
			e.rejectedShares.Add(1)
			if e.cfg.OnRejectedShare != nil {
				e.cfg.OnRejectedShare(id, r)
			}
		}
		// The instance keeps running, and the message that carried
		// the rejections may still have moved it on: a FROST
		// commitment completing the set rejects the parked shares
		// that fail and lets this node sign all the same.
	}
	e.advanceLocked(id, inst, false)
}

// advanceLocked runs the TRI state machine: execute rounds while ready,
// send produced messages, and finalize when possible. inst.mu is held.
func (e *Engine) advanceLocked(id string, inst *instance, firstRound bool) {
	if inst.finished || inst.run.proto == nil {
		return
	}
	proto := inst.run.proto
	runRound := firstRound
	for {
		if runRound {
			out, err := proto.DoRound()
			if err != nil {
				e.finishLocked(id, inst, Result{InstanceID: id, Err: err})
				return
			}
			if out != nil {
				env := network.Envelope{
					Instance: id,
					Kind:     network.KindProto,
					Round:    out.Round,
					Gen:      inst.gen,
					Payload:  out.Payload,
				}
				// The transport hint selects P2P or TOB; with the
				// default stack both map to the P2P broadcast channel.
				if err := e.broadcast(env); err != nil {
					e.finishLocked(id, inst, Result{InstanceID: id, Err: fmt.Errorf("broadcast round %d: %w", out.Round, err)})
					return
				}
			}
		}
		if proto.IsReadyToFinalize() {
			value, err := proto.Finalize()
			e.finishLocked(id, inst, Result{InstanceID: id, Value: value, Err: err})
			return
		}
		if proto.IsReadyForNextRound() {
			runRound = true
			continue
		}
		return
	}
}

// finishLocked completes an instance; inst.mu is held. Retention
// bookkeeping and the hand-over of the result to the watchers happen in
// retire, which workers call once inst.mu is released (lock order
// forbids taking e.mu here).
func (e *Engine) finishLocked(id string, inst *instance, res Result) {
	if inst.finished {
		return
	}
	inst.finished = true
	inst.value, inst.took = res.Value, time.Since(clock)-inst.started
	if err := res.Err; err != nil {
		inst.err = &err
	}
}

// fireLocked hands a finished instance's result to its watchers; inst.mu
// is held. It runs after the instance left the live books (retired into
// the retention window, or removed by eviction or expiry), never from
// finishLocked: a caller holding a result must find Stats, Attach and
// duplicate detection already agreeing that the instance finished.
// Idempotent.
func (inst *instance) fireLocked() {
	if inst.released {
		return
	}
	inst.released = true
	for _, f := range inst.run.futures {
		f.ch <- inst.result()
	}
	inst.run.futures = nil
}

// releaseLocked fires the watchers of an instance that retire has just
// booked as finished and lets go of its run — the protocol state machine
// and everything else only a live run reads; Engine.mu and inst.mu are
// both held. Shares of a newer generation parked on the instance stay.
// Idempotent.
func (inst *instance) releaseLocked() {
	inst.fireLocked()
	var parked *run
	if inst.run != nil && len(inst.run.backlog) > 0 {
		parked = &run{backlog: inst.run.backlog}
	}
	inst.run = parked
}

// watchLocked registers a future on the instance: served at once when
// the result has been released, parked until then; inst.mu is held.
func (inst *instance) watchLocked(f *Future) {
	if inst.released {
		f.ch <- inst.result()
		return
	}
	inst.run.futures = append(inst.run.futures, f)
}

// retire moves a finished instance into the retention window, enforces
// the retention cap (evicting the oldest finished instances in O(1)
// each) and then releases the result. It is idempotent and a no-op for
// unfinished instances.
func (e *Engine) retire(inst *instance) {
	if inst == nil {
		return
	}
	inst.mu.Lock()
	finished := inst.finished
	inst.mu.Unlock()
	if !finished {
		return
	}
	e.mu.Lock()
	// Unless already retired, or evicted and replaced.
	if !inst.retained && e.instances[inst.id] == inst {
		e.unlistLocked(inst)
		e.retained.pushBack(inst)
		for e.retained.n > e.cfg.RetainMax {
			e.evictLocked(e.retained.front)
		}
	}
	// Nobody holds a finished instance's mutex for long, so taking it
	// under e.mu does not stall the engine.
	inst.mu.Lock()
	inst.releaseLocked()
	inst.mu.Unlock()
	e.mu.Unlock()
}

// evictLocked removes a retained instance from the engine, leaving a
// tombstone; e.mu is held.
func (e *Engine) evictLocked(inst *instance) {
	e.retained.remove(inst)
	if cur, ok := e.instances[inst.id]; ok && cur == inst {
		delete(e.instances, inst.id)
	}
	e.tombstoneLocked(inst.id, inst.gen)
	e.evicted++
}

// supersedeLocked detaches a stale copy of an instance (an older
// generation a peer is re-running) so a fresh instance can take its
// id; e.mu is held. No tombstone is left — the fresh run immediately
// replaces the entry. The caller expires the detached copy outside
// e.mu: a finished copy's watchers already fired, an unfinished one
// fails with ErrExpired.
func (e *Engine) supersedeLocked(inst *instance) {
	e.unlistLocked(inst)
	e.retained.remove(inst)
	if cur, ok := e.instances[inst.id]; ok && cur == inst {
		delete(e.instances, inst.id)
	}
	e.evicted++
}

// newPlaceholderLocked registers a bare instance awaiting adoption and
// enforces the placeholder cap; e.mu is held. Evicted placeholders are
// returned for the caller to expire once e.mu is released (their
// watchers get ErrExpired). No tombstone is left — the id never ran
// here, so a later Attach may park a fresh watcher.
func (e *Engine) newPlaceholderLocked(id string) (*instance, []*instance) {
	inst := newInstance(id, 0)
	e.instances[id] = inst
	inst.run.pelem = e.placeholders.PushBack(inst)
	var evicted []*instance
	for e.placeholders.Len() > e.placeholderMax {
		old := e.placeholders.Front().Value.(*instance)
		e.unlistLocked(old)
		delete(e.instances, old.id)
		e.evicted++
		evicted = append(evicted, old)
	}
	return inst, evicted
}

// adoptLocked marks an instance as claimed for protocol creation and
// moves it onto the live-run sweep list; e.mu is held.
func (e *Engine) adoptLocked(inst *instance) {
	inst.starting = true
	e.unlistLocked(inst)
	inst.run.adoptedAt = time.Now()
	inst.run.lelem = e.live.PushBack(inst)
}

// unlistLocked drops an instance from whichever sweep list holds it;
// e.mu is held.
func (e *Engine) unlistLocked(inst *instance) {
	r := inst.run
	if r == nil {
		return // released: on neither list
	}
	if r.pelem != nil {
		e.placeholders.Remove(r.pelem)
		r.pelem = nil
	}
	if r.lelem != nil {
		e.live.Remove(r.lelem)
		r.lelem = nil
	}
}

// expireAll finishes evicted instances with ErrExpired, firing their
// watchers. Must be called without e.mu held (lock order).
func (e *Engine) expireAll(insts []*instance) {
	for _, inst := range insts {
		inst.mu.Lock()
		e.finishLocked(inst.id, inst, Result{InstanceID: inst.id, Err: ErrExpired})
		inst.fireLocked()
		inst.mu.Unlock()
	}
}

// sweeper periodically evicts finished instances past the retention
// TTL, placeholders that never materialized, and started instances
// that never finished within their run window.
func (e *Engine) sweeper() {
	defer e.done.Done()
	ticker := time.NewTicker(e.cfg.SweepInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			e.sweep(time.Now())
		case <-e.stop:
			return
		}
	}
}

// sweep runs one sweeper pass. Both lists are ordered by their
// respective clocks, so each pass touches only the entries it evicts.
func (e *Engine) sweep(now time.Time) {
	var expired []*instance
	e.mu.Lock()
	for inst := e.retained.front; inst != nil; inst = e.retained.front {
		if now.Sub(inst.finishedAt()) < e.cfg.RetainTTL {
			break
		}
		e.evictLocked(inst)
	}
	// Bare placeholders that never materialized expire after RetainTTL.
	// No tombstone: the id never ran here.
	for front := e.placeholders.Front(); front != nil; front = e.placeholders.Front() {
		inst := front.Value.(*instance)
		if now.Sub(inst.startedAt()) < e.cfg.RetainTTL {
			break
		}
		e.unlistLocked(inst)
		delete(e.instances, inst.id)
		e.evicted++
		expired = append(expired, inst)
	}
	// Started instances that never finish (a quorum that never forms, a
	// wedged run) expire after the longer liveTTL, so engine state
	// stays bounded on every path.
	for front := e.live.Front(); front != nil; front = e.live.Front() {
		inst := front.Value.(*instance)
		if now.Sub(inst.run.adoptedAt) < e.liveTTL {
			break
		}
		if !inst.created {
			break // protocol creation in flight; the next pass decides
		}
		e.unlistLocked(inst)
		delete(e.instances, inst.id)
		e.tombstoneLocked(inst.id, inst.gen)
		e.evicted++
		expired = append(expired, inst)
	}
	e.mu.Unlock()
	// Fail the expired instances' watchers outside e.mu (lock order).
	e.expireAll(expired)
}

// Attach registers a future on an instance (present or future), used by
// the service layer's result endpoint. The returned future fires
// immediately when the instance already finished, and immediately with
// ErrExpired when the instance was evicted after its retention window.
func (e *Engine) Attach(id string) *Future {
	f := &Future{ch: make(chan Result, 1)}
	e.mu.Lock()
	inst, ok := e.instances[id]
	var evicted []*instance
	if !ok {
		if _, tomb := e.tombstones[id]; tomb {
			e.mu.Unlock()
			f.ch <- Result{InstanceID: id, Err: ErrExpired}
			return f
		}
		inst, evicted = e.newPlaceholderLocked(id)
	}
	e.mu.Unlock()
	e.expireAll(evicted)
	inst.mu.Lock()
	inst.watchLocked(f)
	inst.mu.Unlock()
	return f
}

// InstanceCount reports the number of tracked instances (for tests and
// metrics): live instances, placeholders, and retained finished results.
func (e *Engine) InstanceCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.instances)
}

// Stats snapshots the engine's lifecycle and flow control counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	st := Stats{
		Live:       len(e.instances) - e.retained.n,
		Finished:   e.retained.n,
		Evicted:    e.evicted,
		QueueDepth: len(e.events),
		QueueCap:   cap(e.events),
	}
	e.mu.Unlock()
	st.RejectedShares = e.rejectedShares.Load()
	st.Overloaded = e.overloaded.Load()
	st.PartialBroadcasts = e.partialBroadcasts.Load()
	st.Transport = e.cfg.Net.TransportStats()
	st.Crypto = e.verifier.Stats()
	return st
}
