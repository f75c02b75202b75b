// Package memnet provides an in-process P2P network with one uniform
// one-way link delay plus optional jitter. It runs a whole committee in
// one process (Cluster, the sharded benchmark workload) and serves as
// the fault-injection surface for tests (crashed nodes, dropped or
// delayed messages).
//
// Send windows, the relink ack layer and Broadcast come from the
// shared link pipeline (internal/network/link), as in tcpnet, so the
// simulated network offers the same stats and reliable-delivery
// contract as the real one. memnet adds what it simulates: per-link
// latency, jitter and FIFO order, crashes and restarts, and a drop
// filter for in-flight loss. Envelopes are handed over in process,
// never marshaled, so there is no wire to authenticate and
// TransportStats reports no link Authenticated. A
// crashed destination stalls the sender toward it — the in-process
// analogue of a dead TCP peer holding the writer in dial-retry — so
// its ack window fills until sends toward it are refused, and
// TransportStats reports the peer Down, identically to the real
// transport; frames lost in flight (a crash race, a DropIf filter) are
// resent and deduplicated.
package memnet

import (
	"context"
	"math/rand/v2"
	"sync"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/link"
)

// crashPoll is how often a stalled sender re-checks a crashed
// destination; the in-process stand-in for tcpnet's dial backoff.
const crashPoll = time.Millisecond

// Options configures a Hub.
type Options struct {
	// Latency is the one-way delay of every link; zero means none.
	Latency time.Duration
	// JitterFrac adds uniform jitter in [0, JitterFrac) of the base
	// latency to every message.
	JitterFrac float64
	// Seed makes jitter deterministic.
	Seed uint64
	// AckInterval coalesces standalone acknowledgements and paces how
	// often senders check for a due resend (default 25 ms).
	AckInterval time.Duration
	// ResendTimeout is how long a frame stays unacknowledged before it
	// is retransmitted (default 500 ms).
	ResendTimeout time.Duration
}

// Hub connects n in-process endpoints.
type Hub struct {
	opts Options
	// eps[i] is node i's endpoint, 1..n.
	eps  []*endpoint
	stop chan struct{}
	// wg tracks in-flight deliveries.
	wg sync.WaitGroup

	mu      sync.Mutex
	rng     *rand.Rand
	crashed []bool
	dropFn  func(env network.Envelope) bool
	closed  bool
	// lastArrival and lastDone enforce per-link FIFO: a message never
	// arrives before an earlier message on the same (from, to) link,
	// matching TCP semantics.
	lastArrival map[[2]int]time.Time
	lastDone    map[[2]int]chan struct{}
}

// NewHub creates a hub for nodes 1..n.
func NewHub(n int, opts Options) *Hub {
	h := &Hub{
		opts:        opts,
		eps:         make([]*endpoint, n+1),
		stop:        make(chan struct{}),
		rng:         rand.New(rand.NewPCG(opts.Seed, opts.Seed^0x9e3779b97f4a7c15)),
		crashed:     make([]bool, n+1),
		lastArrival: make(map[[2]int]time.Time),
		lastDone:    make(map[[2]int]chan struct{}),
	}
	cfg := link.Config{
		AckInterval:   opts.AckInterval,
		ResendTimeout: opts.ResendTimeout,
	}
	for i := 1; i <= n; i++ {
		e := &endpoint{hub: h, inbox: make(chan network.Envelope, network.InboundQueueLen)}
		cfg.Self = i
		e.links = link.New(cfg, func(env network.Envelope) network.Envelope { return env }, e.deliver)
		for to := 1; to <= n; to++ {
			if to != i {
				e.links.AddPeer(to, func(env network.Envelope) bool { return h.write(to, env) })
			}
		}
		h.eps[i] = e
	}
	return h
}

// Endpoint returns node i's P2P interface.
func (h *Hub) Endpoint(i int) network.P2P { return h.eps[i] }

// Crash makes a node unreachable and stops its sends, simulating a
// crashed replica. Each peer's sender toward it stalls on the frame it
// was writing, as a TCP writer sits in dial-retry. Frames sent toward
// it wait in the peer's ack window and are delivered on Restart, as
// tcpnet resends them on reconnect; once 1 024 of them are
// unacknowledged, further sends toward it are refused at once with
// network.ErrPeerBacklogged.
func (h *Hub) Crash(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.crashed[i] = true
}

// Restart clears a crash.
func (h *Hub) Restart(i int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.crashed[i] = false
}

// DropIf installs a message filter; envelopes for which fn returns true
// are silently dropped. Passing nil removes the filter.
func (h *Hub) DropIf(fn func(env network.Envelope) bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.dropFn = fn
}

// Close shuts down all endpoints and waits for in-flight deliveries.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	h.mu.Unlock()
	close(h.stop)
	for _, e := range h.eps[1:] {
		e.links.Close()
	}
	h.wg.Wait()
	for _, e := range h.eps[1:] {
		close(e.inbox)
	}
}

// write is the sender of one directed link toward node to. A crashed
// destination stalls it (the sender's "writer" is stuck redialing a
// dead peer), so the ack window fills exactly as tcpnet's does.
func (h *Hub) write(to int, env network.Envelope) bool {
	for {
		h.mu.Lock()
		down := h.crashed[to] && !h.closed
		h.mu.Unlock()
		if !down {
			h.transmit(to, env)
			return true
		}
		select {
		case <-h.stop:
			return false
		case <-time.After(crashPoll):
		}
	}
}

// transmit schedules delivery of env to node `to`.
func (h *Hub) transmit(to int, env network.Envelope) {
	now := time.Now()
	h.mu.Lock()
	if h.closed || h.crashed[env.From] || h.crashed[to] ||
		(h.dropFn != nil && h.dropFn(env)) {
		h.mu.Unlock()
		return
	}
	base := h.opts.Latency
	if h.opts.JitterFrac > 0 && base > 0 {
		base += time.Duration(float64(base) * h.rng.Float64() * h.opts.JitterFrac)
	}
	arrival := now.Add(base)
	link := [2]int{env.From, to}
	if last, ok := h.lastArrival[link]; ok && arrival.Before(last) {
		arrival = last // FIFO per link
	}
	h.lastArrival[link] = arrival
	prev := h.lastDone[link]
	done := make(chan struct{})
	h.lastDone[link] = done
	h.wg.Add(1)
	h.mu.Unlock()

	go func() {
		defer h.wg.Done()
		defer close(done)
		if d := time.Until(arrival); d > 0 {
			timer := time.NewTimer(d)
			<-timer.C
		}
		if prev != nil {
			<-prev // strict per-link delivery order
		}
		h.arrive(to, env)
	}()
}

// arrive hands one arrived envelope to the receiving node's pipeline.
//
// The crash check runs BEFORE the ack layer sees the frame: a frame
// arriving at a crashed node is wire loss, and accepting it first
// would advance the delivery cursor (and later acknowledge it) for a
// frame the engine never got. A crash landing after the ack layer
// accepted the frame is the frame reaching the engine queue just
// before the death — in memnet's model the inbox survives the crash,
// so it is still delivered.
func (h *Hub) arrive(to int, env network.Envelope) {
	h.mu.Lock()
	dead := h.closed || h.crashed[to]
	h.mu.Unlock()
	if !dead {
		h.eps[to].links.Inbound(env)
	}
}

// endpoint is one node of the hub.
type endpoint struct {
	hub   *Hub
	links *link.Pipeline[network.Envelope]
	inbox chan network.Envelope
}

var _ network.P2P = (*endpoint)(nil)

// deliver hands one envelope to the node's receive channel. Only a
// closed hub drops here: an accepted frame must reach the inbox even
// if a crash landed since arrive's check, or the ack layer would
// acknowledge a frame the engine never saw (the inbox survives a
// crash/restart cycle, so delivering is correct).
func (e *endpoint) deliver(env network.Envelope) bool {
	select {
	case e.inbox <- env:
		return true
	case <-e.hub.stop:
		return false
	}
}

func (e *endpoint) Send(ctx context.Context, to int, env network.Envelope) error {
	return e.links.Send(ctx, to, env)
}

func (e *endpoint) Broadcast(ctx context.Context, env network.Envelope) error {
	return e.links.Broadcast(ctx, env)
}

// TransportStats snapshots this node's view of every peer link: a
// crashed peer is Down (its sender is stalled, its window filling),
// everything else is Up.
func (e *endpoint) TransportStats() network.TransportStats {
	h := e.hub
	return e.links.Stats(false, func(ps *network.PeerStats) {
		ps.State = network.PeerUp
		h.mu.Lock()
		crashed := h.crashed[ps.Peer]
		h.mu.Unlock()
		if crashed {
			ps.State = network.PeerDown
			ps.ConsecutiveFailures = 1
			ps.LastError = "peer crashed"
		}
	})
}

func (e *endpoint) Receive() <-chan network.Envelope { return e.inbox }

func (e *endpoint) Close() error { return nil }
