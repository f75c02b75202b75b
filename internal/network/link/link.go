// Package link is the one link pipeline beneath every reliable P2P
// transport. Per node it owns what tcpnet and memnet share: each
// peer's bounded outbound queue (outq) and the one sender goroutine
// that drains it, the relink ack layer's two halves per peer, the ack
// piggyback on outbound frames, the inbound ack discharge, dedup and
// reorder, the ticker that flushes standalone acknowledgements and
// resends unacknowledged frames, Broadcast's per-peer error
// aggregation, and the queue and ack-layer half of TransportStats.
//
// A transport supplies only what moves its frames: an encoding of an
// envelope into what it writes (tcpnet marshals to bytes, memnet keeps
// the envelope), one write function per peer that returns once the
// frame is on its way, a delivery function to its engine, and the
// link-health half of the stats.
package link

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/outq"
	"thetacrypt/internal/network/relink"
)

// maxInboxes bounds the inbound-cursor table against garbage From
// indices from misbehaving senders; past it, unregistered senders'
// frames are delivered raw (no dedup, no acks).
const maxInboxes = 4096

// Config sizes one node's pipeline. Zero fields select the defaults.
type Config struct {
	// Self is the local node index, stamped as From on every frame.
	Self int
	// QueueLen bounds each peer's outbound queue (default 1024).
	QueueLen int
	// Policy resolves a full queue or a full ack window.
	Policy network.QueuePolicy
	// Window, AckInterval and ResendTimeout tune the ack layer, as in
	// relink.Config.
	Window        int
	AckInterval   time.Duration
	ResendTimeout time.Duration
}

// Pipeline is one node's set of peer links. F is the frame type its
// transport writes.
type Pipeline[F any] struct {
	self     int
	qlen     int
	rcfg     relink.Config
	epoch    uint64
	encode   func(network.Envelope) F
	deliver  func(network.Envelope) bool
	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once

	// mu guards the tables below; it is never held across a queue,
	// window or delivery wait.
	mu     sync.Mutex
	closed bool
	peers  map[int]*peer[F]
	// sorted is the registered peers in index order, replaced (never
	// mutated) on registration so Broadcast iterates it unlocked.
	sorted []*peer[F]
	// inboxes holds the inbound cursor per sender, including senders
	// not registered yet: their frames are already deduplicated, and a
	// later AddPeer adopts the same cursor, so the owed acknowledgements
	// flush and the sender's resend loop ends.
	inboxes map[int]*relink.Inbox
}

// peer is one outbound link: its queue, the ack layer's two halves,
// and the count of frames its sender handed to the transport.
type peer[F any] struct {
	index int
	q     *outq.Queue[F]
	rel   *relink.Link
	inbox *relink.Inbox
	sent  atomic.Uint64
}

// New starts node cfg.Self's pipeline; its ack ticker runs until
// Close. encode turns a framed envelope into what the transport
// writes. deliver hands an inbound envelope to the engine and reports
// false once the transport is stopping.
func New[F any](cfg Config, encode func(network.Envelope) F, deliver func(network.Envelope) bool) *Pipeline[F] {
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	p := &Pipeline[F]{
		self: cfg.Self,
		qlen: cfg.QueueLen,
		rcfg: relink.Config{
			Window:        cfg.Window,
			AckInterval:   cfg.AckInterval,
			ResendTimeout: cfg.ResendTimeout,
			Policy:        cfg.Policy,
		}.WithDefaults(),
		epoch:   relink.NewEpoch(),
		encode:  encode,
		deliver: deliver,
		stop:    make(chan struct{}),
		peers:   make(map[int]*peer[F]),
		inboxes: make(map[int]*relink.Inbox),
	}
	p.wg.Add(1)
	go p.ackLoop()
	return p
}

// AddPeer registers a peer and starts its sender goroutine, which
// hands every dequeued frame to write. write returns once the frame is
// on its way, retrying as long as it must, and false once the
// transport is stopping. AddPeer reports false when the peer was
// already registered or the pipeline is closed.
func (p *Pipeline[F]) AddPeer(index int, write func(F) bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.peers[index]; ok || p.closed {
		return false
	}
	pr := &peer[F]{
		index: index,
		q:     outq.New[F](p.qlen, p.rcfg.Policy),
		rel:   relink.NewLink(p.epoch, p.rcfg),
		inbox: p.inboxLocked(index),
	}
	p.peers[index] = pr
	sorted := make([]*peer[F], 0, len(p.sorted)+1)
	sorted = append(append(sorted, p.sorted...), pr)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].index < sorted[j].index })
	p.sorted = sorted
	p.wg.Add(1)
	go p.sender(pr, write)
	return true
}

// sender drains one peer's queue into the transport.
func (p *Pipeline[F]) sender(pr *peer[F], write func(F) bool) {
	defer p.wg.Done()
	for {
		f, ok := pr.q.Dequeue(p.stop)
		if !ok || !write(f) {
			return
		}
		pr.sent.Add(1)
	}
}

// inboxLocked returns (creating if needed) a sender's inbound cursor;
// p.mu is held.
func (p *Pipeline[F]) inboxLocked(from int) *relink.Inbox {
	ib, ok := p.inboxes[from]
	if !ok {
		ib = relink.NewInbox(p.rcfg.Window)
		p.inboxes[from] = ib
	}
	return ib
}

// snapshot returns the registered peers in index order.
func (p *Pipeline[F]) snapshot() []*peer[F] {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sorted
}

// Send stages one envelope for peer to in O(1); the peer's sender
// delivers it in the background. A full queue or window is resolved
// by the policy: block (bounded by ctx), drop-oldest, or fail-fast
// with a *network.PeerError wrapping network.ErrPeerBacklogged.
func (p *Pipeline[F]) Send(ctx context.Context, to int, env network.Envelope) error {
	p.mu.Lock()
	pr, ok := p.peers[to]
	p.mu.Unlock()
	if !ok {
		return fmt.Errorf("network: no link to peer %d", to)
	}
	env.From, env.To = p.self, to
	err := p.enqueue(ctx, pr, env)
	if errors.Is(err, network.ErrPeerBacklogged) {
		return &network.PeerError{Peer: to, Err: err}
	}
	return err
}

// Broadcast stages the envelope, addressed To=Broadcast, for every
// registered peer. Each copy gets its own per-link sequence number.
// All peers are attempted; failures are aggregated into a
// *network.BroadcastError naming each failed peer, so callers can
// judge whether the surviving set still reaches a quorum.
func (p *Pipeline[F]) Broadcast(ctx context.Context, env network.Envelope) error {
	env.From, env.To = p.self, network.Broadcast
	peers := p.snapshot()
	var failed []*network.PeerError
	for _, pr := range peers {
		if err := p.enqueue(ctx, pr, env); err != nil {
			failed = append(failed, &network.PeerError{Peer: pr.index, Err: err})
		}
	}
	return network.NewBroadcastError(len(peers), failed)
}

// enqueue stages one data frame in the peer's in-flight window,
// piggybacks the pending acknowledgement for the reverse direction,
// and admits it to the queue. A frame the queue rejects after staging
// stays windowed, so the resend timer still delivers it; the error
// surfaces so callers observe the backpressure.
func (p *Pipeline[F]) enqueue(ctx context.Context, pr *peer[F], env network.Envelope) error {
	staged, err := pr.rel.Stage(ctx, env)
	if err != nil {
		return err
	}
	epoch, upTo, hasAck := pr.inbox.AckValue()
	if hasAck {
		staged.Ack, staged.AckEpoch = upTo, epoch
	}
	if err := pr.q.Enqueue(ctx, p.encode(staged)); err != nil {
		// The pending ack is not cleared: its only carrier never left,
		// so the ticker must still send it.
		return err
	}
	if hasAck {
		pr.inbox.ClearPending(epoch, upTo)
	}
	return nil
}

// Inbound runs one arrived envelope through the ack layer: its
// acknowledgement discharges the sender link's window, standalone acks
// end here, unsequenced frames pass through raw, and sequenced frames
// are deduplicated and reordered per sender before whatever became
// deliverable is handed on. It returns false once delivery reports the
// transport stopping.
func (p *Pipeline[F]) Inbound(env network.Envelope) bool {
	p.mu.Lock()
	pr := p.peers[env.From]
	p.mu.Unlock()
	if pr != nil && env.AckEpoch != 0 {
		pr.rel.Ack(env.AckEpoch, env.Ack)
	}
	if env.Kind == network.KindAck {
		return true
	}
	inbox := p.inboxFor(env)
	if inbox == nil {
		return p.deliver(env)
	}
	for _, d := range inbox.Accept(env) {
		if !p.deliver(d) {
			return false
		}
	}
	return true
}

// inboxFor returns the inbound cursor a sequenced frame's sender gets,
// creating it within bounds; nil for an unsequenced frame, an invalid
// sender, or a table full of unregistered senders.
func (p *Pipeline[F]) inboxFor(env network.Envelope) *relink.Inbox {
	if env.Seq == 0 || env.From <= 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.inboxes[env.From]; !ok {
		if _, registered := p.peers[env.From]; !registered && len(p.inboxes) >= maxInboxes {
			return nil
		}
	}
	return p.inboxLocked(env.From)
}

// ackLoop flushes coalesced acknowledgements and retransmits frames
// unacknowledged past the resend timeout. Both use the non-blocking
// TryEnqueue: a full queue is retried on the next tick rather than
// displacing fresh traffic or stalling the loop.
func (p *Pipeline[F]) ackLoop() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.rcfg.AckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-p.stop:
			return
		}
		now := time.Now()
		for _, pr := range p.snapshot() {
			if epoch, upTo, ok := pr.inbox.PendingAck(); ok {
				ack := network.Envelope{
					From: p.self, To: pr.index,
					Kind: network.KindAck, Ack: upTo, AckEpoch: epoch,
				}
				if pr.q.TryEnqueue(p.encode(ack)) {
					pr.inbox.ClearPending(epoch, upTo)
				}
			}
			pr.rel.Resend(now, func(env network.Envelope) bool {
				return pr.q.TryEnqueue(p.encode(env))
			})
		}
	}
}

// Stats snapshots every registered peer in index order: its queue and
// ack-layer counters, then health fills the transport's own fields
// (state, failures, authentication).
func (p *Pipeline[F]) Stats(authenticated bool, health func(*network.PeerStats)) network.TransportStats {
	peers := p.snapshot()
	out := network.TransportStats{
		Peers:         make([]network.PeerStats, 0, len(peers)),
		Policy:        p.rcfg.Policy,
		Reliable:      true,
		Authenticated: authenticated,
	}
	for _, pr := range peers {
		ps := network.PeerStats{
			Peer:       pr.index,
			QueueDepth: pr.q.Len(),
			QueueCap:   pr.q.Cap(),
			Enqueued:   pr.q.Enqueued(),
			Sent:       pr.sent.Load(),
			Delivered:  pr.rel.Delivered(),
			Inflight:   pr.rel.Inflight(),
			Resent:     pr.rel.Resent(),
			Dropped:    pr.q.Dropped() + pr.rel.Dropped(),
		}
		health(&ps)
		out.Peers = append(out.Peers, ps)
	}
	return out
}

// Close stops the ticker and the senders, wakes every blocked Send,
// and waits until the goroutines have exited. The transport must
// first make its write functions return, by stopping them or closing
// their connections.
func (p *Pipeline[F]) Close() {
	p.stopOnce.Do(func() {
		close(p.stop)
		p.mu.Lock()
		p.closed = true
		for _, pr := range p.peers {
			pr.q.Close()
			pr.rel.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
}
