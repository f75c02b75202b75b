// Package link is the one link pipeline beneath every reliable P2P
// transport. Per node it owns what tcpnet and memnet share: each
// peer's relink ack window, which is its only send buffer, and the one
// sender goroutine that writes from it; the ack piggyback on outbound
// frames, the inbound ack discharge, dedup and reorder, the ticker
// that wakes senders to resend and to flush standalone
// acknowledgements, Broadcast's per-peer error aggregation, and the
// window and ack-layer half of TransportStats.
//
// A transport supplies only what moves its frames: an encoding of an
// envelope into what it writes (tcpnet marshals to bytes, memnet keeps
// the envelope), one write function per peer that returns once the
// frame is on its way, a delivery function to its engine, and the
// link-health half of the stats.
package link

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/relink"
)

// maxInboxes bounds the inbound-cursor table against garbage From
// indices from misbehaving senders; past it, unregistered senders'
// frames are delivered raw (no dedup, no acks).
const maxInboxes = 4096

// Config sets up one node's pipeline. Zero durations select the
// defaults.
type Config struct {
	// Self is the local node index, stamped as From on every frame.
	Self int
	// AckInterval and ResendTimeout tune the ack layer, as in
	// relink.Config.
	AckInterval   time.Duration
	ResendTimeout time.Duration
}

// Pipeline is one node's set of peer links. F is the frame type its
// transport writes.
type Pipeline[F any] struct {
	self     int
	rcfg     relink.Config
	epoch    uint64
	encode   func(network.Envelope) F
	deliver  func(network.Envelope) bool
	stop     chan struct{}
	wg       sync.WaitGroup
	stopOnce sync.Once

	// mu guards the tables below; it is never held across a write or a
	// delivery.
	mu     sync.Mutex
	closed bool
	peers  map[int]*peer
	// sorted is the registered peers in index order, replaced (never
	// mutated) on registration so Broadcast iterates it unlocked.
	sorted []*peer
	// inboxes holds the inbound cursor per sender, including senders
	// not registered yet: their frames are already deduplicated, and a
	// later AddPeer adopts the same cursor, so the owed acknowledgements
	// flush and the sender's resend loop ends.
	inboxes map[int]*relink.Inbox
}

// peer is one outbound link: the ack layer's two halves, the signals
// that wake its sender, and the count of frames the sender wrote.
type peer struct {
	index int
	rel   *relink.Link
	inbox *relink.Inbox
	// wake holds one pending nudge: a frame was staged, or the ticker
	// fired.
	wake chan struct{}
	// ackDue is set by the ticker, or by Inbound once half a window is
	// owed: an owed acknowledgement may now go out on its own.
	ackDue atomic.Bool
	sent   atomic.Uint64
}

// poke wakes the peer's sender without waiting.
func (pr *peer) poke() {
	select {
	case pr.wake <- struct{}{}:
	default:
	}
}

// New starts node cfg.Self's pipeline; its ack ticker runs until
// Close. encode turns a framed envelope into what the transport
// writes. deliver hands an inbound envelope to the engine and reports
// false once the transport is stopping.
func New[F any](cfg Config, encode func(network.Envelope) F, deliver func(network.Envelope) bool) *Pipeline[F] {
	p := &Pipeline[F]{
		self: cfg.Self,
		rcfg: relink.Config{
			AckInterval:   cfg.AckInterval,
			ResendTimeout: cfg.ResendTimeout,
		}.WithDefaults(),
		epoch:   relink.NewEpoch(),
		encode:  encode,
		deliver: deliver,
		stop:    make(chan struct{}),
		peers:   make(map[int]*peer),
		inboxes: make(map[int]*relink.Inbox),
	}
	p.wg.Add(1)
	go p.ackLoop()
	return p
}

// AddPeer registers a peer and starts its sender goroutine, which
// hands every frame it takes from the peer's window to write. write
// returns once the frame is on its way, retrying as long as it must,
// and false once the transport is stopping. AddPeer reports false when
// the peer was already registered or the pipeline is closed.
func (p *Pipeline[F]) AddPeer(index int, write func(F) bool) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.peers[index]; ok || p.closed {
		return false
	}
	pr := &peer{
		index: index,
		rel:   relink.NewLink(p.epoch, p.rcfg),
		inbox: p.inboxLocked(index),
		wake:  make(chan struct{}, 1),
	}
	p.peers[index] = pr
	sorted := make([]*peer, 0, len(p.sorted)+1)
	sorted = append(append(sorted, p.sorted...), pr)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].index < sorted[j].index })
	p.sorted = sorted
	p.wg.Add(1)
	go p.sender(pr, write)
	return true
}

// sender writes one peer's frames in the order its Link hands them
// out, then an acknowledgement made due, and otherwise sleeps until
// poked. Every frame carries the current acknowledgement for the
// reverse direction, stamped at write time, and a data frame is stamped
// as written once its write returns.
func (p *Pipeline[F]) sender(pr *peer, write func(F) bool) {
	defer p.wg.Done()
	for {
		env, ok := pr.rel.Next(time.Now())
		if !ok && pr.ackDue.Swap(false) {
			_, _, ok = pr.inbox.PendingAck()
			env = network.Envelope{From: p.self, To: pr.index, Kind: network.KindAck}
		}
		if !ok {
			select {
			case <-pr.wake:
				continue
			case <-p.stop:
				return
			}
		}
		epoch, upTo, hasAck := pr.inbox.AckValue()
		if hasAck {
			env.Ack, env.AckEpoch = upTo, epoch
		}
		if !write(p.encode(env)) {
			return
		}
		if env.Seq != 0 {
			pr.rel.Wrote(env.Seq, time.Now())
		}
		pr.sent.Add(1)
		if hasAck {
			pr.inbox.ClearPending(epoch, upTo)
		}
	}
}

// inboxLocked returns (creating if needed) a sender's inbound cursor;
// p.mu is held.
func (p *Pipeline[F]) inboxLocked(from int) *relink.Inbox {
	ib, ok := p.inboxes[from]
	if !ok {
		ib = relink.NewInbox(relink.Window)
		p.inboxes[from] = ib
	}
	return ib
}

// snapshot returns the registered peers in index order and whether the
// pipeline is closed.
func (p *Pipeline[F]) snapshot() ([]*peer, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sorted, p.closed
}

// Send stages one envelope for peer to in O(1); the peer's sender
// writes it in the background. Send never waits: a peer whose window is
// full fails at once with a *network.PeerError wrapping
// network.ErrPeerBacklogged. ctx is unused.
func (p *Pipeline[F]) Send(ctx context.Context, to int, env network.Envelope) error {
	p.mu.Lock()
	pr, ok := p.peers[to]
	closed := p.closed
	p.mu.Unlock()
	switch {
	case closed:
		return network.ErrTransportClosed
	case !ok:
		return fmt.Errorf("network: no link to peer %d", to)
	}
	env.From, env.To = p.self, to
	if err := p.stage(ctx, pr, env); err != nil {
		return &network.PeerError{Peer: to, Err: err}
	}
	return nil
}

// Broadcast stages the envelope, addressed To=Broadcast, for every
// registered peer. Each copy gets its own per-link sequence number.
// All peers are attempted; failures are aggregated into a
// *network.BroadcastError naming each failed peer, so callers can
// judge whether the surviving set still reaches a quorum.
func (p *Pipeline[F]) Broadcast(ctx context.Context, env network.Envelope) error {
	peers, closed := p.snapshot()
	if closed {
		return network.ErrTransportClosed
	}
	env.From, env.To = p.self, network.Broadcast
	var failed []*network.PeerError
	for _, pr := range peers {
		if err := p.stage(ctx, pr, env); err != nil {
			failed = append(failed, &network.PeerError{Peer: pr.index, Err: err})
		}
	}
	return network.NewBroadcastError(len(peers), failed)
}

// stage admits one data frame to the peer's window and wakes its
// sender.
func (p *Pipeline[F]) stage(ctx context.Context, pr *peer, env network.Envelope) error {
	if _, err := pr.rel.Stage(ctx, env); err != nil {
		return err
	}
	pr.poke()
	return nil
}

// Inbound runs one arrived envelope through the ack layer: its
// acknowledgement discharges the sender link's window, standalone acks
// end here, unsequenced frames pass through raw, and sequenced frames
// are deduplicated and reordered per sender before whatever became
// deliverable is handed on. Once half a window is owed to the sender,
// the acknowledgement goes out at once instead of on the next tick, so
// a burst does not fill the sender's window before the tick. It
// returns false once delivery reports the transport stopping.
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
	ready := inbox.Accept(env)
	if pr != nil && inbox.Owed() >= relink.Window/2 {
		pr.ackDue.Store(true)
		pr.poke()
	}
	for _, d := range ready {
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

// ackLoop wakes every sender once per AckInterval, with an owed
// acknowledgement marked due: the sender then flushes it and writes
// whatever its window has come due for a resend.
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
		peers, _ := p.snapshot()
		for _, pr := range peers {
			pr.ackDue.Store(true)
			pr.poke()
		}
	}
}

// Stats snapshots every registered peer in index order: its window
// and ack-layer counters and its writes, then health fills the
// transport's own fields (state, failures, authentication).
func (p *Pipeline[F]) Stats(authenticated bool, health func(*network.PeerStats)) network.TransportStats {
	peers, _ := p.snapshot()
	out := network.TransportStats{
		Peers:         make([]network.PeerStats, 0, len(peers)),
		Reliable:      true,
		Authenticated: authenticated,
	}
	for _, pr := range peers {
		ps := pr.rel.Stats()
		ps.Peer, ps.Sent = pr.index, pr.sent.Load()
		health(&ps)
		out.Peers = append(out.Peers, ps)
	}
	return out
}

// Close stops the ticker and the senders, refuses further sends with
// network.ErrTransportClosed, and waits until the goroutines have
// exited. The transport must first make its write functions return,
// by stopping them or closing their connections.
func (p *Pipeline[F]) Close() {
	p.stopOnce.Do(func() {
		p.mu.Lock()
		p.closed = true
		p.mu.Unlock()
		close(p.stop)
		p.wg.Wait()
	})
}
