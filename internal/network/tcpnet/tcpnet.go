// Package tcpnet is the standalone P2P transport: a full mesh of
// length-prefixed TCP connections. It replaces the original system's
// libp2p gossip overlay; the paper's model only requires reliable
// point-to-point channels, which persistent TCP links provide directly.
//
// Sends are asynchronous: each peer has a bounded outbound queue
// drained by a dedicated writer goroutine that owns the peer's
// connection, dials in the background with exponential backoff, and
// tracks link health (up/dialing/down). Send and Broadcast enqueue in
// O(1) and never touch the dialer, so a dead or slow peer cannot stall
// the caller; a full queue is resolved by the configured
// network.QueuePolicy. TransportStats snapshots every link for
// operators and tests.
//
// Beneath the queues runs the relink ack layer: every data frame
// carries a per-link sequence number and stays in a bounded in-flight
// window until the peer acknowledges delivery to its engine, so a
// frame handed to the kernel before a peer crash is resent after the
// reconnect instead of silently lost. Duplicates and reordering from
// retransmission are repaired before Receive; acknowledgements
// piggyback on reverse traffic and are otherwise coalesced on
// AckInterval.
package tcpnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/outq"
	"thetacrypt/internal/network/relink"
	"thetacrypt/internal/network/securelink"
)

// maxFrame bounds a single wire frame (16 MiB).
const maxFrame = 16 << 20

// inboundQueueLen is the capacity of the channel delivered frames wait
// in until the consumer (the engine's pump) takes them. The pump hands
// each one straight on to the engine's own event queue, so this is
// only burst slack in front of that queue, and every slot is an
// envelope allocated up front. 1024 slots are a quarter of the former
// default's memory. Much smaller buffers save a little more but were
// measured to slow the key-lifecycle benchmark: with a smaller live
// heap the collector runs more often.
const inboundQueueLen = 1024

// Config describes one node's view of the mesh. The inbound queue is
// not configurable: the QueueLen option, which no caller set, is gone
// and the queue holds inboundQueueLen frames.
type Config struct {
	// Self is this node's index (1-based).
	Self int
	// ListenAddr is the local listen address, e.g. ":7001".
	ListenAddr string
	// Peers maps node index to dialable address for every OTHER node.
	Peers map[int]string
	// DialRetry is the initial backoff between reconnect attempts
	// (default 250 ms); it doubles per consecutive failure up to
	// DialBackoffMax.
	DialRetry time.Duration
	// DialBackoffMax caps the exponential dial backoff (default 4 s).
	DialBackoffMax time.Duration
	// OutQueueLen bounds each peer's outbound queue (default 1024
	// frames). The queue absorbs bursts and peer outages; overflow is
	// resolved by Policy.
	OutQueueLen int
	// Policy selects the full-queue behavior (default PolicyBlock:
	// wait for space, bounded by the send context).
	Policy network.QueuePolicy
	// WriteTimeout bounds one frame write on an established connection
	// (default 30 s). A peer that accepts the connection but stops
	// reading trips it, dropping the link into redial instead of
	// wedging the writer forever.
	WriteTimeout time.Duration
	// AckWindow bounds the unacknowledged frames retained per link for
	// resend (default 1024); a full window is resolved by Policy.
	AckWindow int
	// AckInterval coalesces standalone acknowledgements and paces the
	// resend scan (default 25 ms).
	AckInterval time.Duration
	// ResendTimeout is how long a frame stays unacknowledged before it
	// is retransmitted (default 500 ms).
	ResendTimeout time.Duration
	// Secure enables the identity-keyed secure-link layer: every
	// connection — dialed and accepted — runs a mutually authenticated
	// TLS 1.3 handshake with self-signed Ed25519 certificates before
	// any relink frame flows, peers whose certificate key is not their
	// roster entry are rejected, and all traffic rides TLS records.
	// The handshake runs under its own deadline (Secure.Timeout,
	// defaulting to WriteTimeout) so a black-holed or protocol-stalled
	// peer releases the dialer instead of wedging it. Nil means
	// plaintext TCP, as before.
	Secure *securelink.Config
}

// Transport is a network.P2P over TCP.
type Transport struct {
	cfg   Config
	ln    net.Listener
	in    chan network.Envelope
	epoch uint64        // this incarnation's id for the ack layer
	rcfg  relink.Config // shared ack-layer configuration

	// mu guards the peer, inbox, and inbound-connection tables only; it
	// is never held across a dial or a socket write.
	mu      sync.Mutex
	peers   map[int]*peer
	inbound []net.Conn
	// inboxes holds the inbound ack-layer cursor per sender, including
	// senders whose outbound link is not registered yet (dynamic
	// wiring: traffic can arrive before SetPeer). Keeping the cursor
	// here means pre-registration frames are already deduplicated, and
	// once the peer registers it adopts the same inbox, so the owed
	// acknowledgements flush and the sender's resend loop ends.
	inboxes map[int]*relink.Inbox

	done sync.WaitGroup
	stop chan struct{}
	// dialCtx is canceled on Close, aborting in-flight dials.
	dialCtx    context.Context
	dialCancel context.CancelFunc
	close      sync.Once
}

// peer is one outbound link: its bounded queue, the writer goroutine's
// connection, the ack layer's two halves, and health bookkeeping.
type peer struct {
	index int
	q     *outq.Queue[[]byte]
	// rel is the outbound reliability state (seq assignment, in-flight
	// window, resend); inbox restores order and filters duplicates on
	// the inbound direction of the same peer.
	rel   *relink.Link
	inbox *relink.Inbox

	mu          sync.Mutex
	addr        string
	conn        net.Conn
	state       network.PeerState
	consecFails uint64
	lastErr     error
	// authed marks the current outbound connection as having completed
	// the secure-link handshake; cleared whenever the conn drops.
	authed bool

	sent atomic.Uint64
}

var _ network.P2P = (*Transport)(nil)

// New starts listening and returns the transport. Writer goroutines are
// started per configured peer; outbound connections are dialed in the
// background once traffic arrives, with exponential backoff on failure.
func New(cfg Config) (*Transport, error) {
	if cfg.DialRetry <= 0 {
		cfg.DialRetry = 250 * time.Millisecond
	}
	if cfg.DialBackoffMax <= 0 {
		cfg.DialBackoffMax = 4 * time.Second
	}
	if cfg.DialBackoffMax < cfg.DialRetry {
		cfg.DialBackoffMax = cfg.DialRetry
	}
	if cfg.OutQueueLen <= 0 {
		cfg.OutQueueLen = 1024
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.Secure != nil {
		if cfg.Secure.Key == nil || len(cfg.Secure.Roster) == 0 {
			return nil, fmt.Errorf("tcpnet: secure mode needs an identity key and a roster")
		}
		// Copy so defaulting the handshake deadline never mutates a
		// caller-shared config.
		s := *cfg.Secure
		if s.Timeout <= 0 {
			s.Timeout = cfg.WriteTimeout
		}
		cfg.Secure = &s
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	dialCtx, dialCancel := context.WithCancel(context.Background())
	t := &Transport{
		cfg:   cfg,
		ln:    ln,
		in:    make(chan network.Envelope, inboundQueueLen),
		epoch: relink.NewEpoch(),
		rcfg: relink.Config{
			Window:        cfg.AckWindow,
			AckInterval:   cfg.AckInterval,
			ResendTimeout: cfg.ResendTimeout,
			Policy:        cfg.Policy,
		}.WithDefaults(),
		peers:      make(map[int]*peer),
		inboxes:    make(map[int]*relink.Inbox),
		stop:       make(chan struct{}),
		dialCtx:    dialCtx,
		dialCancel: dialCancel,
	}
	for idx, addr := range cfg.Peers {
		t.addPeerLocked(idx, addr) // no concurrency yet; lock not needed
	}
	t.done.Add(2)
	go t.acceptLoop()
	go t.ackLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// addPeerLocked registers a peer and starts its writer; t.mu must be
// held (or the transport not yet shared).
func (t *Transport) addPeerLocked(index int, addr string) *peer {
	p := &peer{
		index: index,
		addr:  addr,
		q:     outq.New[[]byte](t.cfg.OutQueueLen, t.cfg.Policy),
		rel:   relink.NewLink(t.epoch, t.rcfg),
		// Adopt the sender's existing inbound cursor when its traffic
		// arrived before registration, so nothing delivered
		// pre-registration is redelivered.
		inbox: t.inboxForLocked(index),
		// Down until the writer establishes the link: no connection
		// exists yet.
		state: network.PeerDown,
	}
	t.peers[index] = p
	t.done.Add(1)
	go t.writer(p)
	return p
}

// SetPeer registers (or re-addresses) a peer; used when ports are
// assigned dynamically.
func (t *Transport) SetPeer(index int, addr string) {
	t.mu.Lock()
	p, ok := t.peers[index]
	if !ok {
		t.addPeerLocked(index, addr)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	p.mu.Lock()
	p.addr = addr
	p.mu.Unlock()
}

// peer looks up a registered peer.
func (t *Transport) peer(index int) (*peer, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[index]
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for peer %d", index)
	}
	return p, nil
}

// peerSnapshot returns the registered peers sorted by index.
func (t *Transport) peerSnapshot() []*peer {
	t.mu.Lock()
	out := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		out = append(out, p)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].index < out[j].index })
	return out
}

func (t *Transport) acceptLoop() {
	defer t.done.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.inbound = append(t.inbound, conn)
		t.mu.Unlock()
		t.done.Add(1)
		go t.readLoop(conn)
	}
}

func (t *Transport) readLoop(conn net.Conn) {
	defer t.done.Done()
	defer conn.Close()
	// In secure mode the accepted connection must authenticate before
	// a single relink frame is read: the handshake binds the peer to a
	// roster identity (rejecting unrostered or impostor peers) and
	// replaces conn with the TLS link. The handshake runs under its
	// own deadline, so a connect-and-stall peer cannot pin this
	// goroutine.
	from := 0
	if t.cfg.Secure != nil {
		sconn, peer, err := securelink.Server(conn, *t.cfg.Secure)
		if err != nil {
			return // unauthenticated connection: drop it
		}
		conn, from = sconn, peer
	}
	for {
		frame, err := readFrame(conn)
		if err != nil {
			return
		}
		env, err := network.UnmarshalEnvelope(frame)
		if err != nil {
			continue // skip malformed frames
		}
		// An authenticated link pins the sender: a rostered peer still
		// cannot speak for anyone but itself.
		if from != 0 && env.From != from {
			continue
		}
		if !t.handleInbound(env) {
			return
		}
	}
}

// maxInboxes bounds the inbound-cursor table against garbage From
// indices from misbehaving senders; past it, unregistered senders'
// frames are delivered raw (no dedup, no acks), as before the ack
// layer.
const maxInboxes = 4096

// handleInbound runs one received envelope through the ack layer:
// piggybacked and standalone acknowledgements discharge the sender
// link's window, sequenced data frames are deduplicated and reordered
// per link, and whatever became deliverable is handed to the engine.
// Returns false when the transport is stopping.
func (t *Transport) handleInbound(env network.Envelope) bool {
	p, known := t.lookupPeer(env.From)
	if known && env.AckEpoch != 0 {
		p.rel.Ack(env.AckEpoch, env.Ack)
	}
	if env.Kind == network.KindAck {
		return true // control frame, consumed here
	}
	if env.Seq == 0 {
		return t.deliver(env) // unsequenced frame: deliver raw
	}
	inbox := t.inboxFor(env.From)
	if inbox == nil {
		return t.deliver(env)
	}
	for _, d := range inbox.Accept(env) {
		if !t.deliver(d) {
			return false
		}
	}
	return true
}

// inboxFor returns (creating if needed and within bounds) the inbound
// cursor of one sender; nil when the sender is invalid or the table is
// full of unregistered senders.
func (t *Transport) inboxFor(from int) *relink.Inbox {
	if from <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.inboxes[from]; !ok {
		if _, registered := t.peers[from]; !registered && len(t.inboxes) >= maxInboxes {
			return nil
		}
	}
	return t.inboxForLocked(from)
}

// inboxForLocked returns (creating if needed) a sender's inbound
// cursor; t.mu is held (or the transport not yet shared).
func (t *Transport) inboxForLocked(from int) *relink.Inbox {
	ib, ok := t.inboxes[from]
	if !ok {
		ib = relink.NewInbox(t.rcfg.Window)
		t.inboxes[from] = ib
	}
	return ib
}

// deliver hands one envelope to the engine's receive channel.
func (t *Transport) deliver(env network.Envelope) bool {
	select {
	case t.in <- env:
		return true
	case <-t.stop:
		return false
	}
}

// lookupPeer returns the registered peer, if any.
func (t *Transport) lookupPeer(index int) (*peer, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	p, ok := t.peers[index]
	return p, ok
}

// ackLoop flushes coalesced acknowledgements and retransmits
// unacknowledged frames past the resend timeout. Both use the
// non-blocking TryEnqueue: a full queue is retried on the next tick
// rather than displacing fresh traffic or stalling the loop.
func (t *Transport) ackLoop() {
	defer t.done.Done()
	ticker := time.NewTicker(t.rcfg.AckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
		case <-t.stop:
			return
		}
		now := time.Now()
		for _, p := range t.peerSnapshot() {
			if epoch, upTo, ok := p.inbox.PendingAck(); ok {
				ack := network.Envelope{
					From: t.cfg.Self, To: p.index,
					Kind: network.KindAck, Ack: upTo, AckEpoch: epoch,
				}
				if p.q.TryEnqueue(ack.Marshal()) {
					p.inbox.ClearPending(epoch, upTo)
				}
			}
			p.rel.Resend(now, func(env network.Envelope) bool {
				return p.q.TryEnqueue(env.Marshal())
			})
		}
	}
}

// writer is peer p's dedicated goroutine: it drains the outbound queue
// and owns the connection. Dial failures and write errors put the link
// into exponential backoff (DialRetry doubling up to DialBackoffMax);
// the frame being delivered is retried, not dropped — overflow policy
// applies only at enqueue time.
func (t *Transport) writer(p *peer) {
	defer t.done.Done()
	backoff := t.cfg.DialRetry
	for {
		frame, ok := p.q.Dequeue(t.stop)
		if !ok {
			return
		}
		for {
			select {
			case <-t.stop:
				return
			default:
			}
			conn, err := t.ensureConn(p)
			if err == nil {
				_ = conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout))
				err = writeFrame(conn, frame)
				if err == nil {
					p.noteSent()
					backoff = t.cfg.DialRetry
					break
				}
				// A partial frame may be on the wire; the connection
				// cannot be reused.
				p.dropConn(conn)
				p.noteFailure(err)
			}
			if !t.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, t.cfg.DialBackoffMax)
		}
	}
}

// sleep waits d or until the transport stops; false means stop.
func (t *Transport) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.stop:
		return false
	}
}

// ensureConn returns the peer's established connection, dialing if none
// exists. Only the writer goroutine calls it, so at most one dial per
// peer is ever in flight.
func (t *Transport) ensureConn(p *peer) (net.Conn, error) {
	p.mu.Lock()
	if p.conn != nil {
		conn := p.conn
		p.mu.Unlock()
		return conn, nil
	}
	addr := p.addr
	p.state = network.PeerDialing
	p.mu.Unlock()
	if addr == "" {
		err := fmt.Errorf("tcpnet: no address for peer %d", p.index)
		p.noteFailure(err)
		return nil, err
	}
	// Bound the attempt: a blackholed peer (packets silently dropped)
	// must fail within the backoff cap, not pin the writer for the OS
	// SYN-retry window.
	dialer := net.Dialer{Timeout: t.cfg.DialBackoffMax}
	conn, err := dialer.DialContext(t.dialCtx, "tcp", addr)
	if err != nil {
		p.noteFailure(err)
		return nil, err
	}
	authed := false
	if t.cfg.Secure != nil {
		// Authenticate before the link carries a single frame. The
		// handshake runs under its own deadline (armed inside Client),
		// so a peer that accepts and stalls fails the attempt instead
		// of wedging this writer; failure lands in the same dial
		// backoff as a refused connection.
		sconn, err := securelink.Client(conn, *t.cfg.Secure, p.index)
		if err != nil {
			_ = conn.Close()
			p.noteFailure(err)
			return nil, err
		}
		conn, authed = sconn, true
	}
	p.mu.Lock()
	p.conn = conn
	p.state = network.PeerUp
	p.consecFails = 0
	p.lastErr = nil
	p.authed = authed
	p.mu.Unlock()
	return conn, nil
}

// noteSent records a successful frame write.
func (p *peer) noteSent() {
	p.sent.Add(1)
	p.mu.Lock()
	p.state = network.PeerUp
	p.consecFails = 0
	p.lastErr = nil
	p.mu.Unlock()
}

// noteFailure records a dial or write failure; the link is Down until
// the next attempt succeeds.
func (p *peer) noteFailure(err error) {
	p.mu.Lock()
	p.state = network.PeerDown
	p.consecFails++
	p.lastErr = err
	p.authed = false
	p.mu.Unlock()
}

// dropConn discards a failed connection.
func (p *peer) dropConn(conn net.Conn) {
	_ = conn.Close()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		p.authed = false
	}
	p.mu.Unlock()
}

// Send enqueues one envelope for a peer in O(1); the peer's writer
// delivers it in the background. The frame is first staged in the ack
// layer's in-flight window (resolved by the policy when full), so a
// queue-policy rejection after staging still reports the congestion to
// the caller while the ack layer guarantees eventual delivery by
// retransmission. A full queue or window is resolved by the configured
// policy: block (bounded by ctx), drop-oldest, or fail-fast with a
// *network.PeerError wrapping network.ErrPeerBacklogged.
func (t *Transport) Send(ctx context.Context, to int, env network.Envelope) error {
	env.From = t.cfg.Self
	env.To = to
	p, err := t.peer(to)
	if err != nil {
		return err
	}
	return p.enqueue(ctx, env)
}

// enqueue stages one data frame in the peer's in-flight window,
// piggybacks the pending acknowledgement for the reverse direction,
// and admits it to the queue, attributing policy failures to the peer.
func (p *peer) enqueue(ctx context.Context, env network.Envelope) error {
	staged, err := p.rel.Stage(ctx, env)
	if err != nil {
		return network.AttributePeer(p.index, err)
	}
	epoch, upTo, hasAck := p.inbox.AckValue()
	if hasAck {
		staged.Ack, staged.AckEpoch = upTo, epoch
	}
	if err := p.q.Enqueue(ctx, staged.Marshal()); err != nil {
		// The frame stays windowed: the resend timer recovers it even
		// though the queue rejected it now. The error still surfaces so
		// callers observe the backpressure. The pending ack is NOT
		// cleared — this frame (its only carrier) never left, so the
		// standalone flusher must still send it.
		return network.AttributePeer(p.index, err)
	}
	if hasAck {
		p.inbox.ClearPending(epoch, upTo)
	}
	return nil
}

// Broadcast enqueues the envelope for every registered peer, addressed
// To=Broadcast (matching memnet's semantics). Each peer's copy is
// marshaled separately — the ack layer gives every link its own
// sequence number. All peers are attempted; failures are aggregated
// into a *network.BroadcastError naming each failed peer, so callers
// can judge whether the surviving set still reaches a quorum.
func (t *Transport) Broadcast(ctx context.Context, env network.Envelope) error {
	env.From = t.cfg.Self
	env.To = network.Broadcast
	peers := t.peerSnapshot()
	var failed []*network.PeerError
	for _, p := range peers {
		if err := p.enqueue(ctx, env); err != nil {
			failed = append(failed, network.PeerFailure(p.index, err))
		}
	}
	return network.NewBroadcastError(len(peers), failed)
}

// TransportStats snapshots every peer link.
func (t *Transport) TransportStats() network.TransportStats {
	peers := t.peerSnapshot()
	out := network.TransportStats{
		Peers:         make([]network.PeerStats, 0, len(peers)),
		Policy:        t.cfg.Policy,
		Reliable:      true,
		Authenticated: t.cfg.Secure != nil,
	}
	for _, p := range peers {
		p.mu.Lock()
		ps := network.PeerStats{
			Peer:                p.index,
			State:               p.state,
			ConsecutiveFailures: p.consecFails,
			Authenticated:       p.authed,
		}
		if p.lastErr != nil {
			ps.LastError = p.lastErr.Error()
		}
		p.mu.Unlock()
		ps.QueueDepth = p.q.Len()
		ps.QueueCap = p.q.Cap()
		ps.Enqueued = p.q.Enqueued()
		ps.Dropped = p.q.Dropped() + p.rel.Dropped()
		ps.Sent = p.sent.Load()
		ps.Delivered = p.rel.Delivered()
		ps.Inflight = p.rel.Inflight()
		ps.Resent = p.rel.Resent()
		out.Peers = append(out.Peers, ps)
	}
	return out
}

// Receive returns the inbound envelope stream.
func (t *Transport) Receive() <-chan network.Envelope { return t.in }

// Close shuts down the transport: writers stop, connections close, and
// the inbound channel is closed once every goroutine has exited.
func (t *Transport) Close() error {
	t.close.Do(func() {
		close(t.stop)
		t.dialCancel()
		_ = t.ln.Close()
		t.mu.Lock()
		for _, p := range t.peers {
			p.q.Close()
			p.rel.Close()
			p.mu.Lock()
			if p.conn != nil {
				_ = p.conn.Close()
			}
			p.mu.Unlock()
		}
		for _, c := range t.inbound {
			_ = c.Close()
		}
		t.mu.Unlock()
		t.done.Wait()
		close(t.in)
	})
	return nil
}

// writeFrame writes one 4-byte length-prefixed frame in a single
// Write, so a secure link seals header and payload together instead of
// as two records.
func writeFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	_, err := w.Write(buf)
	return err
}

// readChunk is readFrame's first buffer size for a large frame. The
// buffer doubles only as bytes arrive, so a header declaring a large
// frame that never comes cannot make the reader allocate it.
const readChunk = 64 << 10

// readFrame reads one length-prefixed frame.
func readFrame(r io.Reader) ([]byte, error) {
	var lenbuf [4]byte
	if _, err := io.ReadFull(r, lenbuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenbuf[:])
	if n > maxFrame {
		return nil, fmt.Errorf("tcpnet: frame of %d bytes exceeds cap", n)
	}
	buf := make([]byte, min(int(n), readChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, buf[got:])
		if err != nil {
			return nil, err
		}
		if got += m; got == int(n) {
			return buf, nil
		}
		grown := make([]byte, min(int(n), 2*len(buf)))
		copy(grown, buf)
		buf = grown
	}
}
