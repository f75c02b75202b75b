// Package tcpnet is the standalone P2P transport: a full mesh of
// length-prefixed TCP connections. It replaces the original system's
// libp2p gossip overlay; the paper's model only requires reliable
// point-to-point channels, which persistent TCP links provide directly.
//
// Send windows, the relink ack layer and Broadcast come from the shared
// link pipeline (internal/network/link). tcpnet adds what is specific to
// TCP: the listener and one read loop per accepted connection, a
// per-peer connection that its sender goroutine dials in the
// background with exponential backoff while tracking link health
// (up/dialing/down), the optional securelink handshake with the
// sender pinned to the authenticated peer, and the length-prefixed
// frame codec.
package tcpnet

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/link"
	"thetacrypt/internal/network/securelink"
)

// maxFrame bounds a single wire frame (16 MiB).
const maxFrame = 16 << 20

// inboundQueueLen is the capacity of the channel delivered frames wait
// in until the consumer (the engine's pump) takes them. The pump hands
// each one straight on to the engine's own event queue, so this is
// only burst slack in front of that queue, and every slot is an
// envelope allocated up front. Much smaller buffers were measured to
// slow the key-lifecycle benchmark: with a smaller live heap the
// collector runs more often.
const inboundQueueLen = 1024

// writeTimeout bounds one frame write on an established connection. A
// peer that accepts the connection but stops reading trips it,
// dropping the link into redial instead of wedging the writer forever.
// It is also the default securelink handshake deadline.
const writeTimeout = 30 * time.Second

// Dial backoff: a failed dial or write waits dialRetry before the next
// attempt, doubling per consecutive failure up to dialBackoffMax, which
// also bounds one dial.
const (
	dialRetry      = 250 * time.Millisecond
	dialBackoffMax = 4 * time.Second
)

// Config describes one node's view of the mesh.
type Config struct {
	// Self is this node's index (1-based).
	Self int
	// ListenAddr is the local listen address, e.g. ":7001".
	ListenAddr string
	// Peers maps node index to dialable address for every OTHER node.
	Peers map[int]string
	// AckInterval coalesces standalone acknowledgements and paces how
	// often senders check for a due resend (default 25 ms).
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
	// defaulting to 30 s) so a black-holed or protocol-stalled peer
	// releases the dialer instead of wedging it. Nil means plaintext
	// TCP.
	Secure *securelink.Config
}

// Transport is a network.P2P over TCP.
type Transport struct {
	cfg   Config
	ln    net.Listener
	in    chan network.Envelope
	links *link.Pipeline[[]byte]

	// mu guards the peer and inbound-connection tables only; it is
	// never held across a dial or a socket write.
	mu      sync.Mutex
	peers   map[int]*peer
	inbound []net.Conn

	done sync.WaitGroup
	stop chan struct{}
	// dialCtx is canceled on Close, aborting in-flight dials.
	dialCtx    context.Context
	dialCancel context.CancelFunc
	close      sync.Once
}

// peer is the connection and health of one outbound link; only its
// sender goroutine dials and writes.
type peer struct {
	index int

	mu          sync.Mutex
	addr        string
	conn        net.Conn
	state       network.PeerState
	consecFails uint64
	lastErr     error
	// authed marks the current outbound connection as having completed
	// the secure-link handshake; cleared whenever the conn drops.
	authed bool
}

var _ network.P2P = (*Transport)(nil)

// New starts listening and returns the transport. A sender goroutine
// is started per configured peer; outbound connections are dialed in
// the background once traffic arrives, with exponential backoff on
// failure.
func New(cfg Config) (*Transport, error) {
	if cfg.Secure != nil {
		if cfg.Secure.Key == nil || len(cfg.Secure.Roster) == 0 {
			return nil, fmt.Errorf("tcpnet: secure mode needs an identity key and a roster")
		}
		// Copy so defaulting the handshake deadline never mutates a
		// caller-shared config.
		s := *cfg.Secure
		if s.Timeout <= 0 {
			s.Timeout = writeTimeout
		}
		cfg.Secure = &s
	}
	ln, err := net.Listen("tcp", cfg.ListenAddr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet listen: %w", err)
	}
	dialCtx, dialCancel := context.WithCancel(context.Background())
	t := &Transport{
		cfg:        cfg,
		ln:         ln,
		in:         make(chan network.Envelope, inboundQueueLen),
		peers:      make(map[int]*peer),
		stop:       make(chan struct{}),
		dialCtx:    dialCtx,
		dialCancel: dialCancel,
	}
	t.links = link.New(link.Config{
		Self:          cfg.Self,
		AckInterval:   cfg.AckInterval,
		ResendTimeout: cfg.ResendTimeout,
	}, network.Envelope.Marshal, t.deliver)
	for idx, addr := range cfg.Peers {
		t.SetPeer(idx, addr)
	}
	t.done.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the bound listen address.
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// SetPeer registers (or re-addresses) a peer; used when ports are
// assigned dynamically.
func (t *Transport) SetPeer(index int, addr string) {
	t.mu.Lock()
	p, ok := t.peers[index]
	if !ok {
		// Down until the sender establishes the link: no connection
		// exists yet.
		p = &peer{index: index, addr: addr, state: network.PeerDown}
		t.peers[index] = p
	}
	t.mu.Unlock()
	if !ok {
		t.links.AddPeer(index, func(frame []byte) bool { return t.write(p, frame) })
		return
	}
	p.mu.Lock()
	p.addr = addr
	p.mu.Unlock()
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
		if !t.links.Inbound(env) {
			return
		}
	}
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

// write delivers one frame to peer p, owning its connection. Dial
// failures and write errors put the link into exponential backoff
// (dialRetry doubling up to dialBackoffMax); the frame is retried, not
// dropped, while the frames behind it wait in the ack window. It
// returns false once the transport stops.
func (t *Transport) write(p *peer, frame []byte) bool {
	for backoff := dialRetry; ; backoff = min(backoff*2, dialBackoffMax) {
		select {
		case <-t.stop:
			return false
		default:
		}
		conn, err := t.ensureConn(p)
		if err == nil {
			_ = conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			if err = writeFrame(conn, frame); err == nil {
				p.noteUp()
				return true
			}
			// A partial frame may be on the wire; the connection
			// cannot be reused.
			p.dropConn(conn)
			p.noteFailure(err)
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-t.stop:
			timer.Stop()
			return false
		}
	}
}

// ensureConn returns the peer's established connection, dialing if none
// exists. Only the peer's sender goroutine calls it, so at most one
// dial per peer is ever in flight.
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
	dialer := net.Dialer{Timeout: dialBackoffMax}
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
	p.authed = authed
	p.mu.Unlock()
	p.noteUp()
	return conn, nil
}

// noteUp records a working link.
func (p *peer) noteUp() {
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

// Send stages one envelope for a registered peer in O(1); the peer's
// sender delivers it in the background (see link.Pipeline.Send).
func (t *Transport) Send(ctx context.Context, to int, env network.Envelope) error {
	return t.links.Send(ctx, to, env)
}

// Broadcast stages the envelope for every registered peer, addressed
// To=Broadcast, and aggregates per-peer failures into a
// *network.BroadcastError.
func (t *Transport) Broadcast(ctx context.Context, env network.Envelope) error {
	return t.links.Broadcast(ctx, env)
}

// TransportStats snapshots every peer link.
func (t *Transport) TransportStats() network.TransportStats {
	return t.links.Stats(t.cfg.Secure != nil, func(ps *network.PeerStats) {
		t.mu.Lock()
		p := t.peers[ps.Peer]
		t.mu.Unlock()
		p.mu.Lock()
		defer p.mu.Unlock()
		ps.State = p.state
		ps.ConsecutiveFailures = p.consecFails
		ps.Authenticated = p.authed
		if p.lastErr != nil {
			ps.LastError = p.lastErr.Error()
		}
	})
}

// Receive returns the inbound envelope stream.
func (t *Transport) Receive() <-chan network.Envelope { return t.in }

// Close shuts down the transport: senders stop, connections close, and
// the inbound channel is closed once every goroutine has exited.
func (t *Transport) Close() error {
	t.close.Do(func() {
		close(t.stop)
		t.dialCancel()
		_ = t.ln.Close()
		t.mu.Lock()
		for _, p := range t.peers {
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
		t.links.Close()
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
