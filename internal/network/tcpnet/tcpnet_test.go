package tcpnet_test

import (
	"context"
	"crypto/rand"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/identity"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/securelink"
	"thetacrypt/internal/network/tcpnet"
)

// meshIdentities returns the link config of nodes 1..n, secs[i] being
// node i+1's: its identity and the shared roster.
func meshIdentities(t *testing.T, n int) []*securelink.Config {
	t.Helper()
	ids, roster, err := identity.GenerateMesh(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	secs := make([]*securelink.Config, n)
	for i, id := range ids {
		secs[i] = &securelink.Config{Key: id, Roster: roster}
	}
	return secs
}

// TestNewRequiresIdentity: every link is authenticated, so a transport
// without an identity key and a roster is refused.
func TestNewRequiresIdentity(t *testing.T) {
	sec := meshIdentities(t, 2)[0]
	for name, cfg := range map[string]*securelink.Config{
		"nil":       nil,
		"no key":    {Roster: sec.Roster},
		"no roster": {Key: sec.Key},
	} {
		if tr, err := tcpnet.New(tcpnet.Config{Self: 1, ListenAddr: "127.0.0.1:0", Secure: cfg}); err == nil {
			_ = tr.Close()
			t.Fatalf("%s: transport started without an identity", name)
		}
	}
}

// slowListener accepts connections and never reads protocol frames
// from them, so the peer's socket buffers fill and its writes stall —
// the profile of a wedged or overloaded node. With a link config it
// first completes the handshake as that node; without one it never
// answers the handshake either.
type slowListener struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func newSlowListener(t *testing.T, sec *securelink.Config) *slowListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &slowListener{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, c)
			s.mu.Unlock()
			if sec != nil {
				go func() { _, _, _ = securelink.Server(c, *sec) }()
			}
		}
	}()
	return s
}

func (s *slowListener) addr() string { return s.ln.Addr().String() }

func (s *slowListener) close() {
	_ = s.ln.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.conns {
		_ = c.Close()
	}
}

// TestSlowPeerDoesNotBlockOtherSends: each peer's frames flow through
// its own ack window and writer goroutine, so a peer that stops
// reading stalls only its own link — its window fills and then refuses
// further sends toward it, while sends to healthy peers proceed
// untouched. The window bounds the wedged link's backlog to 1 024
// frames, exactly what it does in production.
func TestSlowPeerDoesNotBlockOtherSends(t *testing.T) {
	secs := meshIdentities(t, 3)
	t1, err := tcpnet.New(tcpnet.Config{Self: 1, ListenAddr: "127.0.0.1:0", Secure: secs[0]})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := tcpnet.New(tcpnet.Config{Self: 3, ListenAddr: "127.0.0.1:0", Secure: secs[2]})
	if err != nil {
		t.Fatal(err)
	}
	slow := newSlowListener(t, secs[1])
	t1.SetPeer(2, slow.addr())
	t1.SetPeer(3, t3.Addr())

	// Wedge the link to peer 2: large frames into a peer that never
	// reads fill the socket buffers within a few sends.
	spamCtx, cancelSpam := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	spamErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		big := network.Envelope{
			Instance: "wedge", Kind: network.KindProto,
			Payload: make([]byte, 1<<20),
		}
		for spamCtx.Err() == nil {
			if err := t1.Send(spamCtx, 2, big); err != nil {
				spamErr <- err
				return
			}
		}
	}()
	t.Cleanup(func() {
		cancelSpam()
		_ = t1.Close() // closes the wedged conn, unblocking the writer
		_ = t3.Close()
		wg.Wait()
		slow.close()
	})
	time.Sleep(300 * time.Millisecond) // let the writer fill the buffers and stall
	select {
	case err := <-spamErr:
		if !errors.Is(err, network.ErrPeerBacklogged) {
			t.Fatalf("sends into the wedged link stopped with %v, want ErrPeerBacklogged", err)
		}
	default:
		t.Fatal("sends into the wedged link were never refused")
	}

	// A send to the healthy peer must complete promptly regardless.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sent := make(chan error, 1)
	go func() {
		sent <- t1.Send(ctx, 3, network.Envelope{
			Instance: "healthy", Kind: network.KindProto, Payload: []byte("hi"),
		})
	}()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("send to healthy peer blocked behind the stalled peer")
	}
	select {
	case env := <-t3.Receive():
		if string(env.Payload) != "hi" || env.From != 1 {
			t.Fatalf("healthy peer received %+v", env)
		}
	case <-ctx.Done():
		t.Fatal("healthy peer never received the envelope")
	}

	// The wedged link is visible to operators: its queue is backed up
	// while the healthy link has flowed.
	st := t1.TransportStats()
	if wedged, ok := st.Peer(2); !ok || wedged.QueueDepth < 1 {
		t.Fatalf("wedged peer stats = %+v, want a backed-up queue", wedged)
	}
	// The writer counts a frame as sent after the write returns, which can
	// be after the receiver has already delivered it: poll, don't sample.
	var healthy network.PeerStats
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if healthy, _ = t1.TransportStats().Peer(3); healthy.Sent >= 1 && healthy.State == network.PeerUp {
			break
		}
	}
	if healthy.Sent < 1 || healthy.State != network.PeerUp {
		t.Fatalf("healthy peer stats = %+v, want Up with sends", healthy)
	}
}

// TestLateRegistrationDoesNotRedeliver: traffic can arrive before the
// receiver has registered the sender (dynamic wiring). The receiver
// must still deduplicate the sender's retransmissions — it cannot ack
// yet, so the sender resends — and once the peer IS registered, the
// owed acknowledgements flush, draining the sender's window and ending
// the resend loop. Nothing is ever delivered twice.
func TestLateRegistrationDoesNotRedeliver(t *testing.T) {
	secs := meshIdentities(t, 2)
	mk := func(self int) *tcpnet.Transport {
		tr, err := tcpnet.New(tcpnet.Config{
			Self: self, ListenAddr: "127.0.0.1:0", Secure: secs[self-1],
			AckInterval:   5 * time.Millisecond,
			ResendTimeout: 25 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = tr.Close() })
		return tr
	}
	t1, t2 := mk(1), mk(2)
	t1.SetPeer(2, t2.Addr()) // t2 does NOT know peer 1 yet

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := t1.Send(ctx, 2, network.Envelope{Instance: "late", Kind: network.KindProto, Round: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-t2.Receive():
		if env.Round != 1 {
			t.Fatalf("received %+v", env)
		}
	case <-ctx.Done():
		t.Fatal("frame never delivered")
	}
	// Several resend timeouts pass; the unacked frame is retransmitted
	// but must be filtered, not redelivered.
	select {
	case env := <-t2.Receive():
		t.Fatalf("retransmission redelivered to the engine: %+v", env)
	case <-time.After(150 * time.Millisecond):
	}

	// Registration adopts the existing inbound cursor: the owed ack
	// flushes and the sender's window drains.
	t2.SetPeer(1, t1.Addr())
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if ps, ok := t1.TransportStats().Peer(2); ok && ps.Delivered >= 1 && ps.Inflight == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	ps, _ := t1.TransportStats().Peer(2)
	t.Fatalf("window never drained after late registration: %+v", ps)
}

// TestBroadcastAddressing: broadcast frames are addressed To=Broadcast
// (memnet semantics) on every link, even though each peer's copy now
// carries its own per-link sequence number from the ack layer.
func TestBroadcastAddressing(t *testing.T) {
	secs := meshIdentities(t, 3)
	transports := make([]*tcpnet.Transport, 3)
	for i := range transports {
		tr, err := tcpnet.New(tcpnet.Config{Self: i + 1, ListenAddr: "127.0.0.1:0", Secure: secs[i]})
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		t.Cleanup(func() { _ = tr.Close() })
	}
	for i := range transports {
		for j := range transports {
			if i != j {
				transports[i].SetPeer(j+1, transports[j].Addr())
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := transports[0].Broadcast(ctx, network.Envelope{
		Instance: "bcast", Kind: network.KindStart, Payload: []byte("x"),
	}); err != nil {
		t.Fatal(err)
	}
	for _, tr := range transports[1:] {
		select {
		case env := <-tr.Receive():
			if env.To != network.Broadcast {
				t.Fatalf("broadcast frame addressed To=%d, want Broadcast (%d)", env.To, network.Broadcast)
			}
			if env.From != 1 || string(env.Payload) != "x" {
				t.Fatalf("broadcast frame %+v", env)
			}
		case <-ctx.Done():
			t.Fatal("broadcast not delivered")
		}
	}
}

// TestCloseAbortsStalledHandshake: a peer that accepts the connection
// and never answers the handshake holds the dial for up to the
// handshake deadline (30 s by default); Close must not wait it out.
func TestCloseAbortsStalledHandshake(t *testing.T) {
	secs := meshIdentities(t, 2)
	tr, err := tcpnet.New(tcpnet.Config{Self: 1, ListenAddr: "127.0.0.1:0", Secure: secs[0]})
	if err != nil {
		t.Fatal(err)
	}
	slow := newSlowListener(t, nil)
	defer slow.close()
	tr.SetPeer(2, slow.addr())
	if err := tr.Send(context.Background(), 2, network.Envelope{Instance: "stall", Kind: network.KindProto}); err != nil {
		t.Fatal(err)
	}
	// The TCP connect succeeds at once; wait until the listener holds
	// the connection, so the dialer is inside the handshake.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		slow.mu.Lock()
		accepted := len(slow.conns)
		slow.mu.Unlock()
		if accepted > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the dialer never connected to the stalling peer")
		}
	}
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	_ = tr.Close()
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v with a handshake stalled, want under 1 s", d)
	}
}
