package securelink

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"io"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"thetacrypt/internal/identity"
)

// testMesh builds a roster of n identities.
func testMesh(t *testing.T, n int) ([]*identity.Key, identity.Roster) {
	t.Helper()
	keys := make([]*identity.Key, n+1)
	roster := make(identity.Roster, n)
	for i := 1; i <= n; i++ {
		k, err := identity.Generate(rand.Reader, i)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
		roster[i] = k.Public()
	}
	return keys, roster
}

// tcpPair returns both ends of a loopback TCP connection. Rejection
// cases run over TCP rather than net.Pipe: on an unbuffered pipe the
// rejecting side's alert blocks until the deadline, because its peer
// has already finished and is not reading.
func tcpPair(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	cc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	sc := <-accepted
	if sc == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { cc.Close(); sc.Close() })
	return cc, sc
}

type result struct {
	client, server *Conn
	peer           int
	cerr, serr     error
}

// handshakeOver runs Client (dialing `to`) against Server on the two
// ends of a connection.
func handshakeOver(cc, sc net.Conn, client, server Config, to int) result {
	var r result
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.server, r.peer, r.serr = Server(sc, server)
		if r.serr != nil {
			sc.Close() // release a client still waiting on the far end
		}
	}()
	r.client, r.cerr = Client(cc, client, to)
	if r.cerr != nil {
		cc.Close()
	}
	<-done
	return r
}

// handshakeTCP runs node clientNode dialing `to` against node
// serverNode over loopback TCP.
func handshakeTCP(t *testing.T, keys []*identity.Key, roster identity.Roster, clientNode, serverNode, to int) result {
	cc, sc := tcpPair(t)
	return handshakeOver(cc, sc,
		Config{Key: keys[clientNode], Roster: roster, Timeout: 5 * time.Second},
		Config{Key: keys[serverNode], Roster: roster, Timeout: 5 * time.Second}, to)
}

// roundTrip writes msg on one end and reads it back on the other.
func roundTrip(t *testing.T, from, to net.Conn, msg []byte) {
	t.Helper()
	go func() { from.Write(msg) }()
	got := make([]byte, len(msg))
	if _, err := io.ReadFull(to, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("message corrupted across the link")
	}
}

func TestHandshakeAndRecordLayer(t *testing.T) {
	keys, roster := testMesh(t, 3)
	cc, sc := net.Pipe()
	r := handshakeOver(cc, sc,
		Config{Key: keys[1], Roster: roster, Timeout: 5 * time.Second},
		Config{Key: keys[2], Roster: roster, Timeout: 5 * time.Second}, 2)
	if r.cerr != nil || r.serr != nil {
		t.Fatalf("handshake failed: client=%v server=%v", r.cerr, r.serr)
	}
	if r.peer != 1 {
		t.Fatalf("server authenticated peer %d, want 1", r.peer)
	}
	defer r.client.Close()
	defer r.server.Close()
	if v := r.client.ConnectionState().Version; v != tls.VersionTLS13 {
		t.Fatalf("negotiated TLS version %#x, want 1.3", v)
	}

	// Both directions move data; large writes span several TLS
	// records (16 KiB of plaintext each).
	big := bytes.Repeat([]byte{0xab}, 3*16<<10+17)
	roundTrip(t, r.client, r.server, []byte("hello over the sealed link"))
	roundTrip(t, r.client, r.server, big)
	roundTrip(t, r.server, r.client, []byte("and back"))
	roundTrip(t, r.server, r.client, big)
}

func TestHandshakeRejectsImpostor(t *testing.T) {
	keys, roster := testMesh(t, 3)
	// Node 3 re-keys without telling the roster: it now speaks for
	// index 3 with keys the roster does not vouch for.
	impostor, err := identity.Generate(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	forged := []*identity.Key{nil, keys[1], keys[2], impostor}

	// Impostor dials an honest node: the server's pin rejects it. The
	// client side finishes first in TLS 1.3, so only the server's
	// verdict matters.
	if r := handshakeTCP(t, forged, roster, 3, 1, 1); !errors.Is(r.serr, ErrBadPeer) {
		t.Fatalf("server accepted an impostor client: %v", r.serr)
	}
	// Honest node dials the impostor: the client's pin rejects it.
	if r := handshakeTCP(t, forged, roster, 1, 3, 3); !errors.Is(r.cerr, ErrBadPeer) {
		t.Fatalf("client accepted an impostor server: %v", r.cerr)
	}
	// A peer presenting the server's own key is not a peer.
	if r := handshakeTCP(t, keys, roster, 1, 1, 1); !errors.Is(r.serr, ErrBadPeer) {
		t.Fatalf("server accepted its own key from a peer: %v", r.serr)
	}
}

func TestHandshakeRejectsUnrostered(t *testing.T) {
	keys, roster := testMesh(t, 2)
	// Node 9 holds a perfectly good key — it is just not in the roster.
	stranger, err := identity.Generate(rand.Reader, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The stranger needs a roster to dial with; give it the real one
	// plus itself, as a compromised config would.
	r2 := identity.Roster{1: roster[1], 2: roster[2], 9: stranger.Public()}
	cc, sc := tcpPair(t)
	r := handshakeOver(cc, sc,
		Config{Key: stranger, Roster: r2, Timeout: 5 * time.Second},
		Config{Key: keys[1], Roster: roster, Timeout: 5 * time.Second}, 1)
	if !errors.Is(r.serr, ErrBadPeer) {
		t.Fatalf("server accepted an unrostered peer: %v", r.serr)
	}

	// Dialing an index outside the roster fails locally, before any
	// bytes move.
	if _, err := Client(nil, Config{Key: keys[1], Roster: roster}, 7); !errors.Is(err, ErrBadPeer) {
		t.Fatalf("Client dialed an unrostered index: %v", err)
	}
}

func TestHandshakeRejectsWrongServerIndex(t *testing.T) {
	keys, roster := testMesh(t, 3)
	// Client dials expecting node 2, but node 3 answers (e.g. a
	// misrouted address). Node 3's certificate is valid for index 3 —
	// the client must still refuse, because it wanted node 2.
	if r := handshakeTCP(t, keys, roster, 1, 3, 2); !errors.Is(r.cerr, ErrBadPeer) {
		t.Fatalf("client accepted the wrong server identity: %v", r.cerr)
	}
}

// TestHandshakeDeadline proves a black-holed peer cannot wedge the
// handshake: the deadline trips and the attempt fails.
func TestHandshakeDeadline(t *testing.T) {
	keys, roster := testMesh(t, 2)
	cc, sc := net.Pipe()
	defer sc.Close()
	defer cc.Close()
	start := time.Now()
	// The peer never responds (no Server running).
	_, err := Client(cc, Config{Key: keys[1], Roster: roster, Timeout: 100 * time.Millisecond}, 2)
	if err == nil {
		t.Fatal("handshake against a silent peer succeeded")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("handshake took %v; the deadline did not bound it", elapsed)
	}
}

// tamperConn flips the last bit of every write once armed.
type tamperConn struct {
	net.Conn
	armed atomic.Bool
}

func (c *tamperConn) Write(p []byte) (int, error) {
	if c.armed.Load() && len(p) > 0 {
		p = bytes.Clone(p)
		p[len(p)-1] ^= 1
	}
	return c.Conn.Write(p)
}

func TestRecordLayerRejectsTampering(t *testing.T) {
	keys, roster := testMesh(t, 2)
	cc, sc := tcpPair(t)
	tc := &tamperConn{Conn: cc}
	r := handshakeOver(tc, sc,
		Config{Key: keys[1], Roster: roster, Timeout: 5 * time.Second},
		Config{Key: keys[2], Roster: roster, Timeout: 5 * time.Second}, 2)
	if r.cerr != nil || r.serr != nil {
		t.Fatalf("handshake failed: client=%v server=%v", r.cerr, r.serr)
	}
	roundTrip(t, r.client, r.server, []byte("first"))

	// A record altered on the wire must not open.
	tc.armed.Store(true)
	if _, err := r.client.Write([]byte("second")); err != nil {
		t.Fatal(err)
	}
	if n, err := r.server.Read(make([]byte, 16)); err == nil {
		t.Fatalf("server accepted a tampered record (%d bytes)", n)
	}
}

// TestSecondConnectionDoesNotResume proves every connection runs the
// roster pin. Go skips VerifyPeerCertificate on a resumed session, so
// a resumed link would come back with no authenticated peer index. A
// client that keeps session tickets reconnects to the same server: no
// connection resumes, each reports the peer, and a roster change in
// between takes effect on the next one.
func TestSecondConnectionDoesNotResume(t *testing.T) {
	keys, roster := testMesh(t, 2)
	cert, err := certificate(keys[1])
	if err != nil {
		t.Fatal(err)
	}
	resuming := &tls.Config{
		Certificates:       []tls.Certificate{cert},
		InsecureSkipVerify: true,
		ClientSessionCache: tls.NewLRUClientSessionCache(4),
		// The session cache is keyed by server name, or else by the
		// address, which differs for every loopback listener.
		ServerName: "node-2",
	}
	server := Config{Key: keys[2], Roster: roster, Timeout: 5 * time.Second}
	for i := 1; i <= 3; i++ {
		if i == 3 {
			// Node 1 leaves the server's roster.
			server.Roster = identity.Roster{2: roster[2]}
		}
		cc, sc := tcpPair(t)
		resumed := make(chan bool, 1)
		go func() {
			c := tls.Client(cc, resuming)
			// Reading also takes in any session ticket the server sent.
			_, err := c.Read(make([]byte, 1))
			resumed <- err == nil && c.ConnectionState().DidResume
		}()
		conn, peer, err := Server(sc, server)
		if i == 3 {
			if !errors.Is(err, ErrBadPeer) {
				t.Fatalf("server skipped the pin on a repeat connection: %v", err)
			}
			break
		}
		if err != nil || peer != 1 {
			t.Fatalf("connection %d: peer %d, %v", i, peer, err)
		}
		if _, err := conn.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if <-resumed || conn.ConnectionState().DidResume {
			t.Fatalf("connection %d resumed a session", i)
		}
	}
}

// TestHandshakeRejectsForeignCertificates presents certificates the
// pin must refuse — a non-Ed25519 key, and a valid roster certificate
// followed by a second one — from either end of the link.
func TestHandshakeRejectsForeignCertificates(t *testing.T) {
	keys, roster := testMesh(t, 2)
	ecKey, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{SerialNumber: big.NewInt(1)}
	ecDER, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &ecKey.PublicKey, ecKey)
	if err != nil {
		t.Fatal(err)
	}
	own, err := certificate(keys[1])
	if err != nil {
		t.Fatal(err)
	}
	rogue := map[string]tls.Certificate{
		"ecdsa":     {Certificate: [][]byte{ecDER}, PrivateKey: ecKey},
		"two-certs": {Certificate: [][]byte{own.Certificate[0], ecDER}, PrivateKey: keys[1].Sign},
	}
	for name, cert := range rogue {
		t.Run(name, func(t *testing.T) {
			cfg := &tls.Config{
				Certificates:       []tls.Certificate{cert},
				ClientAuth:         tls.RequireAnyClientCert,
				InsecureSkipVerify: true,
			}
			// A rogue client against an honest server.
			cc, sc := tcpPair(t)
			go tls.Client(cc, cfg).Handshake()
			if _, _, err := Server(sc, Config{Key: keys[2], Roster: roster, Timeout: 5 * time.Second}); !errors.Is(err, ErrBadPeer) {
				t.Fatalf("server accepted a %s client: %v", name, err)
			}
			// An honest client against a rogue server.
			cc, sc = tcpPair(t)
			go tls.Server(sc, cfg).Handshake()
			if _, err := Client(cc, Config{Key: keys[2], Roster: roster, Timeout: 5 * time.Second}, 1); !errors.Is(err, ErrBadPeer) {
				t.Fatalf("client accepted a %s server: %v", name, err)
			}
		})
	}
}
