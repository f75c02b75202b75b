// Package securelink authenticates and encrypts one mesh link. It
// implements the secure-link seam of the transport stack with the
// standard library's TLS 1.3: both endpoints present a self-signed
// X.509 certificate for their Ed25519 roster identity, and each side
// pins the other's certificate key to the roster instead of checking
// a chain to a CA. Everything tcpnet writes after the handshake —
// relink frames, protocol envelopes, DKG dealings — rides TLS records.
//
// A peer whose key is not in the roster, that presents this node's own
// key, or that is not the node index dialed, is rejected with
// ErrBadPeer before a single protocol byte flows; TLS's CertificateVerify
// proves the peer holds the private key of the certificate it showed.
package securelink

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"math/big"
	"net"
	"sync"
	"time"

	"thetacrypt/internal/identity"
)

// DefaultTimeout bounds the whole handshake when the config does not
// set one: a black-holed or protocol-stalled peer must release the
// dialer goroutine, not wedge it.
const DefaultTimeout = 10 * time.Second

// ErrBadPeer reports an identity failure: an unrostered node index or
// key, a non-Ed25519 key, this node's own key, a peer other than the
// one dialed, or not exactly one certificate.
var ErrBadPeer = errors.New("securelink: peer identity rejected")

// Config carries the local identity and the mesh roster into a
// handshake.
type Config struct {
	// Key is this node's private identity.
	Key *identity.Key
	// Roster maps node index → public identity for every mesh node.
	Roster identity.Roster
	// Timeout bounds the whole handshake (default DefaultTimeout). If
	// it expires the handshake fails and the conn is closed.
	Timeout time.Duration
}

// Conn is an established secure link.
type Conn struct{ *tls.Conn }

// Close closes the underlying connection without sending TLS's
// close_notify alert: writing the alert blocks for up to 5 s when the
// far end is not reading. tcpnet frames are length-prefixed, so a
// truncated frame is still detected without it.
func (c *Conn) Close() error { return c.NetConn().Close() }

// Client runs the dialer side of the handshake, expecting the remote
// endpoint to prove it is node `to`. The caller replaces its plaintext
// conn with the returned Conn.
func Client(conn net.Conn, cfg Config, to int) (*Conn, error) {
	if _, err := cfg.Roster.Lookup(to); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadPeer, err)
	}
	c, _, err := handshake(conn, cfg, tls.Client, func(node int) error {
		if node != to {
			return fmt.Errorf("%w: dialed node %d but peer is node %d", ErrBadPeer, to, node)
		}
		return nil
	})
	return c, err
}

// Server runs the accepter side of the handshake, returning the
// secured conn and the authenticated index of the peer. Any node in
// the roster other than this one may connect.
func Server(conn net.Conn, cfg Config) (*Conn, int, error) {
	return handshake(conn, cfg, tls.Server, func(node int) error {
		if node == cfg.Key.Node {
			return fmt.Errorf("%w: peer presents our own key", ErrBadPeer)
		}
		return nil
	})
}

// handshake runs one side of the TLS 1.3 handshake under the config's
// deadline. accept vets the rostered index the peer's certificate
// pins; the accepted index is returned.
func handshake(conn net.Conn, cfg Config, side func(net.Conn, *tls.Config) *tls.Conn, accept func(node int) error) (*Conn, int, error) {
	cert, err := certificate(cfg.Key)
	if err != nil {
		return nil, 0, err
	}
	peer := 0
	tc := side(conn, &tls.Config{
		MinVersion:   tls.VersionTLS13,
		Certificates: []tls.Certificate{cert},
		ClientAuth:   tls.RequireAnyClientCert,
		// The roster, not a CA, vouches for peers: chain verification
		// is skipped and VerifyPeerCertificate pins the key instead.
		InsecureSkipVerify: true,
		VerifyPeerCertificate: func(raw [][]byte, _ [][]*x509.Certificate) error {
			node, err := rostered(cfg.Roster, raw)
			if err != nil {
				return err
			}
			peer = node
			return accept(node)
		},
		// Go skips VerifyPeerCertificate on a resumed session, so no
		// session may be resumed.
		SessionTicketsDisabled: true,
	})
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	if err := tc.HandshakeContext(ctx); err != nil {
		return nil, 0, fmt.Errorf("securelink: handshake: %w", err)
	}
	return &Conn{tc}, peer, nil
}

// rostered maps the peer's one certificate to the roster index of its
// Ed25519 key.
func rostered(roster identity.Roster, raw [][]byte) (int, error) {
	if len(raw) != 1 {
		return 0, fmt.Errorf("%w: %d certificates, want 1", ErrBadPeer, len(raw))
	}
	cert, err := x509.ParseCertificate(raw[0])
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadPeer, err)
	}
	pub, ok := cert.PublicKey.(ed25519.PublicKey)
	if !ok {
		return 0, fmt.Errorf("%w: %T is not an Ed25519 key", ErrBadPeer, cert.PublicKey)
	}
	for node, p := range roster {
		if pub.Equal(p.Sign) {
			return node, nil
		}
	}
	return 0, fmt.Errorf("%w: key not in roster", ErrBadPeer)
}

// certs caches each identity's self-signed certificate, keyed by its
// public key: signing one per handshake took nearly half its CPU.
var certs sync.Map // string(ed25519.PublicKey) → tls.Certificate

// certificate returns the self-signed certificate for k's signing key.
// Peers check only its key, so it carries no name and its validity
// dates stay unset.
func certificate(k *identity.Key) (tls.Certificate, error) {
	pub := k.Sign.Public().(ed25519.PublicKey)
	if c, ok := certs.Load(string(pub)); ok {
		return c.(tls.Certificate), nil
	}
	tmpl := &x509.Certificate{SerialNumber: big.NewInt(int64(k.Node))}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, k.Sign)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("securelink: certificate: %w", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("securelink: certificate: %w", err)
	}
	c, _ := certs.LoadOrStore(string(pub), tls.Certificate{Certificate: [][]byte{der}, PrivateKey: k.Sign, Leaf: leaf})
	return c.(tls.Certificate), nil
}
