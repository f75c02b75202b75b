// Package proxy implements the paper's proxy modules (Section 3.6): a
// P2P proxy and a TOB proxy that delegate communication to an existing
// replicated service instead of running Thetacrypt's own transport. The
// proxy client implements the network.P2P / network.TOB interfaces and
// forwards every operation over a persistent framed TCP connection to a
// proxy server embedded in the host platform; inbound messages flow back
// on the same connection. The original system used gRPC streams for
// this; here frames of an op byte and a 4-byte length prefix over a
// stdlib net.Conn stand in for it.
package proxy

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"thetacrypt/internal/network"
)

// ops on the proxy wire.
const (
	opSend byte = iota + 1
	opBroadcast
	opDeliver
	opSubmit // TOB submit
	opStats  // transport-stats request (node -> host) and reply (host -> node)
)

// Client is the node-side proxy: a network.P2P (and network.TOB) backed
// by a remote host platform.
type Client struct {
	conn net.Conn
	in   chan network.Envelope
	stop chan struct{}
	once sync.Once
	wmu  sync.Mutex
	done sync.WaitGroup
	// statsMu serializes TransportStats callers (one outstanding
	// request on the wire); statsCh carries the host's reply from the
	// read loop to the waiting caller.
	statsMu sync.Mutex
	statsCh chan network.TransportStats
}

var (
	_ network.P2P = (*Client)(nil)
	_ network.TOB = (*Client)(nil)
)

// Dial connects to a proxy server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proxy dial: %w", err)
	}
	c := &Client{
		conn:    conn,
		in:      make(chan network.Envelope, 1024),
		stop:    make(chan struct{}),
		statsCh: make(chan network.TransportStats, 1),
	}
	c.done.Add(1)
	go c.readLoop()
	return c, nil
}

func (c *Client) readLoop() {
	defer c.done.Done()
	for {
		op, frame, err := readOpFrame(c.conn)
		if err != nil {
			return
		}
		if op == opStats {
			var ts network.TransportStats
			if json.Unmarshal(frame, &ts) == nil {
				select {
				case c.statsCh <- ts:
				default: // no caller waiting; drop the stale reply
				}
			}
			continue
		}
		if op != opDeliver {
			continue
		}
		env, err := network.UnmarshalEnvelope(frame)
		if err != nil {
			continue
		}
		select {
		case c.in <- env:
		case <-c.stop:
			return
		}
	}
}

func (c *Client) write(op byte, payload []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return writeOpFrame(c.conn, op, payload)
}

// Send forwards a point-to-point message through the host platform.
func (c *Client) Send(_ context.Context, to int, env network.Envelope) error {
	env.To = to
	return c.write(opSend, env.Marshal())
}

// Broadcast forwards a broadcast through the host platform.
func (c *Client) Broadcast(_ context.Context, env network.Envelope) error {
	env.To = network.Broadcast
	return c.write(opBroadcast, env.Marshal())
}

// Submit forwards an envelope into the host's total-order broadcast.
func (c *Client) Submit(_ context.Context, env network.Envelope) error {
	return c.write(opSubmit, env.Marshal())
}

// Receive returns the inbound message stream.
func (c *Client) Receive() <-chan network.Envelope { return c.in }

// TransportStats asks the host platform for a snapshot of the peer
// links it runs on the node's behalf, so /v2/info stays truthful behind
// the proxy. The request/reply rides the same framed connection; a host
// that predates the stats op simply never answers, and the bounded wait
// degrades to the old empty snapshot.
func (c *Client) TransportStats() network.TransportStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	select {
	case <-c.statsCh: // drop a stale reply from an abandoned request
	default:
	}
	if err := c.write(opStats, nil); err != nil {
		return network.TransportStats{}
	}
	select {
	case ts := <-c.statsCh:
		return ts
	case <-c.stop:
		return network.TransportStats{}
	case <-time.After(2 * time.Second):
		return network.TransportStats{}
	}
}

// Delivered returns the ordered stream (same channel: the host platform
// guarantees the order for TOB deployments).
func (c *Client) Delivered() <-chan network.Envelope { return c.in }

// Close shuts the proxy connection down.
func (c *Client) Close() error {
	c.once.Do(func() {
		close(c.stop)
		_ = c.conn.Close()
		c.done.Wait()
		close(c.in)
	})
	return nil
}

// Server is the platform-side proxy: it accepts one Thetacrypt node and
// bridges it onto the host's communication layer (any network.P2P, and
// optionally a network.TOB).
type Server struct {
	ln    net.Listener
	inner network.P2P
	tob   network.TOB
	stop  chan struct{}
	once  sync.Once
	done  sync.WaitGroup
}

// NewServer bridges the given transports and listens on addr. tob may be
// nil when the host provides only point-to-point channels.
func NewServer(addr string, inner network.P2P, tob network.TOB) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("proxy listen: %w", err)
	}
	s := &Server{ln: ln, inner: inner, tob: tob, stop: make(chan struct{})}
	s.done.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.done.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.done.Add(2)
		var wmu sync.Mutex
		// Downstream: host deliveries to the node.
		go func() {
			defer s.done.Done()
			for {
				select {
				case env, ok := <-s.inner.Receive():
					if !ok {
						return
					}
					wmu.Lock()
					err := writeOpFrame(conn, opDeliver, env.Marshal())
					wmu.Unlock()
					if err != nil {
						return
					}
				case <-s.stop:
					return
				}
			}
		}()
		// Upstream: node operations into the host transports.
		go func() {
			defer s.done.Done()
			defer conn.Close()
			for {
				op, frame, err := readOpFrame(conn)
				if err != nil {
					return
				}
				if op == opStats {
					// Stats requests carry no envelope; answer on the
					// shared writer before the envelope decode below.
					data, err := json.Marshal(s.inner.TransportStats())
					if err != nil {
						continue
					}
					wmu.Lock()
					err = writeOpFrame(conn, opStats, data)
					wmu.Unlock()
					if err != nil {
						return
					}
					continue
				}
				env, err := network.UnmarshalEnvelope(frame)
				if err != nil {
					continue
				}
				switch op {
				case opSend:
					_ = s.inner.Send(context.Background(), env.To, env)
				case opBroadcast:
					_ = s.inner.Broadcast(context.Background(), env)
				case opSubmit:
					if s.tob != nil {
						// Fire-and-forget: the proxy wire has no reply
						// channel, so submit failures — including the
						// sequencer's typed fail-fast while its leader
						// link is down (tob.ErrLeaderDown) — are
						// dropped here. Proxied deployments needing
						// delivery guarantees across a leader outage
						// must retry at the client.
						_ = s.tob.Submit(context.Background(), env)
					}
				}
			}
		}()
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.once.Do(func() {
		close(s.stop)
		_ = s.ln.Close()
	})
	return nil
}

// frame helpers --------------------------------------------------------

var errShortFrame = errors.New("proxy: short frame")

func writeOpFrame(w io.Writer, op byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = op
	binary.BigEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readOpFrame(r io.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > 16<<20 {
		return 0, nil, errShortFrame
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, err
	}
	return hdr[0], buf, nil
}
