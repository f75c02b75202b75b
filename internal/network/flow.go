package network

// Transport flow control: the per-peer outbound queue policies, peer
// health vocabulary, and typed send/broadcast errors shared by every
// P2P implementation. The paper's model assumes reliable point-to-point
// channels between all N nodes; in a real deployment a single slow or
// dead peer must not stall the other N-2 links, so sends are decoupled
// from the protocol hot path by bounded per-peer queues drained by
// dedicated writers. These types make that decoupling observable
// (TransportStats) and tunable (QueuePolicy) across tcpnet, memnet,
// and the proxy identically.

import (
	"errors"
	"fmt"
	"strings"
)

// QueuePolicy selects what an enqueue does when a peer's bounded
// outbound queue is full.
type QueuePolicy int

const (
	// PolicyBlock waits for queue space, bounded by the send context.
	// This is the default: backpressure propagates to the caller, no
	// frame is dropped.
	PolicyBlock QueuePolicy = iota
	// PolicyDropOldest evicts the oldest queued frame to admit the new
	// one. Sends never block and never fail; the drop counter records
	// the loss. Suited to traffic where the newest message supersedes
	// older ones.
	PolicyDropOldest
	// PolicyFailFast rejects the new frame with ErrPeerBacklogged.
	// Sends never block; the caller decides whether the peer matters.
	PolicyFailFast
)

// String names the policy as accepted by ParseQueuePolicy.
func (p QueuePolicy) String() string {
	switch p {
	case PolicyBlock:
		return "block"
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyFailFast:
		return "fail-fast"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParseQueuePolicy maps a configuration string onto a policy.
func ParseQueuePolicy(s string) (QueuePolicy, error) {
	switch strings.TrimSpace(strings.ToLower(s)) {
	case "", "block":
		return PolicyBlock, nil
	case "drop-oldest", "drop_oldest", "dropoldest":
		return PolicyDropOldest, nil
	case "fail-fast", "fail_fast", "failfast":
		return PolicyFailFast, nil
	default:
		return 0, fmt.Errorf("network: unknown queue policy %q (want block, drop-oldest, or fail-fast)", s)
	}
}

// ErrPeerBacklogged reports that a peer's outbound queue is full under
// PolicyFailFast. The frame was not enqueued; the peer is lagging or
// down and its health appears in TransportStats.
var ErrPeerBacklogged = errors.New("network: peer outbound queue full")

// ErrTransportClosed is returned by sends against a closed transport.
var ErrTransportClosed = errors.New("network: transport closed")

// PeerState is the health of one peer link as seen by the local writer.
type PeerState int

const (
	// PeerUp: the link is established and the last write succeeded.
	PeerUp PeerState = iota
	// PeerDialing: a connection attempt is in flight.
	PeerDialing
	// PeerDown: the last dial or write failed; the writer is in
	// exponential backoff before the next attempt.
	PeerDown
)

// String returns the wire spelling used in stats and /v2/info.
func (s PeerState) String() string {
	switch s {
	case PeerUp:
		return "up"
	case PeerDialing:
		return "dialing"
	case PeerDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// PeerStats is a point-in-time snapshot of one peer link.
type PeerStats struct {
	// Peer is the remote node's 1-based index.
	Peer int
	// State is the link health (up, dialing, down).
	State PeerState
	// QueueDepth and QueueCap describe the bounded outbound queue.
	QueueDepth int
	QueueCap   int
	// Enqueued counts frames admitted to the queue since start.
	Enqueued uint64
	// Sent counts frames written to the wire since start.
	Sent uint64
	// Delivered counts frames the peer has acknowledged: they reached
	// the remote transport and were handed to its engine. Sent minus
	// Delivered is the delivered-vs-sent gap the ack layer closes.
	Delivered uint64
	// Inflight is the number of sequenced frames staged in the ack
	// layer's bounded window, awaiting acknowledgement; they are resent
	// after a reconnect.
	Inflight int
	// Resent counts retransmissions of unacknowledged frames.
	Resent uint64
	// Dropped counts frames rejected or evicted by the queue policy
	// (evictions under drop-oldest, rejections under fail-fast) plus
	// in-flight window evictions. On a Reliable transport a queue-policy
	// drop is recovered by the ack layer while the frame stays windowed;
	// only window evictions are definitive losses.
	Dropped uint64
	// ConsecutiveFailures counts dial/write failures since the last
	// successful write; zero on a healthy link.
	ConsecutiveFailures uint64
	// LastError is the most recent dial/write failure, empty when none.
	LastError string
	// Authenticated reports that the link's current connection completed
	// the mutual-authentication handshake against the roster (always
	// false on an insecure transport, and false while a secure link is
	// down or redialing).
	Authenticated bool
}

// TransportStats is a snapshot of every peer link of a transport,
// ordered by peer index.
type TransportStats struct {
	Peers []PeerStats
	// Policy is the transport's full-queue policy.
	Policy QueuePolicy
	// Reliable reports that the transport runs the seq/ack layer:
	// frames lost between socket and engine are resent after reconnect
	// and duplicates are filtered before Receive. Consumers that need
	// lossless delivery (the TOB sequencer) accept lossy queue policies
	// only on reliable transports.
	Reliable bool
	// Authenticated reports that the transport runs every link through
	// the identity-keyed mutual-authentication handshake: unrostered
	// peers cannot join, and frames ride TLS 1.3 records.
	Authenticated bool
}

// Peer returns the snapshot of one peer link.
func (ts TransportStats) Peer(index int) (PeerStats, bool) {
	for _, p := range ts.Peers {
		if p.Peer == index {
			return p, true
		}
	}
	return PeerStats{}, false
}

// PeerError wraps a send failure with the peer it failed for, so a
// multi-peer Broadcast error remains attributable per peer.
type PeerError struct {
	Peer int
	Err  error
}

// Error implements error.
func (e *PeerError) Error() string { return fmt.Sprintf("peer %d: %v", e.Peer, e.Err) }

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *PeerError) Unwrap() error { return e.Err }

// BroadcastError aggregates the per-peer failures of one Broadcast.
// Peers not listed received (or durably queued) the frame; callers
// decide whether the surviving set still reaches a quorum.
type BroadcastError struct {
	// Failed holds one entry per failed peer, in peer order.
	Failed []*PeerError
	// Peers is the number of peers the broadcast attempted.
	Peers int
}

// NewBroadcastError builds the aggregate, returning nil when no peer
// failed.
func NewBroadcastError(attempted int, failed []*PeerError) error {
	if len(failed) == 0 {
		return nil
	}
	return &BroadcastError{Failed: failed, Peers: attempted}
}

// Error implements error via errors.Join over the per-peer failures.
func (e *BroadcastError) Error() string {
	return fmt.Sprintf("network: broadcast failed for %d/%d peers: %v",
		len(e.Failed), e.Peers, errors.Join(e.Unwrap()...))
}

// Unwrap exposes every per-peer failure to errors.Is/As (the multi-error
// form used by errors.Join).
func (e *BroadcastError) Unwrap() []error {
	errs := make([]error, len(e.Failed))
	for i, pe := range e.Failed {
		errs[i] = pe
	}
	return errs
}

// FailedPeers extracts the peer indices a send or broadcast error names,
// walking wrapped and joined errors. An empty result means the error is
// not attributable to specific peers (e.g. a closed transport).
func FailedPeers(err error) []int {
	var out []int
	var walk func(error)
	seen := make(map[int]bool)
	walk = func(err error) {
		if err == nil {
			return
		}
		if pe, ok := err.(*PeerError); ok {
			if !seen[pe.Peer] {
				seen[pe.Peer] = true
				out = append(out, pe.Peer)
			}
			return
		}
		switch x := err.(type) {
		case interface{ Unwrap() []error }:
			for _, sub := range x.Unwrap() {
				walk(sub)
			}
		case interface{ Unwrap() error }:
			walk(x.Unwrap())
		}
	}
	walk(err)
	return out
}
