package network

// Transport flow control: peer health vocabulary and the typed
// send/broadcast errors shared by every P2P implementation. The paper's
// model assumes reliable point-to-point channels between all N nodes;
// in a real deployment a single slow or dead peer must not stall the
// other N-2 links, so each peer's frames wait in its own bounded ack
// window and are written by its own sender. These types make that
// observable (TransportStats) across tcpnet, memnet, and the proxy
// identically.

import (
	"errors"
	"fmt"
)

// QueuePolicy names what a full queue does. No transport has one: a
// full ack window always refuses. It and PolicyBlock stay only because
// the benchmark's microbenchmarks call outq.New(16, PolicyBlock).
type QueuePolicy int

// PolicyBlock waits for queue space, bounded by the context.
const PolicyBlock QueuePolicy = 0

// ErrPeerBacklogged reports that a peer's ack window is full: 1 024
// frames toward it are unacknowledged. The frame was refused and got
// no sequence number; the peer is lagging or down and its health
// appears in TransportStats.
var ErrPeerBacklogged = errors.New("network: peer send window full")

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
	// QueueDepth is the number of frames staged but not yet written,
	// and QueueCap the ack window they wait in (1 024 frames).
	QueueDepth int
	QueueCap   int
	// Enqueued counts frames staged since start.
	Enqueued uint64
	// Sent counts frames written to the wire since start: data frames,
	// resends and standalone acknowledgements.
	Sent uint64
	// Delivered counts frames the peer has acknowledged: they reached
	// the remote transport and were handed to its engine. Sent minus
	// Delivered is the delivered-vs-sent gap the ack layer closes.
	Delivered uint64
	// Inflight is the number of sequenced frames in the ack window,
	// written or not, awaiting acknowledgement; they are resent after a
	// reconnect.
	Inflight int
	// Resent counts retransmissions of unacknowledged frames.
	Resent uint64
	// Dropped counts frames a full ack window refused. A refused frame
	// was never sequenced; nothing staged is ever dropped.
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
	// Reliable reports that the transport runs the seq/ack layer:
	// frames lost between socket and engine are resent after reconnect
	// and duplicates are filtered before Receive.
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
// Peers not listed received (or hold in their ack window) the frame; callers
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
