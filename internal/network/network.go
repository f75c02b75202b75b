// Package network defines the network layer of Thetacrypt: the
// peer-to-peer (P2P) interface the engine talks to and the wire
// envelope (the paper's Section 3.6).
//
// Two P2P implementations exist. tcpnet (TCP full mesh for
// standalone deployments) and memnet (in-process, with a latency
// matrix substituting for the paper's multi-region testbed) share one
// link pipeline, internal/network/link, which owns send windows, acks,
// resends and Broadcast; each transport adds only how its frames move
// (see their package comments).
package network

import (
	"context"
	"fmt"

	"thetacrypt/internal/wire"
)

// Kind classifies envelope contents.
type Kind int

// Envelope kinds understood by the orchestration layer.
const (
	// KindStart announces a new protocol instance and carries the
	// marshaled request.
	KindStart Kind = iota + 1
	// KindProto carries a protocol round message.
	KindProto
	// KindAck is a transport-internal standalone acknowledgement of the
	// reliability layer (see internal/network/relink). It is consumed by
	// the receiving transport and never reaches the engine.
	KindAck
)

// Broadcast is the To value addressing all peers.
const Broadcast = 0

// InboundQueueLen is the capacity of a transport's Receive channel, in
// both tcpnet and memnet. The engine's pump hands each delivered
// envelope straight on to the engine's own event queue (4096 events by
// default), so these slots are only burst slack in front of that queue;
// a consumer that falls behind blocks the transport's delivery, which
// leaves the frames unacknowledged on the sender's side (relink.Window)
// rather than lost. Every slot is an envelope allocated when the
// transport starts, for each node of a process, so a deeper queue costs
// resident memory and buys nothing the event queue does not. Much
// shallower queues were measured to slow the key-lifecycle benchmark:
// with a smaller live heap the collector runs more often.
const InboundQueueLen = 1024

// Envelope is the unit of internode communication.
type Envelope struct {
	From     int
	To       int // Broadcast or a node index
	Instance string
	Kind     Kind
	Round    int
	// Gen is the run generation of the instance: a re-submission after a
	// retention eviction announces a higher generation so peers that
	// still retain the previous run join the fresh one deliberately
	// instead of treating the announcement as a duplicate. Every start
	// and protocol envelope carries a generation ≥ 1; the engine drops
	// one with Gen < 1 as malformed.
	Gen     int
	Payload []byte

	// Reliability header, managed by the transport's ack layer (see
	// internal/network/relink). Applications never set these.

	// Seq is the per-link sequence number; 0 marks an unsequenced frame
	// that bypasses the reliability layer.
	Seq uint64
	// Epoch identifies the sender's transport incarnation, so a receiver
	// can tell a restarted peer (fresh sequence space) from a gap.
	Epoch uint64
	// Base is the sender's lowest retained sequence number at send time:
	// everything below it was acknowledged, so a fresh
	// receiver starts expecting Base, not 1.
	Base uint64
	// Ack piggybacks the cumulative acknowledgement for the reverse
	// direction of this link; AckEpoch names the epoch it refers to
	// (0 = no acknowledgement attached).
	Ack      uint64
	AckEpoch uint64
}

// Marshal encodes an envelope for byte-oriented transports.
func (e Envelope) Marshal() []byte {
	return wire.NewWriter().
		Int(e.From).Int(e.To).String(e.Instance).
		Int(int(e.Kind)).Int(e.Round).Int(e.Gen).Bytes(e.Payload).
		Uint64(e.Seq).Uint64(e.Epoch).Uint64(e.Base).
		Uint64(e.Ack).Uint64(e.AckEpoch).Out()
}

// UnmarshalEnvelope decodes an envelope. It accepts exactly the
// encodings Marshal produces: trailing bytes are an error.
func UnmarshalEnvelope(data []byte) (Envelope, error) {
	r := wire.NewReader(data)
	env := Envelope{
		From:     r.Int(),
		To:       r.Int(),
		Instance: r.String(),
	}
	env.Kind = Kind(r.Int())
	env.Round = r.Int()
	env.Gen = r.Int()
	env.Payload = r.Bytes()
	env.Seq = r.Uint64()
	env.Epoch = r.Uint64()
	env.Base = r.Uint64()
	env.Ack = r.Uint64()
	env.AckEpoch = r.Uint64()
	if err := r.Err(); err != nil {
		return Envelope{}, fmt.Errorf("network envelope: %w", err)
	}
	if !r.Done() {
		return Envelope{}, fmt.Errorf("network envelope: %d trailing bytes", r.Remaining())
	}
	return env, nil
}

// P2P provides reliable point-to-point communication with every peer.
// Implementations must deliver each sent envelope at most once per
// destination and preserve sender order on a per-link basis.
//
// Sends are asynchronous: Send and Broadcast stage the frame for the
// peer's sender in O(1) and never wait for dialing or for a slow peer.
// A peer with 1 024 unacknowledged frames (relink.Window) refuses
// further ones at once with ErrPeerBacklogged; Broadcast reports per-peer
// failures as a *BroadcastError (see FailedPeers).
//
// tcpnet and memnet run the relink ack layer beneath Send/Broadcast:
// every frame carries a per-link sequence number, the receiver
// acknowledges delivery to the engine, and unacknowledged frames are
// resent after a reconnect, with duplicates filtered before Receive.
// Such transports report Reliable in their TransportStats.
type P2P interface {
	// Send delivers the envelope to one peer.
	Send(ctx context.Context, to int, env Envelope) error
	// Broadcast delivers the envelope to every other peer.
	Broadcast(ctx context.Context, env Envelope) error
	// Receive returns the channel of inbound envelopes. The channel is
	// closed by Close.
	Receive() <-chan Envelope
	// TransportStats snapshots the health of every peer link: state
	// (up/dialing/down), unwritten frames, and send/drop counters.
	TransportStats() TransportStats
	// Close releases the transport.
	Close() error
}
