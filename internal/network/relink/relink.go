// Package relink is the reliability layer beneath Send/Broadcast: the
// per-link sequence/acknowledgement protocol the link pipeline runs for
// tcpnet and memnet. The paper assumes the platform redelivers protocol
// messages; without acks, a frame handed to the kernel before a peer
// crash is counted "sent" and silently lost. relink closes that gap:
//
//   - Every outbound data frame carries a monotonically increasing
//     per-link sequence number (Link.Stage) and is retained in a
//     bounded in-flight window until the peer acknowledges it.
//   - The receiver (Inbox) delivers frames to the engine exactly once
//     and in order per link, buffering out-of-order arrivals and
//     filtering duplicates keyed by (peer, seq).
//   - Acknowledgements are cumulative, piggybacked on reverse traffic
//     and coalesced onto a short timer otherwise; unacknowledged frames
//     are resent after the resend timeout, which is what redelivers
//     everything lost across a reconnect.
//
// A transport restart gets a fresh Epoch (incarnation id), so a peer
// can tell a restarted sender (fresh sequence space, reset the inbound
// cursor) from a sequence gap (buffer and wait for the resend). Each
// frame also carries the sender's window Base — the lowest retained
// sequence — so a receiver that lost its own state (it restarted)
// resumes from the oldest frame the sender can still deliver.
//
// The package is sans-I/O: Link and Inbox only manage state and
// counters; the link pipeline moves the frames.
package relink

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"sync"
	"time"

	"thetacrypt/internal/network"
)

// Config tunes one transport's ack layer. The zero value selects the
// defaults.
type Config struct {
	// Window bounds the unacknowledged frames retained per link
	// (default 1024). A full window is resolved by Policy, exactly like
	// a full outbound queue.
	Window int
	// AckInterval is the coalescing delay for standalone
	// acknowledgements when no reverse traffic piggybacks them
	// (default 25ms).
	AckInterval time.Duration
	// ResendTimeout is how long a staged frame stays unacknowledged
	// before it is retransmitted (default 500ms). It should exceed one
	// round trip plus AckInterval.
	ResendTimeout time.Duration
	// Policy resolves a full window: block (bounded by the send
	// context), drop-oldest (evict the oldest unacknowledged frame —
	// the only way a reliable transport definitively loses a frame), or
	// fail-fast (reject the new frame).
	Policy network.QueuePolicy
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
	if c.Window <= 0 {
		c.Window = 1024
	}
	if c.AckInterval <= 0 {
		c.AckInterval = 25 * time.Millisecond
	}
	if c.ResendTimeout <= 0 {
		c.ResendTimeout = 500 * time.Millisecond
	}
	return c
}

// NewEpoch returns a random nonzero incarnation id for one transport
// instance. 63 bits keep it positive in signed contexts.
func NewEpoch() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			// crypto/rand never fails on supported platforms; fall back
			// to a clock-derived epoch rather than panicking.
			return uint64(time.Now().UnixNano()) & (1<<63 - 1)
		}
		e := binary.BigEndian.Uint64(b[:]) & (1<<63 - 1)
		if e != 0 {
			return e
		}
	}
}

// entry is one staged frame awaiting acknowledgement.
type entry struct {
	env    network.Envelope
	sentAt time.Time
}

// Link is the outbound half of one directed peer link: it assigns
// sequence numbers, retains unacknowledged frames in a bounded window,
// and hands back what must be retransmitted. Any number of goroutines
// may Stage; Ack and Resend are typically driven by the transport's
// reader and ticker.
type Link struct {
	cfg   Config
	epoch uint64

	mu      sync.Mutex
	nextSeq uint64   // next sequence number to assign; first frame is 1
	ackedTo uint64   // highest cumulative acknowledgement seen
	window  []*entry // unacknowledged frames in sequence order
	dropped uint64   // window evictions under drop-oldest
	resent  uint64
	closed  bool
	// space is closed and replaced whenever window room frees up, waking
	// block-policy stagers.
	space chan struct{}
	stop  chan struct{}
}

// NewLink creates the outbound state of one link under the given
// transport epoch.
func NewLink(epoch uint64, cfg Config) *Link {
	return &Link{
		cfg:   cfg.WithDefaults(),
		epoch: epoch,
		// Seq 0 marks unsequenced frames, so assignment starts at 1.
		nextSeq: 1,
		space:   make(chan struct{}),
		stop:    make(chan struct{}),
	}
}

// baseLocked is the lowest retained sequence number: the oldest
// unacknowledged frame, or the next to assign when nothing is pending.
func (l *Link) baseLocked() uint64 {
	if len(l.window) > 0 {
		return l.window[0].env.Seq
	}
	return l.nextSeq
}

// Stage admits one data frame to the in-flight window, assigns its
// sequence number, and returns the framed envelope to transmit. On a
// full window the policy decides: block waits for acknowledgements
// (bounded by ctx), drop-oldest evicts the oldest unacknowledged frame,
// fail-fast returns network.ErrPeerBacklogged. A staged frame is
// retained (and resent) until acknowledged, even if the transport's
// queue later rejects or evicts it.
func (l *Link) Stage(ctx context.Context, env network.Envelope) (network.Envelope, error) {
	for {
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			return env, network.ErrTransportClosed
		}
		if len(l.window) >= l.cfg.Window {
			switch l.cfg.Policy {
			case network.PolicyDropOldest:
				l.window = l.window[1:]
				l.dropped++
			case network.PolicyFailFast:
				l.dropped++
				l.mu.Unlock()
				return env, network.ErrPeerBacklogged
			default: // PolicyBlock
				wait := l.space
				l.mu.Unlock()
				select {
				case <-wait:
					continue
				case <-ctx.Done():
					return env, ctx.Err()
				case <-l.stop:
					return env, network.ErrTransportClosed
				}
			}
		}
		env.Seq = l.nextSeq
		l.nextSeq++
		env.Epoch = l.epoch
		l.window = append(l.window, &entry{env: env, sentAt: time.Now()})
		env.Base = l.baseLocked()
		l.mu.Unlock()
		return env, nil
	}
}

// Ack discharges every staged frame with sequence <= upTo. Acks for a
// different epoch (a previous incarnation of this sender) are ignored.
func (l *Link) Ack(epoch, upTo uint64) {
	if epoch != l.epoch {
		return
	}
	l.mu.Lock()
	freed := false
	for len(l.window) > 0 && l.window[0].env.Seq <= upTo {
		l.window = l.window[1:]
		freed = true
	}
	if upTo > l.ackedTo {
		l.ackedTo = upTo
	}
	if freed {
		close(l.space)
		l.space = make(chan struct{})
	}
	l.mu.Unlock()
}

// Resend walks the window and re-emits every frame whose last
// transmission is older than the resend timeout, with a refreshed Base.
// emit reports whether the frame was actually requeued; only then does
// its clock (and the resent counter) advance, so a full queue retries
// on the next tick instead of silently aging the frame. The scan stops
// at the first failed emit: all frames share one queue, so the rest of
// the tick would fail (and pointlessly marshal) too. Returns the
// number of frames requeued.
func (l *Link) Resend(now time.Time, emit func(network.Envelope) bool) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	base := l.baseLocked()
	for _, en := range l.window {
		if now.Sub(en.sentAt) < l.cfg.ResendTimeout {
			continue
		}
		env := en.env
		env.Base = base
		if !emit(env) {
			break
		}
		en.sentAt = now
		l.resent++
		n++
	}
	return n
}

// Close wakes blocked stagers; further stages fail with
// network.ErrTransportClosed. Window contents are discarded — the
// transport is going away.
func (l *Link) Close() {
	l.mu.Lock()
	if !l.closed {
		l.closed = true
		close(l.stop)
	}
	l.mu.Unlock()
}

// Delivered is the cumulative acknowledgement: frames the peer
// confirmed were handed to its engine.
func (l *Link) Delivered() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ackedTo
}

// Inflight is the number of staged, unacknowledged frames.
func (l *Link) Inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.window)
}

// Resent counts retransmissions since creation.
func (l *Link) Resent() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.resent
}

// Dropped counts window evictions (definitive losses) since creation.
func (l *Link) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// inboxState is the delivery cursor of one sender incarnation.
type inboxState struct {
	epoch    uint64
	expected uint64 // next sequence number to deliver
	buffer   map[uint64]network.Envelope
}

// inboxEpochs bounds the per-epoch cursors an Inbox remembers: the
// current incarnation plus the previous one, so a straggler frame from
// a dead incarnation (an old connection's read loop draining
// concurrently with the new one's) resumes its own retired cursor
// instead of resetting the live one — which would re-open already
// delivered sequence numbers and break exactly-once delivery.
const inboxEpochs = 2

// Inbox is the inbound half of one directed link: it restores per-link
// order, filters duplicates keyed by (peer, seq), and tracks what must
// be acknowledged back to the sender.
type Inbox struct {
	mu sync.Mutex
	// states is a tiny MRU of per-epoch cursors; states[0] is the
	// current incarnation (the one acks are generated for).
	states    []*inboxState
	maxBuffer int
	pending   bool // an acknowledgement is owed
	dups      uint64
}

// NewInbox creates inbound state buffering at most maxBuffer
// out-of-order frames (further ones are dropped and recovered by the
// sender's resend).
func NewInbox(maxBuffer int) *Inbox {
	if maxBuffer <= 0 {
		maxBuffer = 1024
	}
	return &Inbox{maxBuffer: maxBuffer}
}

// stateFor returns (creating if needed) the cursor of the frame's
// sender incarnation and promotes it to current (states[0]); in.mu is
// held. MRU promotion is what converges the acknowledgement target
// onto the live incarnation: a straggler from a dead epoch may briefly
// claim the front (its acks are ignored by the live sender's Link),
// but the live epoch's continuous traffic — at worst its next resend —
// re-promotes it within a resend timeout, whereas never promoting
// could leave a dead epoch in front forever and wedge the sender's
// window. Dedup is unaffected either way: every epoch keeps its own
// cursor.
func (in *Inbox) stateFor(env network.Envelope) *inboxState {
	for i, s := range in.states {
		if s.epoch == env.Epoch {
			if i != 0 {
				copy(in.states[1:i+1], in.states[:i])
				in.states[0] = s
			}
			return s
		}
	}
	// First contact with this incarnation: start at the sender's window
	// base — everything below it was acknowledged (possibly to a
	// previous incarnation of this node) or given up on.
	s := &inboxState{epoch: env.Epoch, expected: env.Base, buffer: make(map[uint64]network.Envelope)}
	if s.expected == 0 {
		s.expected = 1
	}
	in.states = append([]*inboxState{s}, in.states...)
	if len(in.states) > inboxEpochs {
		in.states = in.states[:inboxEpochs]
	}
	return s
}

// Accept processes one sequenced data frame and returns the envelopes
// now deliverable to the engine, in per-link order. Duplicates return
// nothing but still mark an acknowledgement as owed — the sender
// clearly missed our last one. A frame from an unseen sender epoch
// opens a fresh cursor (the peer restarted); a Base above the cursor
// jumps it (the sender gave the skipped frames up, e.g. window
// evictions under drop-oldest, or we restarted and everything older
// was acknowledged to our previous incarnation).
func (in *Inbox) Accept(env network.Envelope) []network.Envelope {
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.stateFor(env)
	if env.Base > s.expected {
		s.expected = env.Base
		for seq := range s.buffer {
			if seq < s.expected {
				delete(s.buffer, seq)
			}
		}
	}
	in.pending = true
	switch {
	case env.Seq < s.expected:
		in.dups++
		return nil
	case env.Seq == s.expected:
		out := []network.Envelope{env}
		s.expected++
		for {
			next, ok := s.buffer[s.expected]
			if !ok {
				break
			}
			delete(s.buffer, s.expected)
			out = append(out, next)
			s.expected++
		}
		return out
	default: // future frame: hold for the gap to fill
		if _, ok := s.buffer[env.Seq]; ok {
			in.dups++
		} else if len(s.buffer) < in.maxBuffer {
			s.buffer[env.Seq] = env
		}
		return nil
	}
}

// AckValue returns the cumulative acknowledgement to send: the current
// sender incarnation and the highest in-order sequence delivered. ok
// is false before any contact.
func (in *Inbox) AckValue() (epoch, upTo uint64, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.states) == 0 {
		return 0, 0, false
	}
	return in.states[0].epoch, in.states[0].expected - 1, true
}

// PendingAck reports whether an acknowledgement is owed and its value.
func (in *Inbox) PendingAck() (epoch, upTo uint64, ok bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.pending || len(in.states) == 0 {
		return 0, 0, false
	}
	return in.states[0].epoch, in.states[0].expected - 1, true
}

// ClearPending marks an acknowledgement as sent (standalone flush or
// piggyback), passing the value that went out. It no-ops when the owed
// acknowledgement has advanced past it since — an Accept that landed
// between reading the value and sending it must not have its ack
// obligation wiped, or the sender would only learn of the delivery a
// resend timeout later.
func (in *Inbox) ClearPending(epoch, upTo uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.states) == 0 {
		return
	}
	if s := in.states[0]; s.epoch == epoch && s.expected-1 <= upTo {
		in.pending = false
	}
}

// Dups counts duplicate frames filtered since creation.
func (in *Inbox) Dups() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dups
}
