// Package relink is the reliability layer beneath Send/Broadcast: the
// per-link sequence/acknowledgement protocol the link pipeline runs for
// tcpnet and memnet. The paper assumes the platform redelivers protocol
// messages; without acks, a frame handed to the kernel before a peer
// crash is counted "sent" and silently lost. relink closes that gap:
//
//   - Every outbound data frame carries a monotonically increasing
//     per-link sequence number (Link.Stage) and stays in the link's
//     window of Window frames until the peer acknowledges it. The
//     window is the link's only send buffer: the sender takes each
//     write from it (Link.Next), and a full window refuses the next
//     frame at once.
//   - The receiver (Inbox) delivers frames to the engine exactly once
//     and in order per link, buffering out-of-order arrivals and
//     filtering duplicates keyed by (peer, seq).
//   - Acknowledgements are cumulative, piggybacked on reverse traffic
//     and coalesced onto a short timer otherwise, or sent at once when
//     half a window is owed (Inbox.Owed); once the oldest
//     unacknowledged frame was written ResendTimeout ago, every
//     unacknowledged frame written that long ago is written again, in
//     order, which is what redelivers everything lost across a
//     reconnect.
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

// Window is the number of unacknowledged frames one link holds. A
// frame past it is refused with network.ErrPeerBacklogged, so a dead
// or stalled peer costs its senders nothing but the refusal.
const Window = 1024

// Config tunes one transport's ack layer. The zero value selects the
// defaults.
type Config struct {
	// AckInterval is the coalescing delay for standalone
	// acknowledgements when no reverse traffic piggybacks them
	// (default 25ms).
	AckInterval time.Duration
	// ResendTimeout is how long an unacknowledged frame waits after its
	// last write before it is written again (default 500ms). It should
	// exceed one round trip plus AckInterval.
	ResendTimeout time.Duration
}

// WithDefaults fills unset fields.
func (c Config) WithDefaults() Config {
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
	env network.Envelope
	// sentAt is when the frame's last write completed (Wrote).
	sentAt time.Time
}

// Link is the outbound half of one directed peer link: it assigns
// sequence numbers, holds unacknowledged frames in the window, and
// hands its sender the next frame to write. Any number of goroutines
// may Stage; one sender calls Next, and the transport's reader calls
// Ack.
type Link struct {
	cfg   Config
	epoch uint64

	mu      sync.Mutex
	nextSeq uint64  // next sequence number to assign; first frame is 1
	ackedTo uint64  // highest cumulative acknowledgement seen
	window  []entry // unacknowledged frames in sequence order
	// next is the write cursor: window[next] is the frame Next hands
	// out. window[written:] was never handed out; next <= written.
	next, written int
	staged        uint64
	dropped       uint64 // frames refused by a full window
	resent        uint64
}

// NewLink creates the outbound state of one link under the given
// transport epoch.
func NewLink(epoch uint64, cfg Config) *Link {
	return &Link{
		cfg:   cfg.WithDefaults(),
		epoch: epoch,
		// Seq 0 marks unsequenced frames, so assignment starts at 1.
		nextSeq: 1,
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

// Stage admits one data frame to the window, assigns its sequence
// number, and returns the framed envelope. It never waits: a full
// window refuses the frame with network.ErrPeerBacklogged and counts it
// in Dropped, and a refused frame gets no sequence number, so the
// receiver sees no gap. ctx is unused.
func (l *Link) Stage(_ context.Context, env network.Envelope) (network.Envelope, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.window) >= Window {
		l.dropped++
		return env, network.ErrPeerBacklogged
	}
	env.Seq, env.Epoch = l.nextSeq, l.epoch
	l.nextSeq++
	l.staged++
	l.window = append(l.window, entry{env: env})
	env.Base = l.baseLocked()
	return env, nil
}

// Next hands out the frame to write now, with a current Base: the
// oldest frame not handed out yet; else, once the oldest
// unacknowledged frame was written ResendTimeout before now, that
// frame, and the cursor goes back over the unacknowledged frames so
// that each one written ResendTimeout ago or more is written again,
// in order. A frame written less than ResendTimeout ago is skipped,
// so a live peer whose acknowledgements lag gets no copy of what it was
// just sent. The sender reports each completed write with Wrote before
// it calls Next again. ok is false when nothing is due.
func (l *Link) Next(now time.Time) (env network.Envelope, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	stale := func(i int) bool { return now.Sub(l.window[i].sentAt) >= l.cfg.ResendTimeout }
	for l.next < l.written && !stale(l.next) {
		l.next++
	}
	if l.next == len(l.window) {
		if l.next == 0 || !stale(0) {
			return env, false
		}
		l.next = 0
	}
	if l.next < l.written {
		l.resent++
	} else {
		l.written++
	}
	env = l.window[l.next].env
	l.next++
	env.Base = l.baseLocked()
	return env, true
}

// Wrote records that the write of frame seq completed at now; its
// resend timeout runs from then. A write can block for as long as the
// peer is unreachable: timed from its hand-out, the frame would look
// stale the moment such a write succeeds and be written again at once,
// before the peer could acknowledge it. An acknowledged frame is
// ignored.
func (l *Link) Wrote(seq uint64, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.window) == 0 || seq < l.window[0].env.Seq {
		return
	}
	if i := seq - l.window[0].env.Seq; i < uint64(len(l.window)) {
		l.window[i].sentAt = now
	}
}

// Ack discharges every staged frame with sequence <= upTo. Acks for a
// different epoch (a previous incarnation of this sender) are ignored.
func (l *Link) Ack(epoch, upTo uint64) {
	if epoch != l.epoch {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := 0
	for k < len(l.window) && l.window[k].env.Seq <= upTo {
		k++
	}
	clear(l.window[:k]) // release the payloads
	l.window = l.window[k:]
	l.next, l.written = max(l.next-k, 0), max(l.written-k, 0)
	l.ackedTo = max(l.ackedTo, upTo)
}

// Stats fills the link's half of a peer snapshot: the unwritten frames
// (QueueDepth) out of the window (QueueCap), the frames staged
// (Enqueued) and refused (Dropped), the cumulative acknowledgement
// (Delivered), the unacknowledged frames (Inflight) and the writes that
// were resends (Resent).
func (l *Link) Stats() network.PeerStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return network.PeerStats{
		QueueDepth: len(l.window) - l.written,
		QueueCap:   Window,
		Enqueued:   l.staged,
		Dropped:    l.dropped,
		Delivered:  l.ackedTo,
		Inflight:   len(l.window),
		Resent:     l.resent,
	}
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
	// sentEpoch and sentUpTo are the last acknowledgement that went out.
	sentEpoch, sentUpTo uint64
	dups                uint64
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
	// previous incarnation of this node).
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
// jumps it (we restarted, and everything older was acknowledged to our
// previous incarnation).
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
// piggyback), passing the value that went out, which Owed counts from.
// It leaves the obligation set when the owed acknowledgement has
// advanced past that value since — an Accept that landed between
// reading the value and sending it must not have its ack obligation
// wiped, or the sender would only learn of the delivery a resend
// timeout later.
func (in *Inbox) ClearPending(epoch, upTo uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sentEpoch, in.sentUpTo = epoch, upTo
	if len(in.states) == 0 {
		return
	}
	if s := in.states[0]; s.epoch == epoch && s.expected-1 <= upTo {
		in.pending = false
	}
}

// Owed counts the frames of the current sender incarnation delivered
// in order since the last acknowledgement that went out to it.
func (in *Inbox) Owed() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	if len(in.states) == 0 {
		return 0
	}
	s := in.states[0]
	upTo := s.expected - 1
	if s.epoch != in.sentEpoch {
		return upTo
	}
	return upTo - min(upTo, in.sentUpTo)
}

// Dups counts duplicate frames filtered since creation.
func (in *Inbox) Dups() uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dups
}
