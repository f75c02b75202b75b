// Package tob implements the total-order broadcast channel through
// which the front-running example's validators order ciphertexts. The
// paper treats TOB as a black box provided by the hosting platform
// (typically a blockchain), and the threshold engine never submits to
// it, so it lives here with the one application that orders through
// it. It runs on top of a P2P transport and gives the same guarantee —
// every correct node delivers the same sequence of messages — with a
// designated sequencer assigning sequence numbers. It is not fault
// tolerant: a crashed sequencer stops the channel, as the paper's
// host-platform assumption leaves out of scope.
//
// The sequencer has no retransmission of its own; it relies on the
// transport's ack layer, which holds at most 1 024 unacknowledged
// frames per peer and refuses the rest at once. The leader orders one
// message at a time, and before it assigns a sequence number it waits
// until every live follower (one whose link reports no failure) has
// room in its window, so a live follower receives every ORDER frame, in
// order: a burst of submits is paced by the slowest live follower's
// acknowledgements. The leader never waits on a follower whose link
// reports failures. A follower down for more than 1 024 ORDER frames
// therefore stops at that gap: on restart it delivers the first 1 024
// it missed and nothing after them, while the leader and the live
// followers go on.
package tob

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"thetacrypt/internal/network"
)

// ErrClosed is returned by Submit after the endpoint was closed.
var ErrClosed = errors.New("tob: sequencer closed")

// ErrLeaderDown is returned by Submit when the transport reports the
// sequencer leader's link down: queueing into a dead link would only
// grow the backlog, so callers fail fast and decide themselves whether
// to retry, park, or escalate. The leader link's health is visible to
// operators in TransportStats (and through /v2/info on a service node).
var ErrLeaderDown = errors.New("tob: sequencer leader is down")

// Envelope kinds used on the underlying P2P channel. Values are disjoint
// from the orchestration kinds so a misrouted message is detectable.
const (
	kindSubmit network.Kind = 100 + iota
	kindOrder
)

// Sequencer is one node's endpoint of the TOB channel. It must run on a
// dedicated P2P transport (not shared with the orchestration traffic)
// that runs the ack layer, as tcpnet and memnet do (see the package
// doc for what a long outage costs a follower).
type Sequencer struct {
	p2p    network.P2P
	self   int
	leader int

	// ordering holds the one order in progress (leader only): the wait
	// for window room, the sequence number and the broadcast go
	// together, so ORDER frames are staged in sequence order and nothing
	// else takes the room waited for.
	ordering chan struct{}

	mu      sync.Mutex
	nextSeq int // leader: next sequence number to assign
	nextDel int // next sequence number to deliver
	pending map[int]network.Envelope
	closed  bool
	// lastProbe/leaderErr cache the leader-health verdict between
	// TransportStats samples: a full snapshot locks every peer link, so
	// the Submit hot path reuses the last verdict for a probe interval.
	lastProbe time.Time
	leaderErr error
	// delivering tracks in-flight sends on out. A leader-side Submit
	// runs order→enqueue on the caller's goroutine, so Close must wait
	// for those sends to drain before it may close(out); entries are
	// added under mu while closed is still false, which makes the
	// wait race free.
	delivering sync.WaitGroup

	out  chan network.Envelope
	stop chan struct{}
	done chan struct{}
}

// New creates a TOB endpoint for node self (1-indexed) with the given
// sequencer (leader) index.
func New(p2p network.P2P, self, leader int) *Sequencer {
	s := &Sequencer{
		p2p:      p2p,
		self:     self,
		leader:   leader,
		nextSeq:  1,
		nextDel:  1,
		pending:  make(map[int]network.Envelope),
		ordering: make(chan struct{}, 1),
		out:      make(chan network.Envelope, 1024),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go s.run()
	return s
}

// Submit hands an envelope to the ordering service. After Close it
// fails with ErrClosed; a submission racing Close may be silently
// dropped (as it would be in flight on a real network). When the
// transport reports the leader's link down (dial or write failures
// observed), Submit fails fast with ErrLeaderDown instead of queueing
// into the dead link. On the leader, Submit waits while a live
// follower's window is full (see the package doc); if ctx ends first,
// it returns ctx's error and the message was not ordered.
func (s *Sequencer) Submit(ctx context.Context, env network.Envelope) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return ErrClosed
	}
	env.From = s.self
	if s.self == s.leader {
		return s.order(ctx, env)
	}
	if err := s.leaderDown(); err != nil {
		return err
	}
	wrapped := network.Envelope{
		From:     s.self,
		Instance: env.Instance,
		Kind:     kindSubmit,
		Payload:  env.Marshal(),
	}
	return s.p2p.Send(ctx, s.leader, wrapped)
}

// leaderProbeInterval paces how often Submit samples TransportStats
// for the leader link's health.
const leaderProbeInterval = 10 * time.Millisecond

// leaderDown returns ErrLeaderDown while the transport reports the
// leader link down with observed failures, sampling the (per-peer
// lock-sweeping) TransportStats snapshot at most once per probe
// interval and reusing the verdict in between.
func (s *Sequencer) leaderDown() error {
	s.mu.Lock()
	if time.Since(s.lastProbe) < leaderProbeInterval {
		err := s.leaderErr
		s.mu.Unlock()
		return err
	}
	s.lastProbe = time.Now()
	s.mu.Unlock()
	var verdict error
	// ConsecutiveFailures distinguishes an observed outage from the
	// initial not-yet-dialed state, which is also reported Down.
	if ps, ok := s.p2p.TransportStats().Peer(s.leader); ok &&
		ps.State == network.PeerDown && ps.ConsecutiveFailures > 0 {
		verdict = fmt.Errorf("%w: peer %d (%s)", ErrLeaderDown, s.leader, ps.LastError)
	}
	s.mu.Lock()
	s.leaderErr = verdict
	s.mu.Unlock()
	return verdict
}

// Delivered returns the totally ordered stream.
func (s *Sequencer) Delivered() <-chan network.Envelope { return s.out }

// Close stops the endpoint.
func (s *Sequencer) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	<-s.done
	// Closing stop unblocks any delivery stuck on a full out channel;
	// wait for those in-flight sends before closing the channel, or a
	// leader-side Submit racing Close would panic on send-on-closed.
	s.delivering.Wait()
	close(s.out)
	return s.p2p.Close()
}

// order assigns the next sequence number and broadcasts the ORDER
// message (leader only), one message at a time. It first waits for room
// toward every live follower, so the broadcast reaches each of them; a
// follower whose link is down is refused the frame once its window is
// full and stops at that gap (see the package doc). A wait that ctx or
// Close ends orders nothing.
func (s *Sequencer) order(ctx context.Context, env network.Envelope) error {
	select {
	case s.ordering <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	case <-s.stop:
		return ErrClosed
	}
	defer func() { <-s.ordering }()
	if err := s.awaitRoom(ctx); err != nil {
		return err
	}
	s.mu.Lock()
	seq := s.nextSeq
	s.nextSeq++
	s.mu.Unlock()
	_ = s.p2p.Broadcast(ctx, network.Envelope{
		From:     s.leader,
		Instance: env.Instance,
		Kind:     kindOrder,
		Round:    seq,
		Payload:  env.Marshal(),
	})
	s.enqueue(seq, env)
	return nil
}

// roomPoll is how often a leader waiting on a live follower's full
// window looks again; acknowledgements arrive every ack interval.
const roomPoll = time.Millisecond

// awaitRoom waits until every peer whose link reports no failure has
// room in its ack window; like leaderDown, it takes failures, not the
// state, as the sign of an outage, so a link still dialing for the
// first time counts as live. Only ORDER frames travel from the leader,
// and one order runs at a time, so the room stays there for the
// broadcast that follows.
func (s *Sequencer) awaitRoom(ctx context.Context) error {
	for {
		full := false
		for _, ps := range s.p2p.TransportStats().Peers {
			if ps.ConsecutiveFailures == 0 && ps.QueueCap > 0 && ps.Inflight >= ps.QueueCap {
				full = true
				break
			}
		}
		if !full {
			return nil
		}
		timer := time.NewTimer(roomPoll)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-s.stop:
			timer.Stop()
			return ErrClosed
		}
	}
}

// maxPending bounds the ordered messages a node holds ahead of the
// next one it delivers. ORDER frames reach a live follower in sequence
// order, so only a gap a down period left makes them wait, and nothing
// later fills that gap.
const maxPending = 1024

// enqueue buffers an ordered message and flushes the in-order prefix.
// A message already delivered, or maxPending or more ahead, is dropped.
func (s *Sequencer) enqueue(seq int, env network.Envelope) {
	s.mu.Lock()
	if s.closed || seq < s.nextDel || seq >= s.nextDel+maxPending {
		s.mu.Unlock()
		return
	}
	s.pending[seq] = env
	var ready []network.Envelope
	for {
		next, ok := s.pending[s.nextDel]
		if !ok {
			break
		}
		delete(s.pending, s.nextDel)
		s.nextDel++
		ready = append(ready, next)
	}
	if len(ready) > 0 {
		s.delivering.Add(1) // registered before mu is released: Close cannot have set closed yet
	}
	s.mu.Unlock()
	if len(ready) == 0 {
		return
	}
	defer s.delivering.Done()
	for _, e := range ready {
		select {
		case s.out <- e:
		case <-s.stop:
			return
		}
	}
}

func (s *Sequencer) run() {
	defer close(s.done)
	for {
		select {
		case env, ok := <-s.p2p.Receive():
			if !ok {
				return
			}
			switch env.Kind {
			case kindSubmit:
				if s.self != s.leader {
					continue // not ours to order
				}
				inner, err := network.UnmarshalEnvelope(env.Payload)
				if err != nil {
					continue
				}
				_ = s.order(context.Background(), inner)
			case kindOrder:
				if env.From != s.leader {
					continue // only the sequencer may order
				}
				inner, err := network.UnmarshalEnvelope(env.Payload)
				if err != nil {
					continue
				}
				s.enqueue(env.Round, inner)
			}
		case <-s.stop:
			return
		}
	}
}

// Validate reports configuration errors early.
func Validate(self, leader, n int) error {
	if self < 1 || self > n || leader < 1 || leader > n {
		return fmt.Errorf("tob: invalid self=%d leader=%d n=%d", self, leader, n)
	}
	return nil
}
