package link

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"thetacrypt/internal/network"
)

func asIs(env network.Envelope) network.Envelope { return env }

// node is one pipeline with its delivered frames.
type node struct {
	p   *Pipeline[network.Envelope]
	got chan network.Envelope
}

func newNode(t *testing.T, self int, cfg Config) *node {
	t.Helper()
	n := &node{got: make(chan network.Envelope, 64)}
	cfg.Self = self
	n.p = New(cfg, asIs, func(env network.Envelope) bool {
		n.got <- env
		return true
	})
	t.Cleanup(n.p.Close)
	return n
}

// wire registers b as a's peer, writing straight into b's Inbound
// unless drop says the frame is lost.
func wire(a, b *node, drop func(network.Envelope) bool) {
	a.p.AddPeer(b.p.self, func(env network.Envelope) bool {
		if drop == nil || !drop(env) {
			b.p.Inbound(env)
		}
		return true
	})
}

func recv(t *testing.T, n *node) network.Envelope {
	t.Helper()
	select {
	case env := <-n.got:
		return env
	case <-time.After(5 * time.Second):
		t.Fatal("no frame delivered")
		return network.Envelope{}
	}
}

func quiet(t *testing.T, n *node) {
	t.Helper()
	select {
	case env := <-n.got:
		t.Fatalf("unexpected delivery %+v", env)
	case <-time.After(60 * time.Millisecond):
	}
}

// waitStats polls a's view of peer until cond holds.
func waitStats(t *testing.T, a *node, peer int, cond func(network.PeerStats) bool) network.PeerStats {
	t.Helper()
	var last network.PeerStats
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		last, _ = a.p.Stats(false, func(*network.PeerStats) {}).Peer(peer)
		if cond(last) {
			return last
		}
	}
	t.Fatalf("peer %d stats never settled: %+v", peer, last)
	return last
}

var fast = Config{AckInterval: 2 * time.Millisecond, ResendTimeout: 10 * time.Millisecond}

// TestLostFrameIsResentOnce: a frame lost between two pipelines is
// resent by the ticker and reaches the engine exactly once, ahead of
// the frame sent after it; the acknowledgement then drains the window.
func TestLostFrameIsResentOnce(t *testing.T) {
	a, b := newNode(t, 1, fast), newNode(t, 2, fast)
	var lost atomic.Bool
	wire(a, b, func(env network.Envelope) bool {
		return env.Round == 1 && lost.CompareAndSwap(false, true)
	})
	wire(b, a, nil)
	ctx := context.Background()
	for round := 1; round <= 2; round++ {
		if err := a.p.Send(ctx, 2, network.Envelope{Kind: network.KindProto, Round: round}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 1; round <= 2; round++ {
		if env := recv(t, b); env.Round != round || env.From != 1 || env.To != 2 {
			t.Fatalf("delivery %d: %+v", round, env)
		}
	}
	ps := waitStats(t, a, 2, func(ps network.PeerStats) bool { return ps.Delivered == 2 && ps.Inflight == 0 })
	if ps.Resent == 0 || ps.Sent < 3 || ps.QueueCap != 1024 {
		t.Fatalf("stats %+v: want a resend, three writes and the default queue", ps)
	}
	quiet(t, b)
}

// TestInboundPassesControlAndUnsequencedFrames: a standalone ack ends
// in the pipeline, an unsequenced frame reaches the engine raw, and a
// sequenced frame from a sender not registered yet is deduplicated and
// acknowledged once the sender registers.
func TestInboundPassesControlAndUnsequencedFrames(t *testing.T) {
	a := newNode(t, 1, fast)
	a.p.Inbound(network.Envelope{From: 2, Kind: network.KindAck, Ack: 1, AckEpoch: 7})
	a.p.Inbound(network.Envelope{From: 2, Kind: network.KindProto, Round: 5})
	if env := recv(t, a); env.Round != 5 {
		t.Fatalf("raw frame: %+v", env)
	}
	framed := network.Envelope{From: 2, Kind: network.KindProto, Round: 6, Seq: 1, Epoch: 9, Base: 1}
	a.p.Inbound(framed)
	a.p.Inbound(framed)
	if env := recv(t, a); env.Round != 6 {
		t.Fatalf("sequenced frame: %+v", env)
	}
	quiet(t, a)

	acks := make(chan network.Envelope, 8)
	a.p.AddPeer(2, func(env network.Envelope) bool { acks <- env; return true })
	select {
	case ack := <-acks:
		if ack.Kind != network.KindAck || ack.Ack != 1 || ack.AckEpoch != 9 {
			t.Fatalf("owed ack %+v", ack)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the adopted cursor's ack never flushed")
	}
}

// TestInboxTableIsBounded: garbage From values cannot grow the cursor
// table past maxInboxes; past it their frames are delivered raw.
func TestInboxTableIsBounded(t *testing.T) {
	p := New(Config{Self: 1}, asIs, func(network.Envelope) bool { return true })
	defer p.Close()
	for from := 2; from < maxInboxes+100; from++ {
		p.Inbound(network.Envelope{From: from, Kind: network.KindProto, Seq: 1, Epoch: 1, Base: 1})
	}
	p.mu.Lock()
	n := len(p.inboxes)
	p.mu.Unlock()
	if n != maxInboxes {
		t.Fatalf("%d inbound cursors, want the cap %d", n, maxInboxes)
	}
}

// TestBroadcastAggregatesPeerFailures: under fail-fast, a stalled
// peer's full queue fails only that peer's copy, named in a
// *network.BroadcastError, while the healthy peer still gets it.
func TestBroadcastAggregatesPeerFailures(t *testing.T) {
	cfg := fast
	cfg.QueueLen, cfg.Policy = 1, network.PolicyFailFast
	a, b := newNode(t, 1, cfg), newNode(t, 2, cfg)
	stop, stalled := make(chan struct{}), make(chan struct{}, 1)
	defer close(stop)
	wire(a, b, nil)
	a.p.AddPeer(3, func(network.Envelope) bool {
		stalled <- struct{}{}
		<-stop
		return false
	})
	ctx := context.Background()
	// One frame stalls the sender, the next fills the queue, the third
	// is refused.
	err := a.p.Send(ctx, 3, network.Envelope{Kind: network.KindProto})
	<-stalled
	for i := 0; i < 2 && err == nil; i++ {
		err = a.p.Send(ctx, 3, network.Envelope{Kind: network.KindProto})
	}
	var pe *network.PeerError
	if !errors.As(err, &pe) || pe.Peer != 3 || !errors.Is(err, network.ErrPeerBacklogged) {
		t.Fatalf("send into a stalled peer: %v", err)
	}
	err = a.p.Broadcast(ctx, network.Envelope{Kind: network.KindProto, Round: 9})
	var be *network.BroadcastError
	if !errors.As(err, &be) || be.Peers != 2 || len(be.Failed) != 1 || be.Failed[0].Peer != 3 {
		t.Fatalf("broadcast error %v, want peer 3 of 2 failed", err)
	}
	if env := recv(t, b); env.Round != 9 || env.To != network.Broadcast {
		t.Fatalf("healthy peer got %+v", env)
	}
	if err := a.p.Send(ctx, 4, network.Envelope{}); err == nil {
		t.Fatal("send to an unregistered peer accepted")
	}
}

// TestCloseWakesBlockedSend: Close releases a sender parked on a full
// queue and refuses later registrations.
func TestCloseWakesBlockedSend(t *testing.T) {
	stop := make(chan struct{})
	p := New(Config{Self: 1, QueueLen: 1}, asIs, func(network.Envelope) bool { return true })
	p.AddPeer(2, func(network.Envelope) bool { <-stop; return false })
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := p.Send(ctx, 2, network.Envelope{Kind: network.KindProto}); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- p.Send(ctx, 2, network.Envelope{Kind: network.KindProto}) }()
	// Give the Send time to park; one arriving after Close is refused
	// with the same error.
	time.Sleep(20 * time.Millisecond)
	close(stop)
	p.Close()
	p.Close()
	if err := <-done; !errors.Is(err, network.ErrTransportClosed) {
		t.Fatalf("blocked send returned %v, want ErrTransportClosed", err)
	}
	if p.AddPeer(3, func(network.Envelope) bool { return true }) {
		t.Fatal("registered a peer after Close")
	}
}
