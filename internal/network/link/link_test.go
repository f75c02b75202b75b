package link

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/relink"
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

// TestBlockedWriteIsNotResentOnCompletion: a frame whose write blocks
// for several resend timeouts, with no acknowledgement, counts as
// written when the write returns, not when it was handed out. So it is
// not written a second time the moment the write returns, and a late
// acknowledgement drains the window with no resend at all.
func TestBlockedWriteIsNotResentOnCompletion(t *testing.T) {
	cfg := Config{AckInterval: 2 * time.Millisecond, ResendTimeout: 200 * time.Millisecond}
	a := newNode(t, 1, cfg)
	started, release := make(chan struct{}), make(chan struct{})
	var writes atomic.Int32
	var epoch atomic.Uint64
	a.p.AddPeer(2, func(env network.Envelope) bool {
		if env.Seq != 0 && writes.Add(1) == 1 {
			epoch.Store(env.Epoch)
			close(started)
			<-release
		}
		return true
	})
	if err := a.p.Send(context.Background(), 2, network.Envelope{Kind: network.KindProto}); err != nil {
		t.Fatal(err)
	}
	<-started
	time.Sleep(4 * cfg.ResendTimeout)
	close(release)
	time.Sleep(cfg.ResendTimeout / 4)
	if n := writes.Load(); n != 1 {
		t.Fatalf("frame written %d times right after its blocked write returned, want once", n)
	}
	a.p.Inbound(network.Envelope{From: 2, Kind: network.KindAck, Ack: 1, AckEpoch: epoch.Load()})
	ps := waitStats(t, a, 2, func(ps network.PeerStats) bool { return ps.Inflight == 0 })
	if n := writes.Load(); n != 1 || ps.Resent != 0 {
		t.Fatalf("frame written %d times, stats %+v: want one write and no resend", n, ps)
	}
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

// TestBroadcastAggregatesPeerFailures: a stalled peer's full window
// fails only that peer's copy, at once and named in a
// *network.BroadcastError, while the healthy peer still gets it.
func TestBroadcastAggregatesPeerFailures(t *testing.T) {
	a, b := newNode(t, 1, fast), newNode(t, 2, fast)
	stop, stalled := make(chan struct{}), make(chan struct{}, 1)
	defer close(stop)
	wire(a, b, nil)
	a.p.AddPeer(3, func(network.Envelope) bool {
		stalled <- struct{}{}
		<-stop
		return false
	})
	ctx := context.Background()
	// The first frame stalls the sender; the window holds 1 024 frames
	// and refuses the next.
	var err error
	for i := 0; i <= relink.Window && err == nil; i++ {
		err = a.p.Send(ctx, 3, network.Envelope{Kind: network.KindProto})
		if i == 0 {
			<-stalled
		}
	}
	var pe *network.PeerError
	if !errors.As(err, &pe) || pe.Peer != 3 || !errors.Is(err, network.ErrPeerBacklogged) {
		t.Fatalf("send into a stalled peer: %v", err)
	}
	start := time.Now()
	err = a.p.Broadcast(ctx, network.Envelope{Kind: network.KindProto, Round: 9})
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("broadcast past a full window took %v", d)
	}
	var be *network.BroadcastError
	if !errors.As(err, &be) || be.Peers != 2 || len(be.Failed) != 1 || be.Failed[0].Peer != 3 {
		t.Fatalf("broadcast error %v, want peer 3 of 2 failed", err)
	}
	if env := recv(t, b); env.Round != 9 || env.To != network.Broadcast {
		t.Fatalf("healthy peer got %+v", env)
	}
	if ps := waitStats(t, a, 3, func(network.PeerStats) bool { return true }); ps.Dropped != 2 || ps.Inflight != relink.Window {
		t.Fatalf("stalled peer stats %+v, want 2 refused and a full window", ps)
	}
	if err := a.p.Send(ctx, 4, network.Envelope{}); err == nil {
		t.Fatal("send to an unregistered peer accepted")
	}
}

// TestCloseRefusesSends: once closed, the pipeline refuses sends and
// broadcasts with ErrTransportClosed and refuses registrations.
func TestCloseRefusesSends(t *testing.T) {
	stop := make(chan struct{})
	p := New(Config{Self: 1}, asIs, func(network.Envelope) bool { return true })
	p.AddPeer(2, func(network.Envelope) bool { <-stop; return false })
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if err := p.Send(ctx, 2, network.Envelope{Kind: network.KindProto}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	p.Close()
	p.Close()
	if err := p.Send(ctx, 2, network.Envelope{Kind: network.KindProto}); !errors.Is(err, network.ErrTransportClosed) {
		t.Fatalf("send after Close returned %v, want ErrTransportClosed", err)
	}
	if err := p.Broadcast(ctx, network.Envelope{Kind: network.KindProto}); !errors.Is(err, network.ErrTransportClosed) {
		t.Fatalf("broadcast after Close returned %v, want ErrTransportClosed", err)
	}
	if p.AddPeer(3, func(network.Envelope) bool { return true }) {
		t.Fatal("registered a peer after Close")
	}
}
