package memnet

import (
	"context"
	"fmt"
	"testing"
	"time"

	"thetacrypt/internal/network"
)

func recvOne(t *testing.T, ch <-chan network.Envelope, within time.Duration) network.Envelope {
	t.Helper()
	select {
	case env := <-ch:
		return env
	case <-time.After(within):
		t.Fatal("timed out waiting for envelope")
		return network.Envelope{}
	}
}

func TestSendAndBroadcast(t *testing.T) {
	hub := NewHub(3, Options{})
	defer hub.Close()
	e1, e2, e3 := hub.Endpoint(1), hub.Endpoint(2), hub.Endpoint(3)

	if err := e1.Send(context.Background(), 2, network.Envelope{Payload: []byte("direct")}); err != nil {
		t.Fatal(err)
	}
	env := recvOne(t, e2.Receive(), time.Second)
	if env.From != 1 || string(env.Payload) != "direct" {
		t.Fatalf("got %+v", env)
	}

	if err := e2.Broadcast(context.Background(), network.Envelope{Payload: []byte("all")}); err != nil {
		t.Fatal(err)
	}
	for _, ep := range []network.P2P{e1, e3} {
		env := recvOne(t, ep.Receive(), time.Second)
		if env.From != 2 || string(env.Payload) != "all" {
			t.Fatalf("got %+v", env)
		}
	}
	if err := e1.Send(context.Background(), 9, network.Envelope{}); err == nil {
		t.Fatal("send to unknown node accepted")
	}
}

func TestLatencyIsApplied(t *testing.T) {
	const delay = 30 * time.Millisecond
	hub := NewHub(2, Options{Latency: Uniform(delay)})
	defer hub.Close()
	start := time.Now()
	if err := hub.Endpoint(1).Send(context.Background(), 2, network.Envelope{Payload: []byte("x")}); err != nil {
		t.Fatal(err)
	}
	recvOne(t, hub.Endpoint(2).Receive(), time.Second)
	if elapsed := time.Since(start); elapsed < delay {
		t.Fatalf("delivered in %v, want >= %v", elapsed, delay)
	}
}

func TestPerLinkFIFOUnderJitter(t *testing.T) {
	hub := NewHub(2, Options{Latency: Uniform(2 * time.Millisecond), JitterFrac: 1.0, Seed: 3})
	defer hub.Close()
	const msgs = 25
	for i := 0; i < msgs; i++ {
		if err := hub.Endpoint(1).Send(context.Background(), 2, network.Envelope{
			Payload: []byte(fmt.Sprintf("%02d", i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < msgs; i++ {
		env := recvOne(t, hub.Endpoint(2).Receive(), time.Second)
		want := fmt.Sprintf("%02d", i)
		if string(env.Payload) != want {
			t.Fatalf("position %d: got %s, want %s (per-link FIFO violated)", i, env.Payload, want)
		}
	}
}

func TestCrashAndRestart(t *testing.T) {
	hub := NewHub(2, Options{})
	defer hub.Close()
	hub.Crash(2)
	// A send toward a crashed node waits in the link's window (the
	// "writer" is stuck redialing the dead peer, as over TCP); nothing
	// is delivered while the node is down.
	if err := hub.Endpoint(1).Send(context.Background(), 2, network.Envelope{Payload: []byte("queued")}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-hub.Endpoint(2).Receive():
		t.Fatalf("crashed node received %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
	if st, ok := hub.Endpoint(1).TransportStats().Peer(2); !ok || st.State != network.PeerDown {
		t.Fatalf("crashed peer stats = %+v, want Down", st)
	}
	hub.Restart(2)
	if err := hub.Endpoint(1).Send(context.Background(), 2, network.Envelope{Payload: []byte("back")}); err != nil {
		t.Fatal(err)
	}
	// The backlog drains in order after the restart, like a TCP
	// reconnect replaying the peer's ack window.
	env := recvOne(t, hub.Endpoint(2).Receive(), time.Second)
	if string(env.Payload) != "queued" {
		t.Fatalf("got %+v, want the queued frame first", env)
	}
	env = recvOne(t, hub.Endpoint(2).Receive(), time.Second)
	if string(env.Payload) != "back" {
		t.Fatalf("got %+v", env)
	}
}

func TestDropFilterLossIsRepairedByResend(t *testing.T) {
	// DropIf models in-flight loss (a frame written to the kernel just
	// before the peer dies). The ack layer repairs it: while the filter
	// holds, nothing after the gap is delivered either (per-link order);
	// once it lifts, the resend timer redelivers the lost frame and the
	// stream resumes in order, with nothing duplicated. Each resend pass
	// comes a ResendTimeout after the last and writes the two frames at
	// most once, which bounds the resends.
	const resendTimeout = 10 * time.Millisecond
	start := time.Now()
	hub := NewHub(2, Options{AckInterval: 2 * time.Millisecond, ResendTimeout: resendTimeout})
	defer hub.Close()
	hub.DropIf(func(env network.Envelope) bool { return env.Instance == "drop-me" })
	if err := hub.Endpoint(1).Send(context.Background(), 2, network.Envelope{Instance: "drop-me"}); err != nil {
		t.Fatal(err)
	}
	if err := hub.Endpoint(1).Send(context.Background(), 2, network.Envelope{Instance: "keep"}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-hub.Endpoint(2).Receive():
		t.Fatalf("delivery slipped past the dropped frame: %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
	hub.DropIf(nil)
	env := recvOne(t, hub.Endpoint(2).Receive(), 2*time.Second)
	if env.Instance != "drop-me" {
		t.Fatalf("got %+v, want the resent frame first (per-link order)", env)
	}
	env = recvOne(t, hub.Endpoint(2).Receive(), 2*time.Second)
	if env.Instance != "keep" {
		t.Fatalf("got %+v, want the held-back frame next", env)
	}
	select {
	case env := <-hub.Endpoint(2).Receive():
		t.Fatalf("duplicate delivered: %+v", env)
	case <-time.After(50 * time.Millisecond):
	}
	st, _ := hub.Endpoint(1).TransportStats().Peer(2)
	passes := uint64(time.Since(start)/resendTimeout) + 1
	if st.Resent == 0 || st.Resent > 2*passes {
		t.Fatalf("resent %d frames in at most %d passes, want 1..%d", st.Resent, passes, 2*passes)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	hub := NewHub(2, Options{})
	hub.Close()
	hub.Close() // second close must not panic
}
