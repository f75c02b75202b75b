package tob

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
)

func newTOBClusterOn(t *testing.T, hub *memnet.Hub, n, leader int) []*Sequencer {
	t.Helper()
	seqs := make([]*Sequencer, n)
	for i := 1; i <= n; i++ {
		seqs[i-1] = New(hub.Endpoint(i), i, leader)
	}
	t.Cleanup(func() {
		for _, s := range seqs {
			_ = s.Close()
		}
	})
	return seqs
}

func newTOBCluster(t *testing.T, n, leader int) []*Sequencer {
	t.Helper()
	hub := memnet.NewHub(n, memnet.Options{Latency: memnet.Uniform(100 * time.Microsecond), JitterFrac: 0.5, Seed: 7})
	return newTOBClusterOn(t, hub, n, leader)
}

func collect(t *testing.T, s *Sequencer, count int) []string {
	t.Helper()
	out := make([]string, 0, count)
	timeout := time.After(10 * time.Second)
	for len(out) < count {
		select {
		case env := <-s.Delivered():
			out = append(out, string(env.Payload))
		case <-timeout:
			t.Fatalf("timed out after %d/%d deliveries", len(out), count)
		}
	}
	return out
}

func TestTotalOrder(t *testing.T) {
	const n, msgs = 4, 20
	seqs := newTOBCluster(t, n, 1)

	// Every node submits concurrently; all nodes must deliver the same
	// sequence.
	for i, s := range seqs {
		s := s
		i := i
		go func() {
			for m := 0; m < msgs; m++ {
				env := network.Envelope{
					Instance: "bcast",
					Payload:  []byte(fmt.Sprintf("n%d-m%d", i+1, m)),
				}
				if err := s.Submit(context.Background(), env); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
			}
		}()
	}
	total := n * msgs
	sequences := make([][]string, n)
	for i, s := range seqs {
		sequences[i] = collect(t, s, total)
	}
	for i := 1; i < n; i++ {
		for j := range sequences[0] {
			if sequences[i][j] != sequences[0][j] {
				t.Fatalf("node %d delivered %q at position %d, node 1 delivered %q",
					i+1, sequences[i][j], j, sequences[0][j])
			}
		}
	}
}

func TestLeaderSubmitsToo(t *testing.T) {
	seqs := newTOBCluster(t, 3, 2)
	if err := seqs[1].Submit(context.Background(), network.Envelope{Payload: []byte("from leader")}); err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		got := collect(t, s, 1)
		if got[0] != "from leader" {
			t.Fatalf("delivered %q", got[0])
		}
	}
}

func TestSenderOrderPreservedThroughSequencer(t *testing.T) {
	// A single submitter's messages must be delivered in submission
	// order (FIFO through the sequencer's per-link ordering).
	seqs := newTOBCluster(t, 3, 1)
	const msgs = 10
	for m := 0; m < msgs; m++ {
		if err := seqs[2].Submit(context.Background(), network.Envelope{
			Payload: []byte(fmt.Sprintf("m%02d", m)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, seqs[0], msgs)
	for m := 0; m < msgs; m++ {
		want := fmt.Sprintf("m%02d", m)
		if got[m] != want {
			t.Fatalf("position %d: got %q, want %q (FIFO violated)", m, got[m], want)
		}
	}
}

// TestCloseDuringLeaderSubmit races leader-side submissions (which
// deliver on the caller's goroutine) against Close. Before the
// delivery guard this panicked with "send on closed channel" whenever
// Close won the race while a submit was parked on the full out
// channel; the test drives that window repeatedly and must stay clean
// under -race.
func TestCloseDuringLeaderSubmit(t *testing.T) {
	const iterations = 150
	// Heavy oversubscription widens the racy window: a submitter must
	// be preempted between its closed-check and its channel send, and
	// stay descheduled until Close finishes.
	const submitters = 128
	for i := 0; i < iterations; i++ {
		hub := memnet.NewHub(1, memnet.Options{})
		s := New(hub.Endpoint(1), 1, 1)
		var wg sync.WaitGroup
		// A drainer keeps out unsaturated, so submitters are actively
		// sending — not parked — when Close lands.
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range s.Delivered() {
			}
		}()
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					err := s.Submit(context.Background(), network.Envelope{Payload: []byte("race")})
					if err != nil {
						if !errors.Is(err, ErrClosed) {
							t.Errorf("submit: %v", err)
						}
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(i%5) * 200 * time.Microsecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := s.Submit(context.Background(), network.Envelope{Payload: []byte("late")}); !errors.Is(err, ErrClosed) {
			t.Fatalf("submit after close: got %v, want ErrClosed", err)
		}
		hub.Close()
	}
}

// TestLeaderSubmitsPastCrashedFollower: with one follower crashed, the
// leader's submits never wait on it. 3 000 of them, back to back and
// well past the 1 024 frames the ack window toward each follower holds,
// complete promptly, and the live follower delivers every one of them
// in order: the leader waits for its acknowledgements instead of
// refusing it a frame.
func TestLeaderSubmitsPastCrashedFollower(t *testing.T) {
	const msgs = 3000
	hub := memnet.NewHub(3, memnet.Options{})
	seqs := newTOBClusterOn(t, hub, 3, 1)
	defer hub.Close()
	hub.Crash(3)
	done := make(chan error, 1)
	go func() {
		for m := 0; m < msgs; m++ {
			if err := seqs[0].Submit(context.Background(), network.Envelope{Payload: []byte(fmt.Sprintf("m%04d", m))}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var wg sync.WaitGroup
	for _, s := range seqs[:2] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			timeout := time.After(10 * time.Second)
			for m := 0; m < msgs; m++ {
				select {
				case env := <-s.Delivered():
					if want := fmt.Sprintf("m%04d", m); string(env.Payload) != want {
						t.Errorf("node %d delivered %q at %d, want %q", s.self, env.Payload, m, want)
						return
					}
				case <-timeout:
					t.Errorf("node %d delivered %d of %d", s.self, m, msgs)
					return
				}
			}
		}()
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("leader submit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader submits stalled behind the crashed follower")
	}
	wg.Wait()
	if ps, _ := hub.Endpoint(1).TransportStats().Peer(2); ps.Dropped != 0 {
		t.Fatalf("live follower stats %+v, want nothing refused", ps)
	}
	if ps, _ := hub.Endpoint(1).TransportStats().Peer(3); ps.Dropped != msgs-1024 {
		t.Fatalf("crashed follower stats %+v, want %d refused", ps, msgs-1024)
	}
}

// TestLeaderWaitEndsWithContext: a live follower whose
// acknowledgements stop coming back fills its window, and the leader's
// next submit waits for it. A submit whose context ends first orders
// nothing, so once the acknowledgements flow again the follower
// delivers everything with no gap.
func TestLeaderWaitEndsWithContext(t *testing.T) {
	hub := memnet.NewHub(2, memnet.Options{AckInterval: 2 * time.Millisecond, ResendTimeout: 20 * time.Millisecond})
	seqs := newTOBClusterOn(t, hub, 2, 1)
	defer hub.Close()
	go func() {
		for range seqs[0].Delivered() {
		}
	}()
	hub.DropIf(func(env network.Envelope) bool { return env.From == 2 && env.Kind == network.KindAck })
	for m := 0; m < 1024; m++ {
		if err := seqs[0].Submit(context.Background(), network.Envelope{Payload: []byte(fmt.Sprintf("m%04d", m))}); err != nil {
			t.Fatalf("submit %d: %v", m, err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := seqs[0].Submit(ctx, network.Envelope{Payload: []byte("lost")})
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("submit into a full live window returned %v, want the context's deadline", err)
	}
	hub.DropIf(nil)
	if err := seqs[0].Submit(context.Background(), network.Envelope{Payload: []byte("after")}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, seqs[1], 1025)
	for m, p := range got[:1024] {
		if want := fmt.Sprintf("m%04d", m); p != want {
			t.Fatalf("follower delivered %q at %d, want %q", p, m, want)
		}
	}
	if got[1024] != "after" {
		t.Fatalf("follower delivered %q last, want after", got[1024])
	}
}

func TestSubmitFailsFastWhenLeaderDown(t *testing.T) {
	hub := memnet.NewHub(3, memnet.Options{})
	seqs := newTOBClusterOn(t, hub, 3, 1)
	defer hub.Close()

	// Healthy: a follower submission is delivered everywhere.
	if err := seqs[2].Submit(context.Background(), network.Envelope{Payload: []byte("pre")}); err != nil {
		t.Fatal(err)
	}
	collect(t, seqs[1], 1)

	hub.Crash(1)
	time.Sleep(3 * leaderProbeInterval) // let the cached health verdict expire
	err := seqs[2].Submit(context.Background(), network.Envelope{Payload: []byte("lost")})
	if !errors.Is(err, ErrLeaderDown) {
		t.Fatalf("submit with a dead leader returned %v, want ErrLeaderDown", err)
	}
	// The leader itself orders locally and is unaffected by its own
	// link state; followers recover once the leader is back.
	hub.Restart(1)
	time.Sleep(3 * leaderProbeInterval) // same: outlive the cached verdict
	if err := seqs[2].Submit(context.Background(), network.Envelope{Payload: []byte("post")}); err != nil {
		t.Fatalf("submit after leader restart: %v", err)
	}
	got := collect(t, seqs[1], 1)
	if got[0] != "post" {
		t.Fatalf("delivered %q after restart, want post", got[0])
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(1, 1, 4); err != nil {
		t.Fatal(err)
	}
	if err := Validate(0, 1, 4); err == nil {
		t.Fatal("self=0 accepted")
	}
	if err := Validate(1, 5, 4); err == nil {
		t.Fatal("leader out of range accepted")
	}
}
