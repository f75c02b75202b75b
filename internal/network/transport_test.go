package network_test

import (
	"context"
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/network/proxy"
	"thetacrypt/internal/network/tcpnet"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

func TestEnvelopeMarshalRoundTrip(t *testing.T) {
	env := network.Envelope{
		From: 3, To: 0, Instance: "abc", Kind: network.KindProto, Round: 2,
		Payload: []byte("hello"),
	}
	got, err := network.UnmarshalEnvelope(env.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 3 || got.Instance != "abc" || got.Kind != network.KindProto ||
		got.Round != 2 || string(got.Payload) != "hello" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := network.UnmarshalEnvelope([]byte("junk")); err == nil {
		t.Fatal("junk envelope decoded")
	}
}

func TestTCPNetBasic(t *testing.T) {
	// Two-node mesh over real TCP sockets.
	t1, err := tcpnet.New(tcpnet.Config{Self: 1, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t1.Close()
	t2, err := tcpnet.New(tcpnet.Config{Self: 2, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer t2.Close()
	t1.SetPeer(2, t2.Addr())
	t2.SetPeer(1, t1.Addr())

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := t1.Send(ctx, 2, network.Envelope{Instance: "x", Kind: network.KindProto, Payload: []byte("ping")}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-t2.Receive():
		if string(env.Payload) != "ping" || env.From != 1 {
			t.Fatalf("got %+v", env)
		}
	case <-ctx.Done():
		t.Fatal("timed out waiting for envelope")
	}

	// Broadcast from node 2 reaches node 1.
	if err := t2.Broadcast(ctx, network.Envelope{Instance: "y", Kind: network.KindStart, Payload: []byte("pong")}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-t1.Receive():
		if string(env.Payload) != "pong" {
			t.Fatalf("got %+v", env)
		}
	case <-ctx.Done():
		t.Fatal("timed out waiting for broadcast")
	}
}

func TestFullClusterOverTCP(t *testing.T) {
	// A complete threshold signature over real TCP sockets.
	const tt, n = 1, 4
	nodes, err := keys.Deal(rand.Reader, tt, n, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	transports := make([]*tcpnet.Transport, n)
	for i := 0; i < n; i++ {
		tr, err := tcpnet.New(tcpnet.Config{Self: i + 1, ListenAddr: "127.0.0.1:0"})
		if err != nil {
			t.Fatal(err)
		}
		transports[i] = tr
		defer tr.Close()
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				transports[i].SetPeer(j+1, transports[j].Addr())
			}
		}
	}
	engines := make([]*orchestration.Engine, n)
	for i := 0; i < n; i++ {
		engines[i] = orchestration.New(orchestration.Config{
			Keys: nodes[i],
			Net:  transports[i],
		})
		defer engines[i].Stop()
	}
	req := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("tcp-coin")}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	f, err := engines[0].Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := f.Wait(ctx)
	if err != nil || r.Err != nil {
		t.Fatalf("wait: %v / %v", err, r.Err)
	}
	if len(r.Value) != 32 {
		t.Fatalf("coin value %d bytes", len(r.Value))
	}
}

func TestProxyBridgesP2P(t *testing.T) {
	// Node 1 talks through a proxy into a memnet "host platform" where
	// node 2 lives natively.
	hub := memnet.NewHub(2, memnet.Options{})
	defer hub.Close()

	srv, err := proxy.NewServer("127.0.0.1:0", hub.Endpoint(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := proxy.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// Outbound: proxied node sends into the host network.
	if err := client.Send(ctx, 2, network.Envelope{From: 1, Instance: "p", Kind: network.KindProto, Payload: []byte("via-proxy")}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-hub.Endpoint(2).Receive():
		if string(env.Payload) != "via-proxy" {
			t.Fatalf("got %+v", env)
		}
	case <-ctx.Done():
		t.Fatal("outbound proxy message lost")
	}

	// Inbound: host network delivery reaches the proxied node.
	if err := hub.Endpoint(2).Send(ctx, 1, network.Envelope{Instance: "p", Kind: network.KindProto, Payload: []byte("to-proxy")}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-client.Receive():
		if string(env.Payload) != "to-proxy" {
			t.Fatalf("got %+v", env)
		}
	case <-ctx.Done():
		t.Fatal("inbound proxy message lost")
	}
}

// ---------------------------------------------------------------------
// Conformance: the asynchronous per-peer pipeline (bounded outbound
// queues, writer goroutines, health states, full-queue policies) must
// behave identically over real TCP (tcpnet) and in-process (memnet).
// Each harness builds an n-node mesh and can take one node fully down:
// closing the tcpnet transport (dials refused, writers in dial-backoff)
// or crashing the memnet node (pumps stalled).

type transportHarness struct {
	name string
	// eps[i-1] is node i's endpoint.
	eps  []network.P2P
	kill func(i int)
	// restart brings a killed node back and returns its (possibly
	// fresh-incarnation) endpoint: a new tcpnet transport bound to the
	// same address, or the memnet node un-crashed.
	restart func(t *testing.T, i int) network.P2P
	stop    func()
}

// conformanceConfig tunes the per-peer queues and the ack layer of a
// harness. Zero ack fields select the transport defaults.
type conformanceConfig struct {
	outQueue      int
	policy        network.QueuePolicy
	ackWindow     int
	ackInterval   time.Duration
	resendTimeout time.Duration
}

func tcpHarness(t *testing.T, n int, cfg conformanceConfig) *transportHarness {
	t.Helper()
	mkTransport := func(self int, addr string) *tcpnet.Transport {
		tr, err := tcpnet.New(tcpnet.Config{
			Self:          self,
			ListenAddr:    addr,
			OutQueueLen:   cfg.outQueue,
			Policy:        cfg.policy,
			AckWindow:     cfg.ackWindow,
			AckInterval:   cfg.ackInterval,
			ResendTimeout: cfg.resendTimeout,
			// A long retry keeps a dead peer's writer parked in backoff
			// for the duration of the assertions; short enough that a
			// restarted peer is re-dialed within the test window.
			DialRetry:      250 * time.Millisecond,
			DialBackoffMax: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	transports := make([]*tcpnet.Transport, n)
	for i := 0; i < n; i++ {
		transports[i] = mkTransport(i+1, "127.0.0.1:0")
	}
	addrs := make([]string, n)
	for i, tr := range transports {
		addrs[i] = tr.Addr()
	}
	wire := func(i int) {
		for j := 0; j < n; j++ {
			if i != j {
				transports[i].SetPeer(j+1, addrs[j])
				transports[j].SetPeer(i+1, addrs[i])
			}
		}
	}
	for i := 0; i < n; i++ {
		wire(i)
	}
	eps := make([]network.P2P, n)
	for i, tr := range transports {
		eps[i] = tr
	}
	return &transportHarness{
		name: "tcpnet",
		eps:  eps,
		kill: func(i int) { _ = transports[i-1].Close() },
		restart: func(t *testing.T, i int) network.P2P {
			// Rebind the same address: the peers' writers re-dial it and
			// the ack layer resends everything unacknowledged to the
			// fresh incarnation.
			tr := mkTransport(i, addrs[i-1])
			transports[i-1] = tr
			eps[i-1] = tr
			wire(i - 1)
			return tr
		},
		stop: func() {
			for _, tr := range transports {
				_ = tr.Close()
			}
		},
	}
}

func memHarness(t *testing.T, n int, cfg conformanceConfig) *transportHarness {
	t.Helper()
	hub := memnet.NewHub(n, memnet.Options{
		OutQueueLen:   cfg.outQueue,
		Policy:        cfg.policy,
		AckWindow:     cfg.ackWindow,
		AckInterval:   cfg.ackInterval,
		ResendTimeout: cfg.resendTimeout,
	})
	eps := make([]network.P2P, n)
	for i := 0; i < n; i++ {
		eps[i] = hub.Endpoint(i + 1)
	}
	return &transportHarness{
		name: "memnet",
		eps:  eps,
		kill: hub.Crash,
		restart: func(t *testing.T, i int) network.P2P {
			hub.Restart(i)
			return eps[i-1]
		},
		stop: hub.Close,
	}
}

// forEachTransport runs one conformance test against both transports.
func forEachTransport(t *testing.T, n int, cfg conformanceConfig, run func(t *testing.T, h *transportHarness)) {
	t.Helper()
	builders := []func(*testing.T, int, conformanceConfig) *transportHarness{tcpHarness, memHarness}
	for _, build := range builders {
		h := build(t, n, cfg)
		t.Run(h.name, func(t *testing.T) {
			defer h.stop()
			run(t, h)
		})
	}
}

// pollPeer waits until cond holds for node from's view of node peer.
func pollPeer(t *testing.T, ep network.P2P, peer int, d time.Duration, cond func(network.PeerStats) bool, msg string) network.PeerStats {
	t.Helper()
	deadline := time.Now().Add(d)
	var last network.PeerStats
	for time.Now().Before(deadline) {
		if ps, ok := ep.TransportStats().Peer(peer); ok {
			last = ps
			if cond(ps) {
				return ps
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("%s; last stats: %+v", msg, last)
	return network.PeerStats{}
}

// TestDeadPeerDoesNotDelayBroadcast is the regression test for the
// synchronous-transport stall: with one node fully down and its link in
// dial-backoff, Broadcast from a healthy node must enqueue in O(1) —
// bounded well under 50ms — and still deliver to the healthy peers,
// while TransportStats reports the dead peer failing (never Up) with
// traffic backed up behind it.
func TestDeadPeerDoesNotDelayBroadcast(t *testing.T) {
	forEachTransport(t, 3, conformanceConfig{outQueue: 64}, func(t *testing.T, h *transportHarness) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.kill(3)

		// Prime the dead link so its writer observes the outage.
		for i := 0; i < 3; i++ {
			if err := h.eps[0].Send(ctx, 3, network.Envelope{Instance: "prime", Kind: network.KindProto}); err != nil {
				t.Fatal(err)
			}
		}
		// Wait for a recorded failure, not for the Down state: tcpnet
		// peers are constructed Down, so the state alone can read Down
		// before the first dial ever ran.
		pollPeer(t, h.eps[0], 3, 8*time.Second, func(ps network.PeerStats) bool {
			return ps.ConsecutiveFailures >= 1 && ps.QueueDepth >= 1
		}, "dead peer never reported a failed attempt with a backed-up queue")

		// The broadcast must not wait on the dead peer's dialer.
		start := time.Now()
		if err := h.eps[0].Broadcast(ctx, network.Envelope{
			Instance: "alive", Kind: network.KindProto, Payload: []byte("quorum"),
		}); err != nil {
			t.Fatalf("broadcast with a dead peer errored: %v", err)
		}
		if enq := time.Since(start); enq > 50*time.Millisecond {
			t.Fatalf("broadcast enqueue took %v with a dead peer, want <50ms", enq)
		}

		// Healthy peers still receive it.
		select {
		case env := <-h.eps[1].Receive():
			if string(env.Payload) != "quorum" {
				t.Fatalf("healthy peer received %+v", env)
			}
		case <-ctx.Done():
			t.Fatal("healthy peer never received the broadcast")
		}

		// A link in backoff alternates Down and Dialing by design (every
		// redial attempt reports Dialing), so the claim is "never Up".
		ps, ok := h.eps[0].TransportStats().Peer(3)
		if !ok || ps.State == network.PeerUp {
			t.Fatalf("dead peer stats = %+v, want not Up", ps)
		}
		if ps.QueueDepth == 0 && ps.Dropped == 0 {
			t.Fatalf("dead peer stats = %+v, want nonzero queue depth or drops", ps)
		}
	})
}

// TestQueuePolicyDropOldest: on a full queue toward a dead peer, sends
// keep succeeding and the oldest frames are evicted, counted in the
// drop counter.
func TestQueuePolicyDropOldest(t *testing.T) {
	forEachTransport(t, 2, conformanceConfig{outQueue: 2, policy: network.PolicyDropOldest}, func(t *testing.T, h *transportHarness) {
		h.kill(2)
		ctx := context.Background()
		for i := 0; i < 8; i++ {
			if err := h.eps[0].Send(ctx, 2, network.Envelope{Instance: "d", Kind: network.KindProto, Round: i}); err != nil {
				t.Fatalf("drop-oldest send %d errored: %v", i, err)
			}
		}
		ps, ok := h.eps[0].TransportStats().Peer(2)
		if !ok || ps.Dropped == 0 {
			t.Fatalf("peer stats = %+v, want nonzero drops", ps)
		}
		if ps.QueueDepth > 2 {
			t.Fatalf("queue depth %d exceeds its cap 2", ps.QueueDepth)
		}
	})
}

// TestQueuePolicyFailFast: on a full queue toward a dead peer, sends
// fail immediately with the typed ErrPeerBacklogged attributed to the
// peer, and never block.
func TestQueuePolicyFailFast(t *testing.T) {
	forEachTransport(t, 2, conformanceConfig{outQueue: 2, policy: network.PolicyFailFast}, func(t *testing.T, h *transportHarness) {
		h.kill(2)
		ctx := context.Background()
		var sendErr error
		for i := 0; i < 6 && sendErr == nil; i++ {
			start := time.Now()
			sendErr = h.eps[0].Send(ctx, 2, network.Envelope{Instance: "f", Kind: network.KindProto, Round: i})
			if d := time.Since(start); d > time.Second {
				t.Fatalf("fail-fast send %d blocked for %v", i, d)
			}
		}
		if !errors.Is(sendErr, network.ErrPeerBacklogged) {
			t.Fatalf("overflow send returned %v, want ErrPeerBacklogged", sendErr)
		}
		var pe *network.PeerError
		if !errors.As(sendErr, &pe) || pe.Peer != 2 {
			t.Fatalf("overflow error %v not attributed to peer 2", sendErr)
		}
		if ps, ok := h.eps[0].TransportStats().Peer(2); !ok || ps.Dropped == 0 {
			t.Fatalf("peer stats = %+v, want nonzero drop counter", ps)
		}
	})
}

// TestQueuePolicyBlockCancelled: with the default block policy, a send
// into a full queue waits — and is released by its context deadline,
// not by the dead peer.
func TestQueuePolicyBlockCancelled(t *testing.T) {
	forEachTransport(t, 2, conformanceConfig{outQueue: 1, policy: network.PolicyBlock}, func(t *testing.T, h *transportHarness) {
		h.kill(2)
		// Fill: the writer parks one frame in its delivery retry, the
		// queue holds the next.
		for i := 0; i < 2; i++ {
			if err := h.eps[0].Send(context.Background(), 2, network.Envelope{Instance: "b", Kind: network.KindProto, Round: i}); err != nil {
				t.Fatalf("fill send %d: %v", i, err)
			}
		}
		pollPeer(t, h.eps[0], 2, 5*time.Second, func(ps network.PeerStats) bool {
			return ps.QueueDepth >= 1
		}, "queue toward the dead peer never filled")

		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		start := time.Now()
		err := h.eps[0].Send(ctx, 2, network.Envelope{Instance: "b", Kind: network.KindProto, Round: 99})
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("blocked send returned %v, want DeadlineExceeded", err)
		}
		if d := time.Since(start); d > 3*time.Second {
			t.Fatalf("blocked send held for %v past its 100ms deadline", d)
		}
	})
}

// collectRounds reads exactly want envelopes and returns their Round
// values, failing the test on timeout.
func collectRounds(t *testing.T, ch <-chan network.Envelope, want int, within time.Duration) []int {
	t.Helper()
	timeout := time.After(within)
	out := make([]int, 0, want)
	for len(out) < want {
		select {
		case env := <-ch:
			out = append(out, env.Round)
		case <-timeout:
			t.Fatalf("timed out after %d/%d deliveries (got %v)", len(out), want, out)
		}
	}
	return out
}

// checkExactlyOnce asserts rounds 1..want each appear exactly once.
func checkExactlyOnce(t *testing.T, rounds []int, want int) {
	t.Helper()
	seen := make(map[int]int)
	for _, r := range rounds {
		seen[r]++
	}
	for r := 1; r <= want; r++ {
		if seen[r] != 1 {
			t.Fatalf("round %d delivered %d times (all: %v)", r, seen[r], rounds)
		}
	}
}

// TestResendOnReconnectDeliversExactlyOnce is the acceptance test of
// the ack layer: one peer is killed mid-broadcast, the outbound queue
// toward it is far smaller than the burst (so drop-oldest definitively
// evicts most frames from the queue — the old loss path), and after the
// peer restarts every frame must still reach its engine exactly once:
// the in-flight window resends what the queue lost, and the receiver
// filters the duplicates and reordering that retransmission causes. On
// tcpnet the restart is a fresh transport incarnation on the same
// address (fresh epoch, empty inbound state); on memnet the crashed
// node resumes. The healthy peer must see exactly-once delivery
// throughout, unaffected by the retransmissions.
func TestResendOnReconnectDeliversExactlyOnce(t *testing.T) {
	const frames = 32
	cfg := conformanceConfig{
		outQueue:      4, // far smaller than the burst
		policy:        network.PolicyDropOldest,
		ackWindow:     128, // but the ack window covers it
		ackInterval:   5 * time.Millisecond,
		resendTimeout: 50 * time.Millisecond,
	}
	forEachTransport(t, 3, cfg, func(t *testing.T, h *transportHarness) {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		h.kill(2)
		for i := 1; i <= frames; i++ {
			if err := h.eps[0].Broadcast(ctx, network.Envelope{
				Instance: "exactly-once", Kind: network.KindProto, Round: i,
			}); err != nil {
				t.Fatalf("broadcast %d with a dead peer errored: %v", i, err)
			}
		}
		// The healthy peer receives the full burst exactly once even
		// though its small queue also dropped frames (recovered by
		// resend, deduplicated on arrival).
		checkExactlyOnce(t, collectRounds(t, h.eps[2].Receive(), frames, 20*time.Second), frames)

		ep2 := h.restart(t, 2)
		checkExactlyOnce(t, collectRounds(t, ep2.Receive(), frames, 30*time.Second), frames)
		// Grace period of several resend timeouts: retransmissions may
		// still be in flight, none may surface as a duplicate.
		select {
		case env := <-ep2.Receive():
			t.Fatalf("duplicate delivered after the full set: %+v", env)
		case <-time.After(300 * time.Millisecond):
		}

		// Sender-side accounting: the delivered-vs-sent gap closed, the
		// window drained, and recovery demonstrably used retransmission.
		ps := pollPeer(t, h.eps[0], 2, 10*time.Second, func(ps network.PeerStats) bool {
			return ps.Delivered >= frames && ps.Inflight == 0
		}, "sender never saw the full burst acknowledged")
		if ps.Resent == 0 {
			t.Fatalf("stats %+v: expected retransmissions after the crash", ps)
		}
	})
}

// TestBroadcastReportsPerPeerFailures: Broadcast attempts every peer
// and aggregates the failures into a typed multi-peer error naming each
// failed peer, while healthy peers still receive the frame.
func TestBroadcastReportsPerPeerFailures(t *testing.T) {
	forEachTransport(t, 3, conformanceConfig{outQueue: 1, policy: network.PolicyFailFast}, func(t *testing.T, h *transportHarness) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.kill(3)
		// Saturate the dead peer's queue so the broadcast's enqueue
		// fails for it.
		for i := 0; i < 4; i++ {
			_ = h.eps[0].Send(ctx, 3, network.Envelope{Instance: "sat", Kind: network.KindProto, Round: i})
		}
		pollPeer(t, h.eps[0], 3, 5*time.Second, func(ps network.PeerStats) bool {
			return ps.QueueDepth >= 1
		}, "dead peer queue never saturated")

		err := h.eps[0].Broadcast(ctx, network.Envelope{Instance: "multi", Kind: network.KindProto, Payload: []byte("m")})
		if err == nil {
			t.Fatal("broadcast with a saturated dead peer returned nil")
		}
		if !errors.Is(err, network.ErrPeerBacklogged) {
			t.Fatalf("broadcast error %v does not wrap ErrPeerBacklogged", err)
		}
		var be *network.BroadcastError
		if !errors.As(err, &be) {
			t.Fatalf("broadcast error %T is not a *BroadcastError", err)
		}
		if be.Peers != 2 || len(be.Failed) != 1 || be.Failed[0].Peer != 3 {
			t.Fatalf("broadcast error %+v, want 1/2 peers failed naming peer 3", be)
		}
		if got := network.FailedPeers(err); len(got) != 1 || got[0] != 3 {
			t.Fatalf("FailedPeers = %v, want [3]", got)
		}
		// The healthy peer was not held back by the failure.
		select {
		case env := <-h.eps[1].Receive():
			if env.Instance != "multi" {
				t.Fatalf("healthy peer received %+v", env)
			}
		case <-ctx.Done():
			t.Fatal("healthy peer never received the broadcast")
		}
	})
}
