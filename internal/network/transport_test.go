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
	"thetacrypt/internal/network/relink"
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
// Conformance: the asynchronous per-peer pipeline (ack windows, writer
// goroutines, health states, refusal past a full window) must behave
// identically over real TCP (tcpnet) and in-process (memnet).
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

// conformanceConfig tunes the ack layer of a harness. Zero fields
// select the transport defaults.
type conformanceConfig struct {
	ackInterval   time.Duration
	resendTimeout time.Duration
}

func tcpHarness(t *testing.T, n int, cfg conformanceConfig) *transportHarness {
	t.Helper()
	mkTransport := func(self int, addr string) *tcpnet.Transport {
		tr, err := tcpnet.New(tcpnet.Config{
			Self:          self,
			ListenAddr:    addr,
			AckInterval:   cfg.ackInterval,
			ResendTimeout: cfg.resendTimeout,
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
	forEachTransport(t, 3, conformanceConfig{}, func(t *testing.T, h *transportHarness) {
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

// TestFullWindowFailsFast: once a dead peer's window is full, sends to
// it fail immediately with the typed ErrPeerBacklogged attributed to
// the peer, and never block.
func TestFullWindowFailsFast(t *testing.T) {
	forEachTransport(t, 2, conformanceConfig{}, func(t *testing.T, h *transportHarness) {
		h.kill(2)
		ctx := context.Background()
		var sendErr error
		for i := 0; i <= relink.Window && sendErr == nil; i++ {
			start := time.Now()
			sendErr = h.eps[0].Send(ctx, 2, network.Envelope{Instance: "f", Kind: network.KindProto, Round: i})
			if d := time.Since(start); d > time.Second {
				t.Fatalf("send %d blocked for %v", i, d)
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

// TestDeadPeerWindowRefusesAtOnce is the t-fault contract at the
// transport: with one peer dead, 2 000 broadcasts sent back to back each
// return within 50 ms; the dead peer is refused exactly the 976 past its
// window, with ErrPeerBacklogged attributed to it and counted in
// Dropped; and after a restart it gets the first 1 024 exactly once and
// in order, then new traffic. The healthy peer is never refused inside
// its window, and it receives every frame it accepted, exactly once and
// in order. It is not promised all 2 000: a live peer is refused, like a
// dead one, a frame that finds 1 024 frames of its own unacknowledged,
// which a burst this fast may outrun its acknowledgements to reach.
func TestDeadPeerWindowRefusesAtOnce(t *testing.T) {
	const frames = 2000
	cfg := conformanceConfig{ackInterval: 5 * time.Millisecond, resendTimeout: 50 * time.Millisecond}
	forEachTransport(t, 3, cfg, func(t *testing.T, h *transportHarness) {
		h.kill(2)
		// A transport that waits for room fails the time bound instead
		// of hanging.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		refused := map[int]int{}
		var accepted []int // rounds the healthy peer accepted
		for round := 1; round <= frames; round++ {
			start := time.Now()
			err := h.eps[0].Broadcast(ctx, network.Envelope{Instance: "t-fault", Kind: network.KindProto, Round: round})
			if d := time.Since(start); d > 50*time.Millisecond {
				t.Fatalf("broadcast %d took %v with a dead peer", round, d)
			}
			failed := network.FailedPeers(err)
			if err != nil && !errors.Is(err, network.ErrPeerBacklogged) {
				t.Fatalf("broadcast %d: %v, want only backlogged peers", round, err)
			}
			if err != nil && round <= relink.Window {
				t.Fatalf("broadcast %d refused inside the window: %v", round, err)
			}
			healthy := true
			for _, p := range failed {
				refused[p]++
				healthy = healthy && p != 3
			}
			if healthy {
				accepted = append(accepted, round)
			}
		}
		if want := frames - relink.Window; refused[2] != want {
			t.Fatalf("dead peer refused %d broadcasts, want %d", refused[2], want)
		}
		rounds := collectRounds(t, h.eps[2].Receive(), len(accepted), 20*time.Second)
		for i, r := range rounds {
			if r != accepted[i] {
				t.Fatalf("healthy peer got round %d at position %d, want %d", r, i, accepted[i])
			}
		}
		select {
		case env := <-h.eps[2].Receive():
			t.Fatalf("healthy peer got round %d, which it refused or already had", env.Round)
		case <-time.After(100 * time.Millisecond):
		}
		if ps, _ := h.eps[0].TransportStats().Peer(2); ps.Dropped != uint64(refused[2]) {
			t.Fatalf("dead peer stats %+v, want %d dropped", ps, refused[2])
		}
		if ps, _ := h.eps[0].TransportStats().Peer(3); ps.Dropped != uint64(refused[3]) {
			t.Fatalf("healthy peer stats %+v, want %d dropped", ps, refused[3])
		}
		t.Logf("healthy peer accepted %d of %d", len(accepted), frames)

		ep2 := h.restart(t, 2)
		rounds = collectRounds(t, ep2.Receive(), relink.Window, 30*time.Second)
		for i, r := range rounds {
			if r != i+1 {
				t.Fatalf("revived peer got round %d at position %d, want %d", r, i, i+1)
			}
		}
		pollPeer(t, h.eps[0], 2, 10*time.Second, func(ps network.PeerStats) bool {
			return ps.Inflight == 0
		}, "revived peer never acknowledged the window")
		if err := h.eps[0].Send(ctx, 2, network.Envelope{Instance: "t-fault", Kind: network.KindProto, Round: frames + 1}); err != nil {
			t.Fatal(err)
		}
		if got := collectRounds(t, ep2.Receive(), 1, 10*time.Second); got[0] != frames+1 {
			t.Fatalf("revived peer got round %d after the window, want the new frame %d", got[0], frames+1)
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
// the ack layer: one peer is killed mid-broadcast, and after it
// restarts every frame must still reach its engine exactly once: the
// window writes again what the dead link lost, and the receiver filters
// the duplicates and reordering that retransmission causes. On tcpnet
// the restart is a fresh transport incarnation on the same address
// (fresh epoch, empty inbound state); on memnet the crashed node
// resumes. The healthy peer must see exactly-once delivery throughout,
// unaffected by the retransmissions.
func TestResendOnReconnectDeliversExactlyOnce(t *testing.T) {
	const frames = 32
	cfg := conformanceConfig{
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
		// The healthy peer receives the full burst exactly once.
		checkExactlyOnce(t, collectRounds(t, h.eps[2].Receive(), frames, 20*time.Second), frames)

		// Stay down past the resend timeout: the window toward the dead
		// peer comes due, so whatever was written into the outage goes
		// out again after the restart and the revived peer must filter
		// the copies.
		time.Sleep(3 * cfg.resendTimeout)
		down, _ := h.eps[0].TransportStats().Peer(2)
		ep2 := h.restart(t, 2)
		checkExactlyOnce(t, collectRounds(t, ep2.Receive(), frames, 30*time.Second), frames)
		// Grace period of several resend timeouts: retransmissions may
		// still be in flight, none may surface as a duplicate.
		select {
		case env := <-ep2.Receive():
			t.Fatalf("duplicate delivered after the full set: %+v", env)
		case <-time.After(300 * time.Millisecond):
		}

		// Sender-side accounting: the window drained; every write was a
		// frame's first or a resend, so first writes number exactly the
		// burst; and every write made before the restart went into the
		// outage, so each was repaired by a resend. Whether a write
		// reached the dead peer before the restart at all is
		// scheduling, so no resend is demanded beyond those.
		ps := pollPeer(t, h.eps[0], 2, 10*time.Second, func(ps network.PeerStats) bool {
			return ps.Delivered >= frames && ps.Inflight == 0
		}, "sender never saw the full burst acknowledged")
		if ps.Sent-ps.Resent != frames || ps.Resent < down.Sent {
			t.Fatalf("stats %+v (%d written before the restart): want %d first writes and a resend for each write into the outage",
				ps, down.Sent, frames)
		}
	})
}

// TestPromptAckWhenHalfWindowOwed: a receiver that owes half a window
// acknowledges at once instead of on the ack tick, so a burst of 600
// frames, past half the window, is acknowledged at least up to frame
// 512 long before the 10 s tick, and 600 more fit in the window. Only
// the frames owed past the prompt acknowledgement wait for the tick:
// nothing tells the receiver that a burst has ended.
func TestPromptAckWhenHalfWindowOwed(t *testing.T) {
	const burst = 600
	cfg := conformanceConfig{ackInterval: 10 * time.Second, resendTimeout: 10 * time.Second}
	forEachTransport(t, 2, cfg, func(t *testing.T, h *transportHarness) {
		ctx := context.Background()
		sendAll := func(first int) {
			t.Helper()
			for r := first; r < first+burst; r++ {
				if err := h.eps[0].Send(ctx, 2, network.Envelope{Instance: "burst", Kind: network.KindProto, Round: r}); err != nil {
					t.Fatalf("send %d: %v", r, err)
				}
			}
			for i, r := range collectRounds(t, h.eps[1].Receive(), burst, 5*time.Second) {
				if r != first+i {
					t.Fatalf("round %d delivered at position %d, want %d", r, i, first+i)
				}
			}
		}
		sendAll(1)
		pollPeer(t, h.eps[0], 2, 2*time.Second, func(ps network.PeerStats) bool {
			return ps.Inflight <= burst-relink.Window/2
		}, "no acknowledgement came before the tick")
		sendAll(burst + 1)
	})
}

// TestBroadcastReportsPerPeerFailures: Broadcast attempts every peer
// and aggregates the failures into a typed multi-peer error naming each
// failed peer, while healthy peers still receive the frame.
func TestBroadcastReportsPerPeerFailures(t *testing.T) {
	forEachTransport(t, 3, conformanceConfig{}, func(t *testing.T, h *transportHarness) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		h.kill(3)
		// Fill the dead peer's window so the broadcast fails for it.
		for i := 0; i < relink.Window; i++ {
			_ = h.eps[0].Send(ctx, 3, network.Envelope{Instance: "sat", Kind: network.KindProto, Round: i})
		}
		pollPeer(t, h.eps[0], 3, 5*time.Second, func(ps network.PeerStats) bool {
			return ps.QueueDepth >= 1
		}, "dead peer window never backed up")

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
