package proxy_test

import (
	"context"
	"testing"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/network/proxy"
)

// TestProxyForwardsTransportStats pins the stats bridge: the node-side
// proxy client must report the host platform's peer links, not an empty
// snapshot, so /v2/info stays truthful behind the proxy.
func TestProxyForwardsTransportStats(t *testing.T) {
	hub := memnet.NewHub(3, memnet.Options{})
	defer hub.Close()
	inner := hub.Endpoint(1)

	srv, err := proxy.NewServer("127.0.0.1:0", inner, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client, err := proxy.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	want := inner.TransportStats()
	got := client.TransportStats()
	if len(got.Peers) != len(want.Peers) || len(got.Peers) == 0 {
		t.Fatalf("proxied snapshot has %d peers, host has %d", len(got.Peers), len(want.Peers))
	}
	if got.Reliable != want.Reliable {
		t.Fatalf("proxied reliability %v, host %v", got.Reliable, want.Reliable)
	}

	// Traffic through the proxy must show up in the forwarded counters.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	env := network.Envelope{From: 1, Instance: "stats", Kind: network.KindProto, Payload: []byte("x")}
	if err := client.Send(ctx, 2, env); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ps, ok := client.TransportStats().Peer(2)
		if ok && ps.Enqueued >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("send to peer 2 never surfaced in the proxied stats: %+v", ps)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// A second query on the same connection must still answer (the
	// request/reply cycle leaves no residue on the shared framing).
	if again := client.TransportStats(); len(again.Peers) != len(want.Peers) {
		t.Fatalf("second stats query degraded: %+v", again)
	}
}
