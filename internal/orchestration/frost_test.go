package orchestration

import (
	"context"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/frost"
)

// countingNet wraps a P2P endpoint and counts engine-level protocol
// broadcasts per instance — the observable round count of a run (the
// reliability layer's resends happen below this wrapper and are not
// counted).
type countingNet struct {
	network.P2P
	mu     *sync.Mutex
	counts map[string]int
}

func (c *countingNet) Broadcast(ctx context.Context, env network.Envelope) error {
	if env.Kind == network.KindProto {
		c.mu.Lock()
		c.counts[env.Instance]++
		c.mu.Unlock()
	}
	return c.P2P.Broadcast(ctx, env)
}

func (c *countingNet) Send(ctx context.Context, to int, env network.Envelope) error {
	if env.Kind == network.KindProto {
		c.mu.Lock()
		c.counts[env.Instance]++
		c.mu.Unlock()
	}
	return c.P2P.Send(ctx, to, env)
}

func (c *countingNet) count(instance string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[instance]
}

// countingCluster builds a cluster whose engines share one protocol
// broadcast counter.
func countingCluster(t *testing.T, tt, n int) (*cluster, *countingNet) {
	t.Helper()
	counter := &countingNet{mu: &sync.Mutex{}, counts: make(map[string]int)}
	c := newCluster(t, tt, n, memnet.Options{}, func(cfg *Config) {
		cfg.Net = &countingNet{P2P: cfg.Net, mu: counter.mu, counts: counter.counts}
	})
	return c, counter
}

// signOn submits one KG20 sign on the engine with the given index only
// (the announce/adopt deployment model) and returns the instance ID
// after verifying the signature.
func signOn(t *testing.T, c *cluster, engine int, session string, msg []byte) string {
	t.Helper()
	req := protocols.Request{Scheme: schemes.KG20, Op: protocols.OpSign, Payload: msg, Session: session}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := c.engines[engine].Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatalf("sign failed: %v", res.Err)
	}
	pk := keys.MustPublic[*frost.PublicKey](c.nodes[0], schemes.KG20)
	sig, err := frost.UnmarshalSignature(pk.Group, res.Value)
	if err != nil {
		t.Fatal(err)
	}
	if err := frost.Verify(pk, msg, sig); err != nil {
		t.Fatalf("signature does not verify: %v", err)
	}
	return req.InstanceID()
}

// TestFrostBroadcastsPerSign pins the message cost of a KG20 sign: each
// of the t+1 signers broadcasts its round-1 commitment and its round-2
// share, so a sign takes exactly 2·(t+1) protocol broadcasts wherever
// it was submitted. The start announcement is not a protocol message.
func TestFrostBroadcastsPerSign(t *testing.T) {
	for _, tc := range []struct {
		name      string
		tt, n     int
		submitter int // engine index; the signer group is 1..t+1
	}{
		{"n4-t1-signer-node1", 1, 4, 0},
		{"n4-t1-nonsigner-node3", 1, 4, 2},
		{"n7-t2-signer-node1", 2, 7, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, counter := countingCluster(t, tc.tt, tc.n)
			id := signOn(t, c, tc.submitter, "count", []byte(tc.name))
			if got, want := counter.count(id), 2*(tc.tt+1); got != want {
				t.Fatalf("sign used %d protocol broadcasts, want %d (two per signer)", got, want)
			}
		})
	}
}

// TestReshareInvalidatesPrecomputedMaterial: a sign after a proactive
// refresh combines shares of the new epoch only — it still takes the
// two rounds and verifies under the unchanged public key.
func TestReshareInvalidatesPrecomputedMaterial(t *testing.T) {
	const tt, n = 1, 4
	c, counter := countingCluster(t, tt, n)
	pk := keys.MustPublic[*frost.PublicKey](c.nodes[0], schemes.KG20)
	signOn(t, c, 0, "pre-reshare", []byte("epoch-1 tx"))

	// Same-committee proactive refresh of the KG20 key: epoch 1 -> 2.
	members := make([]int, n)
	for i := range members {
		members[i] = i + 1
	}
	spec := protocols.ReshareSpec{NewT: tt, Members: members}
	reshare := protocols.Request{Scheme: schemes.KG20, Op: protocols.OpReshare,
		Payload: spec.Marshal(), Epoch: keys.FirstEpoch, Session: "refresh-1"}
	waitAll(t, c.submitAll(t, reshare))
	for i, nk := range c.nodes {
		k, err := nk.Get(schemes.KG20, "")
		if err != nil {
			t.Fatal(err)
		}
		if k.Epoch != keys.FirstEpoch+1 {
			t.Fatalf("node %d at epoch %d after reshare", i+1, k.Epoch)
		}
	}

	if now := keys.MustPublic[*frost.PublicKey](c.nodes[0], schemes.KG20); !now.Y.Equal(pk.Y) {
		t.Fatal("the refresh changed the group public key")
	}
	postID := signOn(t, c, 0, "post-reshare", []byte("epoch-2 tx"))
	if got := counter.count(postID); got != 2*(tt+1) {
		t.Fatalf("post-reshare sign used %d broadcasts, want %d", got, 2*(tt+1))
	}
}

// TestCryptoStatsFlow: the engine's stats snapshot carries the
// share-check counters (the /v2/info surface reads exactly this). A
// KG20 sign verifies its aggregate signature, not its shares, so it
// adds no batched relation; a CKS05 coin on the same cluster does.
func TestCryptoStatsFlow(t *testing.T) {
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{})
	signOn(t, c, 0, "stats-1", []byte("counted tx"))

	if st := c.engines[0].Stats().Crypto; st.BatchesVerified != 0 || st.BatchedRelations != 0 {
		t.Fatalf("a KG20 sign went through the batch verifier: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	f, err := c.engines[0].Submit(ctx, protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("stats-coin")})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := f.Wait(ctx); err != nil || res.Err != nil {
		t.Fatalf("coin failed: %v / %v", err, res.Err)
	}
	if st := c.engines[0].Stats().Crypto; st.BatchesVerified == 0 || st.BatchedRelations == 0 {
		t.Fatalf("stats carry no verified batches: %+v", st)
	}
}
