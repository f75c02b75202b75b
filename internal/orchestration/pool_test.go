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

// poolCluster builds a KG20 cluster with nonce pooling at the given
// depth on every node and a broadcast counter shared across them. The
// background pooler is effectively disabled (1h interval) so tests
// control warm-up explicitly through WarmNoncePools.
func poolCluster(t *testing.T, tt, n, depth int) (*cluster, *countingNet) {
	t.Helper()
	counter := &countingNet{mu: &sync.Mutex{}, counts: make(map[string]int)}
	c := newCluster(t, tt, n, memnet.Options{}, func(cfg *Config) {
		cfg.FrostPoolDepth = depth
		cfg.PoolInterval = time.Hour
		cfg.Net = &countingNet{P2P: cfg.Net, mu: counter.mu, counts: counter.counts}
	})
	return c, counter
}

func (c *countingNet) count(instance string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[instance]
}

// signOnce submits one KG20 sign on the first engine only (the
// announce/adopt deployment model) and returns the instance ID after
// verifying the signature.
func signOnce(t *testing.T, c *cluster, session string, msg []byte) string {
	t.Helper()
	return signOnceOn(t, c, 0, session, msg)
}

// signOnceOn is signOnce submitting on the engine with the given index.
func signOnceOn(t *testing.T, c *cluster, engine int, session string, msg []byte) string {
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

func warmPools(t *testing.T, c *cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, e := range c.engines {
		if err := e.WarmNoncePools(ctx); err != nil {
			t.Fatalf("engine %d warm: %v", i+1, err)
		}
	}
}

// TestFrostPooledSigningOneRound is the PR's headline claim: with a
// warm nonce pool, online FROST signing is ONE protocol message round —
// one broadcast per signer (the initiator's start and each follower's
// reply) — against two per signer on the classic path.
func TestFrostPooledSigningOneRound(t *testing.T) {
	const tt, n = 1, 4 // signer group {1, 2}
	c, counter := poolCluster(t, tt, n, 4)
	warmPools(t, c)

	id := signOnce(t, c, "pooled-1", []byte("one-round tx"))
	signers := tt + 1
	if got := counter.count(id); got != signers {
		t.Fatalf("pooled sign used %d protocol broadcasts, want %d (one per signer)", got, signers)
	}

	// The classic two-round path on the same topology, for contrast:
	// a cold pool (depth drained below) must still finish, at two
	// broadcasts per signer.
	st := c.engines[0].Stats().Crypto
	if st.NonceRefills == 0 {
		t.Fatal("warm-up did not refill the pool")
	}
	if st.NonceExhaustions != 0 {
		t.Fatalf("warm pool reported %d exhaustions", st.NonceExhaustions)
	}
}

// TestFrostColdPoolDegradesToTwoRounds: an exhausted (never warmed)
// pool must not fail the request — the protocol falls back to the
// classic two-round path, and the exhaustion is counted.
func TestFrostColdPoolDegradesToTwoRounds(t *testing.T) {
	const tt, n = 1, 4
	c, counter := poolCluster(t, tt, n, 4)
	// No warm-up: the initiator's Acquire fails and degrades.

	id := signOnce(t, c, "cold-1", []byte("two-round tx"))
	signers := tt + 1
	if got := counter.count(id); got != 2*signers {
		t.Fatalf("cold-pool sign used %d protocol broadcasts, want %d (two per signer)", got, 2*signers)
	}
	if st := c.engines[0].Stats().Crypto; st.NonceExhaustions == 0 {
		t.Fatal("cold-pool sign did not count an exhaustion")
	}
}

// TestFrostPooledNonSignerInitiator: a client may submit via a
// committee node OUTSIDE the fixed signer group (share index > t+1).
// Such a node banks no nonces and can never open a pooled round, so
// the signers must start the fresh two-round path spontaneously —
// deferring on a pooled start that never comes would stall the
// instance until expiry and fail the request.
func TestFrostPooledNonSignerInitiator(t *testing.T) {
	const tt, n = 1, 4 // signer group {1, 2}; node 3 is outside it
	c, counter := poolCluster(t, tt, n, 4)
	warmPools(t, c)

	id := signOnceOn(t, c, 2, "nonsigner-1", []byte("submitted via node 3"))
	signers := tt + 1
	if got := counter.count(id); got != 2*signers {
		t.Fatalf("non-signer-initiated sign used %d broadcasts, want %d (fresh two-round path)", got, 2*signers)
	}
	// The warm pool was not touched: no slot consumed, no exhaustion.
	if st := c.engines[0].Stats().Crypto; st.NonceExhaustions != 0 {
		t.Fatalf("non-signer initiator burned the pool: %d exhaustions", st.NonceExhaustions)
	}
}

// TestReshareInvalidatesPrecomputedMaterial is the precompute
// invalidation contract: nonces and coefficients banked under the old
// epoch are never used after a reshare — the first post-reshare sign
// degrades to the two-round path (stale material is unreachable, not
// silently reused), the signature still verifies under the unchanged
// public key, and a re-warmed pool restores the one-round path under
// the new epoch.
func TestReshareInvalidatesPrecomputedMaterial(t *testing.T) {
	const tt, n = 1, 4
	c, counter := poolCluster(t, tt, n, 4)
	warmPools(t, c)

	// Prime the Lagrange cache and the pool under epoch 1.
	preID := signOnce(t, c, "pre-reshare", []byte("epoch-1 tx"))
	if got := counter.count(preID); got != tt+1 {
		t.Fatalf("warm pre-reshare sign used %d broadcasts, want %d", got, tt+1)
	}

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

	// The reshare hook dropped the old-epoch banks: nothing usable
	// remains in any pool.
	for i, e := range c.engines {
		if d := e.Stats().Crypto.NoncePoolDepth; d != 0 {
			t.Fatalf("engine %d still banks %d nonces after reshare — stale material reachable", i+1, d)
		}
	}

	// First post-reshare sign: the epoch-2 pool is cold, so the run
	// must take the two-round path (never epoch-1 material) and still
	// produce a valid signature under the unchanged public key.
	postID := signOnce(t, c, "post-reshare", []byte("epoch-2 tx"))
	if got := counter.count(postID); got != 2*(tt+1) {
		t.Fatalf("post-reshare sign used %d broadcasts, want %d (stale pool must not serve)", got, 2*(tt+1))
	}

	// Re-warming banks under epoch 2 and restores the one-round path.
	warmPools(t, c)
	rewarmID := signOnce(t, c, "post-rewarm", []byte("epoch-2 pooled tx"))
	if got := counter.count(rewarmID); got != tt+1 {
		t.Fatalf("re-warmed sign used %d broadcasts, want %d", got, tt+1)
	}
}

// TestPoolerBackgroundRefill checks the engine's own maintenance loop:
// with a short interval the pool warms without any explicit call.
func TestPoolerBackgroundRefill(t *testing.T) {
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{}, func(cfg *Config) {
		cfg.FrostPoolDepth = 4
		cfg.PoolInterval = 20 * time.Millisecond
	})
	deadline := time.Now().Add(15 * time.Second)
	for {
		if c.engines[0].Stats().Crypto.NoncePoolDepth > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background pooler never refilled the pool")
		}
		time.Sleep(10 * time.Millisecond)
	}
	signOnce(t, c, "bg-1", []byte("background-warmed tx"))
}

// TestCryptoStatsFlow: the engine's stats snapshot carries the
// precompute counters (the /v2/info surface reads exactly this). A
// KG20 sign verifies its aggregate signature, not its shares, so it
// adds no batched relation; a CKS05 coin on the same cluster does.
func TestCryptoStatsFlow(t *testing.T) {
	const tt, n = 1, 4
	c, _ := poolCluster(t, tt, n, 4)
	warmPools(t, c)
	signOnce(t, c, "stats-1", []byte("counted tx"))

	st := c.engines[0].Stats().Crypto
	if st.NonceRefills == 0 {
		t.Fatalf("stats carry no refills: %+v", st)
	}
	if st.LagrangeHits+st.LagrangeMisses == 0 {
		t.Fatalf("stats carry no Lagrange traffic: %+v", st)
	}
	if st.BatchesVerified != 0 || st.BatchedRelations != 0 {
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
