package orchestration

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/schemes/sh00"
)

// cluster is an in-process Θ-network for tests.
type cluster struct {
	hub     *memnet.Hub
	nodes   []*keys.Keystore
	engines []*Engine
}

// newCluster builds the Θ-network, every node with its identity;
// optional mutators tune every node's engine config (retention, queue,
// workers) before start.
func newCluster(t testing.TB, tt, n int, opts memnet.Options, mutate ...func(*Config)) *cluster {
	t.Helper()
	nodes, err := keys.Deal(rand.Reader, tt, n, keys.Options{
		RSABits: 512, UseRSAFixture: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, roster, err := identity.GenerateMesh(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(n, opts)
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		cfg := Config{
			Keys:     nodes[i],
			Net:      hub.Endpoint(i + 1),
			Identity: ids[i],
			Roster:   roster,
		}
		for _, m := range mutate {
			m(&cfg)
		}
		engines[i] = New(cfg)
	}
	c := &cluster{hub: hub, nodes: nodes, engines: engines}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
		}
		hub.Close()
	})
	return c
}

// submitAll submits the request on every engine (the replicated-service
// deployment model) and returns all futures.
func (c *cluster) submitAll(t testing.TB, req protocols.Request) []*Future {
	t.Helper()
	futures := make([]*Future, len(c.engines))
	for i, e := range c.engines {
		f, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		futures[i] = f
	}
	return futures
}

func waitAll(t testing.TB, futures []*Future) []Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := make([]Result, len(futures))
	for i, f := range futures {
		r, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("future %d: %v", i, err)
		}
		if r.Err != nil {
			t.Fatalf("future %d: result error: %v", i, r.Err)
		}
		results[i] = r
	}
	return results
}

func TestAllSchemesEndToEnd(t *testing.T) {
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{Latency: 200 * time.Microsecond})

	cases := []struct {
		name string
		req  func() protocols.Request
		chk  func(t *testing.T, value []byte)
	}{
		{
			name: "SG02 decrypt",
			req: func() protocols.Request {
				ct, err := sg02.Encrypt(rand.Reader, keys.MustPublic[*sg02.PublicKey](c.nodes[0], schemes.SG02), []byte("front-running tx"), []byte("L"))
				if err != nil {
					t.Fatal(err)
				}
				return protocols.Request{Scheme: schemes.SG02, Op: protocols.OpDecrypt, Payload: ct.Marshal()}
			},
			chk: func(t *testing.T, v []byte) {
				if string(v) != "front-running tx" {
					t.Fatalf("decrypted %q", v)
				}
			},
		},
		{
			name: "BLS04 sign",
			req: func() protocols.Request {
				return protocols.Request{Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: []byte("blk")}
			},
			chk: func(t *testing.T, v []byte) {
				sig, err := bls04.UnmarshalSignature(v)
				if err != nil {
					t.Fatal(err)
				}
				if err := bls04.Verify(keys.MustPublic[*bls04.PublicKey](c.nodes[0], schemes.BLS04), []byte("blk"), sig); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "SH00 sign",
			req: func() protocols.Request {
				return protocols.Request{Scheme: schemes.SH00, Op: protocols.OpSign, Payload: []byte("cert")}
			},
			chk: func(t *testing.T, v []byte) {
				sig, err := sh00.UnmarshalSignature(v)
				if err != nil {
					t.Fatal(err)
				}
				if err := sh00.Verify(keys.MustPublic[*sh00.PublicKey](c.nodes[0], schemes.SH00), []byte("cert"), sig); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "KG20 sign",
			req: func() protocols.Request {
				return protocols.Request{Scheme: schemes.KG20, Op: protocols.OpSign, Payload: []byte("wallet tx")}
			},
			chk: func(t *testing.T, v []byte) {
				sig, err := frost.UnmarshalSignature(keys.MustPublic[*frost.PublicKey](c.nodes[0], schemes.KG20).Group, v)
				if err != nil {
					t.Fatal(err)
				}
				if err := frost.Verify(keys.MustPublic[*frost.PublicKey](c.nodes[0], schemes.KG20), []byte("wallet tx"), sig); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "CKS05 coin",
			req: func() protocols.Request {
				return protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("round-3")}
			},
			chk: func(t *testing.T, v []byte) {
				if len(v) != 32 {
					t.Fatalf("coin value %d bytes", len(v))
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := waitAll(t, c.submitAll(t, tc.req()))
			// Every node produced the same result.
			first := results[0].Value
			for i, r := range results[1:] {
				if hex.EncodeToString(r.Value) != hex.EncodeToString(first) {
					t.Fatalf("node %d result differs", i+2)
				}
			}
			tc.chk(t, first)
		})
	}
}

// TestStopAndCancelRefuseSubmissions: a submission under an ended
// context returns the context's error, a wait under one returns it too,
// and once the engine is stopped (Stop is idempotent) every submission
// fails with ErrStopped.
func TestStopAndCancelRefuseSubmissions(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{})
	e := c.engines[0]
	req := protocols.Request{Scheme: schemes.KG20, Op: protocols.OpSign, Payload: []byte("refused")}
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Submit(ended, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("submit under an ended context: %v", err)
	}
	if _, err := (&Future{ch: make(chan Result, 1)}).Wait(ended); !errors.Is(err, context.Canceled) {
		t.Fatalf("wait under an ended context: %v", err)
	}
	e.Stop()
	e.Stop()
	if _, err := e.Submit(context.Background(), req); !errors.Is(err, ErrStopped) {
		t.Fatalf("submit after Stop: %v", err)
	}
}

func TestBZ03EndToEnd(t *testing.T) {
	// BZ03 runs separately: its pairing-heavy verification is the
	// slowest path and deserves its own timeout budget.
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{})
	ct, err := bz03.Encrypt(rand.Reader, keys.MustPublic[*bz03.PublicKey](c.nodes[0], schemes.BZ03), []byte("pairing payload"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req := protocols.Request{Scheme: schemes.BZ03, Op: protocols.OpDecrypt, Payload: ct.Marshal()}
	results := waitAll(t, c.submitAll(t, req))
	if string(results[0].Value) != "pairing payload" {
		t.Fatalf("decrypted %q", results[0].Value)
	}
}

func TestSingleNodeSubmissionPropagates(t *testing.T) {
	// A request submitted at ONE node must still complete everywhere via
	// the start announcement.
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{Latency: 100 * time.Microsecond})
	req := protocols.Request{Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: []byte("solo")}
	f, err := c.engines[2].Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r, err := f.Wait(ctx)
	if err != nil || r.Err != nil {
		t.Fatalf("wait: %v / %v", err, r.Err)
	}
	sig, err := bls04.UnmarshalSignature(r.Value)
	if err != nil {
		t.Fatal(err)
	}
	if err := bls04.Verify(keys.MustPublic[*bls04.PublicKey](c.nodes[0], schemes.BLS04), []byte("solo"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestToleratesCrashedNodes(t *testing.T) {
	// With t = 1 and n = 4, one crashed node must not block progress for
	// non-interactive schemes.
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{})
	c.hub.Crash(4)
	req := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("crashed")}
	futures := make([]*Future, 0, 3)
	for _, e := range c.engines[:3] {
		f, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	waitAll(t, futures)
}

// TestCrashedNodeNeverSlowsRequests is the t-fault contract at the
// engine: with node 4 of a t = 1, n = 4 cluster crashed, 600
// sequential CKS05 coins on nodes 1-3 each finish within 1 s. They
// stage far more than the 1 024 frames each live node's window toward
// the dead node holds, so past that the broadcasts toward it are
// refused at once and counted as partial.
func TestCrashedNodeNeverSlowsRequests(t *testing.T) {
	const tt, n, requests = 1, 4, 600
	c := newCluster(t, tt, n, memnet.Options{})
	c.hub.Crash(4)
	for i := 0; i < requests; i++ {
		req := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte(fmt.Sprintf("coin-%d", i))}
		start := time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		for j, e := range c.engines[:3] {
			f, err := e.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if r, err := f.Wait(ctx); err != nil || r.Err != nil {
				t.Fatalf("request %d on node %d: %v / %v", i, j+1, err, r.Err)
			}
		}
		cancel()
		if d := time.Since(start); d > time.Second {
			t.Fatalf("request %d took %v with node 4 crashed", i, d)
		}
	}
	if st := c.engines[0].Stats(); st.PartialBroadcasts == 0 {
		t.Fatalf("stats %+v: no broadcast was refused by the dead node's full window", st)
	}
}

func TestCorruptSharesDoNotBlockProgress(t *testing.T) {
	// A Byzantine node sending garbage shares is detected (rejected
	// share callback) and the remaining honest quorum still completes.
	const tt, n = 1, 4
	nodes, err := keys.Deal(rand.Reader, tt, n, keys.Options{RSABits: 512, UseRSAFixture: true})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(n, memnet.Options{})
	defer hub.Close()

	var mu sync.Mutex
	rejected := 0
	engines := make([]*Engine, 0, 3)
	for i := 0; i < 3; i++ { // node 4 is the adversary, no engine
		engines = append(engines, New(Config{
			Keys: nodes[i],
			Net:  hub.Endpoint(i + 1),
			OnRejectedShare: func(string, error) {
				mu.Lock()
				rejected++
				mu.Unlock()
			},
		}))
	}
	defer func() {
		for _, e := range engines {
			e.Stop()
		}
	}()

	req := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("byz")}
	// The adversary floods garbage for the instance before honest nodes
	// even start it.
	adv := hub.Endpoint(4)
	garbage := network.Envelope{
		Instance: req.InstanceID(),
		Kind:     network.KindProto,
		Round:    1,
		Gen:      1,
		Payload:  []byte("not a share"),
	}
	if err := adv.Broadcast(context.Background(), garbage); err != nil {
		t.Fatal(err)
	}
	// "Before" has to be made true: the garbage travels its own links,
	// and a share that reaches an instance after it finished is dropped
	// unparsed, which a coin does within a couple of link hops.
	for _, e := range engines {
		e := e
		waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 1 },
			"garbage share never reached the engine")
	}

	futures := make([]*Future, 0, 3)
	for _, e := range engines {
		f, err := e.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		futures = append(futures, f)
	}
	waitAll(t, futures)
	mu.Lock()
	defer mu.Unlock()
	if rejected == 0 {
		t.Fatal("garbage shares were not surfaced to the rejection hook")
	}
}

func TestDuplicateSubmissionJoinsInstance(t *testing.T) {
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{})
	req := protocols.Request{Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: []byte("dup")}
	f1, _ := c.engines[0].Submit(context.Background(), req)
	f2, _ := c.engines[0].Submit(context.Background(), req)
	waitAll(t, []*Future{f1})
	_ = f2 // second future may or may not fire; the engine must not deadlock
	if c.engines[0].InstanceCount() != 1 {
		t.Fatalf("duplicate submission created %d instances", c.engines[0].InstanceCount())
	}
}

func TestSessionsSeparateInstances(t *testing.T) {
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{})
	r1 := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("x"), Session: "a"}
	r2 := protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("x"), Session: "b"}
	if r1.InstanceID() == r2.InstanceID() {
		t.Fatal("sessions share an instance ID")
	}
	res1 := waitAll(t, c.submitAll(t, r1))
	res2 := waitAll(t, c.submitAll(t, r2))
	// Same coin name means the same coin value, even across sessions:
	// CKS05 is a deterministic function of the name.
	if hex.EncodeToString(res1[0].Value) != hex.EncodeToString(res2[0].Value) {
		t.Fatal("coin value changed across sessions")
	}
}

// TestSubmitBatch drives a batch of coin requests through one engine
// hand-off: all instances finish, duplicate flags reflect idempotent
// re-submission, and futures deliver in request order.
func TestSubmitBatch(t *testing.T) {
	c := newCluster(t, 1, 4, memnet.Options{})
	reqs := make([]protocols.Request, 8)
	for i := range reqs {
		reqs[i] = protocols.Request{
			Scheme:  schemes.CKS05,
			Op:      protocols.OpCoin,
			Payload: []byte("batch-coin"),
			Session: hex.EncodeToString([]byte{byte(i)}),
		}
	}
	subs, err := c.engines[0].SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(subs) != len(reqs) {
		t.Fatalf("got %d submissions for %d requests", len(subs), len(reqs))
	}
	for i, sub := range subs {
		if sub.Duplicate {
			t.Fatalf("fresh request %d flagged duplicate", i)
		}
		if sub.InstanceID != reqs[i].InstanceID() {
			t.Fatalf("submission %d id mismatch", i)
		}
		res, err := sub.Future.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("request %d failed: %v", i, res.Err)
		}
		if len(res.Value) == 0 {
			t.Fatalf("request %d produced empty coin", i)
		}
	}

	// Re-submitting the same batch joins the existing instances.
	resubs, err := c.engines[0].SubmitBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, sub := range resubs {
		if !sub.Duplicate {
			t.Fatalf("re-submission %d not flagged duplicate", i)
		}
		res, err := sub.Future.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Err != nil {
			t.Fatalf("re-submission %d failed: %v", i, res.Err)
		}
	}

	// Identical requests inside one batch share an instance; the second
	// occurrence is the duplicate.
	twice := []protocols.Request{reqs[0], reqs[0]}
	twin, err := c.engines[1].SubmitBatch(context.Background(), twice)
	if err != nil {
		t.Fatal(err)
	}
	if !twin[1].Duplicate {
		t.Fatal("in-batch duplicate not flagged")
	}
	if twin[0].InstanceID != twin[1].InstanceID {
		t.Fatal("in-batch duplicate got a different instance")
	}
}

// TestKeygenThroughEngines runs a full on-demand DKG through the
// engines and immediately signs under the new key — the engine-level
// half of the keychain contract: all nodes install the same key, the
// keygen result is the key ID, and the follow-up instance resolves
// even when its start announcement races a peer's still-finalizing
// DKG (the deferForKey retry path).
func TestKeygenThroughEngines(t *testing.T) {
	const tt, n = 1, 4
	c := newCluster(t, tt, n, memnet.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	gen := protocols.Request{Scheme: schemes.KG20, KeyID: "engine-made", Op: protocols.OpKeyGen}
	f, err := c.engines[0].Submit(ctx, gen)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || string(res.Value) != "engine-made" {
		t.Fatalf("keygen result: %+v", res)
	}
	// Node 1 installed; submit the follow-up sign IMMEDIATELY, without
	// waiting for the peers' own finalizations — peers whose keystore
	// lags must park the start announcement and retry, not fail.
	sign := protocols.Request{Scheme: schemes.KG20, KeyID: "engine-made", Op: protocols.OpSign, Payload: []byte("raced")}
	sf, err := c.engines[0].Submit(ctx, sign)
	if err != nil {
		t.Fatal(err)
	}
	sres, err := sf.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if sres.Err != nil {
		t.Fatalf("sign under fresh key: %v", sres.Err)
	}
	// Eventually every node agrees on the installed public key.
	deadline := time.Now().Add(10 * time.Second)
	ref, err := keys.Public[*frost.PublicKey](c.nodes[0], schemes.KG20, "engine-made")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		for {
			pk, err := keys.Public[*frost.PublicKey](c.nodes[i], schemes.KG20, "engine-made")
			if err == nil {
				if !pk.Y.Equal(ref.Y) {
					t.Fatalf("node %d installed a different key", i+1)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never installed the key: %v", i+1, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	sig, err := frost.UnmarshalSignature(ref.Group, sres.Value)
	if err != nil {
		t.Fatal(err)
	}
	if err := frost.Verify(ref, []byte("raced"), sig); err != nil {
		t.Fatal(err)
	}
}

// TestKeygenWithoutIdentityFailsAtOnce: a dealing seals every
// sub-share to its recipient's identity, so on an engine built without
// one a keygen fails when its instance is created, naming the missing
// key, instead of waiting out its retention.
func TestKeygenWithoutIdentityFailsAtOnce(t *testing.T) {
	gen := protocols.Request{Scheme: schemes.KG20, KeyID: "no-identity", Op: protocols.OpKeyGen}
	if err := submitWithoutIdentity(t, gen); err == nil || !strings.Contains(err.Error(), "no identity key") {
		t.Fatalf("keygen without an identity = %v, want a prompt failure naming the identity key", err)
	}
}

// TestReshareWithoutIdentityFailsAtOnce: a reshare runs the same sealed
// dealing, so it is refused for the same reason and names it, not as a
// reshare the scheme or the spec cannot run.
func TestReshareWithoutIdentityFailsAtOnce(t *testing.T) {
	spec := protocols.ReshareSpec{NewT: 1, Members: []int{1, 2, 3, 4}}
	reshare := protocols.Request{Scheme: schemes.KG20, Op: protocols.OpReshare,
		Payload: spec.Marshal(), Epoch: keys.FirstEpoch}
	err := submitWithoutIdentity(t, reshare)
	if err == nil || !strings.Contains(err.Error(), "no identity key") {
		t.Fatalf("reshare without an identity = %v, want a prompt failure naming the identity key", err)
	}
	if errors.Is(err, protocols.ErrReshareUnsupported) {
		t.Fatalf("reshare without an identity = %v, reported as unsupported", err)
	}
}

// submitWithoutIdentity runs req on node 1 of a four-node cluster whose
// engines have no identity key and returns its error, giving it one
// second.
func submitWithoutIdentity(t *testing.T, req protocols.Request) error {
	c := newCluster(t, 1, 4, memnet.Options{}, func(cfg *Config) { cfg.Identity, cfg.Roster = nil, nil })
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	f, err := c.engines[0].Submit(ctx, req)
	if err == nil {
		var res Result
		if res, err = f.Wait(ctx); err == nil {
			err = res.Err
		}
	}
	return err
}

// TestStartForMissingKeyEventuallyFails pins the other side of the
// retry: a start announcement under a key that never materializes is
// not retried forever — after the retry budget the instance fails
// with the typed missing-key error, visible to watchers.
func TestStartForMissingKeyEventuallyFails(t *testing.T) {
	const tt, n = 1, 2
	c := newCluster(t, tt, n, memnet.Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	req := protocols.Request{Scheme: schemes.CKS05, KeyID: "never-installed", Op: protocols.OpCoin, Payload: []byte("x")}
	// Bypass the submit-path pre-check by injecting the start
	// announcement directly, as a peer would.
	env := network.Envelope{
		Instance: req.InstanceID(),
		Kind:     network.KindStart,
		Gen:      1,
		Payload:  req.Marshal(),
	}
	f := c.engines[0].Attach(req.InstanceID())
	c.engines[0].handle(event{env: &env})
	res, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Err, keys.ErrKeyUnknown) {
		t.Fatalf("want key-unknown failure, got %v", res.Err)
	}
}
