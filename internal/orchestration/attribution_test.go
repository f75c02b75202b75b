package orchestration

import (
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/frost"
)

// dealOnly deals one scheme's keys for a 4-node committee at t=1.
func dealOnly(t *testing.T, id schemes.ID) []*keys.Keystore {
	t.Helper()
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{Schemes: []schemes.ID{id}})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// adversaryCluster runs engines on every node of a 4-node, t=1 mesh
// except bad, whose endpoint the test drives by hand. It returns the
// honest engines in node order and the rejections they reported.
func adversaryCluster(t *testing.T, nodes []*keys.Keystore, bad int, mutate func(*Config)) (*memnet.Hub, []*Engine, func() []error) {
	t.Helper()
	hub := memnet.NewHub(len(nodes), memnet.Options{})
	var mu sync.Mutex
	var rejections []error
	var engines []*Engine
	for i := range nodes {
		if i+1 == bad {
			continue
		}
		cfg := Config{
			Keys: nodes[i],
			Net:  hub.Endpoint(i + 1),
			OnRejectedShare: func(_ string, err error) {
				mu.Lock()
				rejections = append(rejections, err)
				mu.Unlock()
			},
		}
		if mutate != nil {
			mutate(&cfg)
		}
		engines = append(engines, New(cfg))
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
		}
		hub.Close()
	})
	return hub, engines, func() []error {
		mu.Lock()
		defer mu.Unlock()
		return append([]error(nil), rejections...)
	}
}

// checkAttributed asserts one rejection per honest engine, each naming
// sender and carrying cause.
func checkAttributed(t *testing.T, engines []*Engine, rejections []error, sender string, cause error) {
	t.Helper()
	for i, e := range engines {
		if got := e.Stats().RejectedShares; got != 1 {
			t.Fatalf("honest engine %d counted %d rejected shares, want 1", i+1, got)
		}
	}
	if len(rejections) != len(engines) {
		t.Fatalf("OnRejectedShare fired %d times, want once per honest node: %v", len(rejections), rejections)
	}
	for _, err := range rejections {
		if !errors.Is(err, protocols.ErrShareRejected) || !strings.Contains(err.Error(), "share from "+sender) ||
			!strings.Contains(err.Error(), cause.Error()) {
			t.Fatalf("rejection not attributed to node %s's invalid share: %v", sender, err)
		}
	}
}

// TestBLS04CorruptShareAttributed: node 4 sends a well-formed signature
// share with the wrong point, twice, before the quorum forms. Every
// honest node combines it with its own share, sees the signature fail,
// checks the one unchecked share, drops and names node 4, ignores the
// resend, and signs from the next honest share.
func TestBLS04CorruptShareAttributed(t *testing.T) {
	nodes := dealOnly(t, schemes.BLS04)
	pk := keys.MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04)
	hub, engines, rejections := adversaryCluster(t, nodes, 4, nil)

	msg := []byte("signs around the liar")
	req := protocols.Request{Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: msg}
	// Node 4's honest share of another message: a valid point, the
	// right index, and the wrong signature.
	ss := bls04.SignShare(keys.MustShare[bls04.KeyShare](nodes[3], schemes.BLS04), []byte("another message"))
	if err := bls04.VerifyShare(pk, msg, ss); !errors.Is(err, bls04.ErrInvalidShare) {
		t.Fatalf("corrupted share verifies: %v", err)
	}
	// Both copies park on a placeholder and are delivered right after
	// each node's own share, so the bad share completes the first quorum.
	for copies := 0; copies < 2; copies++ {
		if err := hub.Endpoint(4).Broadcast(context.Background(), network.Envelope{
			Instance: req.InstanceID(), Kind: network.KindProto, Round: 1, Gen: 1, Payload: ss.Marshal(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range engines {
		e := e
		waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 1 },
			"corrupted share never reached the engine")
	}
	futures := make([]*Future, len(engines))
	for i, e := range engines {
		var err error
		if futures[i], err = e.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range waitAll(t, futures) {
		if r.Err != nil {
			t.Fatalf("node %d: %v", i+1, r.Err)
		}
		sig, err := bls04.UnmarshalSignature(r.Value)
		if err != nil {
			t.Fatal(err)
		}
		if err := bls04.Verify(pk, msg, sig); err != nil {
			t.Fatalf("node %d released a bad signature: %v", i+1, err)
		}
	}
	checkAttributed(t, engines, rejections(), "4", bls04.ErrInvalidShare)
}

// TestKG20CorruptShareAttributed: signer 2 of the group {1, 2} sends a
// valid commitment and then its share with z+1. FROST is not robust:
// every honest node rejects and names signer 2 exactly once, and no
// node releases a signature; the instance expires. Nodes 3 and 4 hold
// no place in the signer group and only observe.
func TestKG20CorruptShareAttributed(t *testing.T) {
	nodes := dealOnly(t, schemes.KG20)
	pk := keys.MustPublic[*frost.PublicKey](nodes[0], schemes.KG20)
	hub, engines, rejections := adversaryCluster(t, nodes, 2, func(cfg *Config) {
		cfg.RetainTTL = 100 * time.Millisecond // the stalled run expires after 2s
	})
	adversary := hub.Endpoint(2)

	msg := []byte("no signature without signer 2")
	req := protocols.Request{Scheme: schemes.KG20, Op: protocols.OpSign, Payload: msg}
	futures := make([]*Future, len(engines))
	for i, e := range engines {
		var err error
		if futures[i], err = e.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	// Signer 1's commitment fixes the set; signer 2 signs against it
	// honestly, then shifts z.
	var comm1 *frost.NonceCommitment
	for comm1 == nil {
		select {
		case env := <-adversary.Receive():
			if env.Instance == req.InstanceID() && env.Kind == network.KindProto && env.Round == 1 && env.From == 1 {
				c, err := frost.UnmarshalNonceCommitment(pk.Group, env.Payload)
				if err != nil {
					t.Fatal(err)
				}
				comm1 = c
			}
		case <-time.After(10 * time.Second):
			t.Fatal("signer 1 never committed")
		}
	}
	nonce2, comm2, err := frost.GenerateNonce(rand.Reader, pk.Group, 2)
	if err != nil {
		t.Fatal(err)
	}
	comms := []*frost.NonceCommitment{comm1, comm2}
	ss, err := frost.Sign(pk, keys.MustShare[frost.KeyShare](nodes[1], schemes.KG20), nonce2, msg, comms)
	if err != nil {
		t.Fatal(err)
	}
	ss.Z = new(big.Int).Mod(new(big.Int).Add(ss.Z, big.NewInt(1)), pk.Group.Order())
	if err := frost.VerifyShare(pk, msg, comms, ss); !errors.Is(err, frost.ErrInvalidShare) {
		t.Fatalf("corrupted share verifies: %v", err)
	}
	for _, m := range []struct {
		round   int
		payload []byte
	}{{1, comm2.Marshal()}, {2, ss.Marshal()}} {
		if err := adversary.Broadcast(context.Background(), network.Envelope{
			Instance: req.InstanceID(), Kind: network.KindProto, Round: m.round, Gen: 1, Payload: m.payload,
		}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, f := range futures {
		r, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if r.Value != nil || !errors.Is(r.Err, ErrExpired) {
			t.Fatalf("node %d: value %x, err %v; want no signature and an expired run", i+1, r.Value, r.Err)
		}
	}
	checkAttributed(t, engines, rejections(), "2", frost.ErrInvalidShare)
}
