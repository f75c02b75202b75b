package orchestration

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"sync"
	"testing"
	"time"

	"thetacrypt/internal/group"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/sg02"
)

// p256SG02Nodes deals SG02 keys on P-256 — the group of the benchmark's
// decrypt workload — for a 4-node committee at t=1.
func p256SG02Nodes(t *testing.T) []*keys.Keystore {
	t.Helper()
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Group: group.P256(), Schemes: []schemes.ID{schemes.SG02},
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// TestSG02TamperedCiphertextFailsEverywhere: a ciphertext with one bit
// flipped fails on every node and no node releases a plaintext. A flip
// in E breaks the validity proof, which each node checks before it
// makes a share; a flip in the payload passes that check (the proof
// covers the key encapsulation, not the AEAD body) and fails at the tag
// when the node combines.
func TestSG02TamperedCiphertextFailsEverywhere(t *testing.T) {
	nodes := p256SG02Nodes(t)
	pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	tamper := map[string]func(ct *sg02.Ciphertext){
		"E":       func(ct *sg02.Ciphertext) { ct.E = new(big.Int).Xor(ct.E, big.NewInt(1)) },
		"Payload": func(ct *sg02.Ciphertext) { ct.Payload[len(ct.Payload)/2] ^= 0x01 },
	}
	for _, field := range []string{"E", "Payload"} {
		t.Run(field, func(t *testing.T) {
			hub := memnet.NewHub(4, memnet.Options{})
			engines := make([]*Engine, 4)
			for i := range engines {
				engines[i] = New(Config{Keys: nodes[i], Net: hub.Endpoint(i + 1)})
			}
			t.Cleanup(func() {
				for _, e := range engines {
					e.Stop()
				}
				hub.Close()
			})
			msg := []byte("must stay sealed")
			ct, err := sg02.Encrypt(rand.Reader, pk, msg, []byte(field))
			if err != nil {
				t.Fatal(err)
			}
			tamper[field](ct)
			req := protocols.Request{Scheme: schemes.SG02, Op: protocols.OpDecrypt, Payload: ct.Marshal()}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			for i, e := range engines {
				f, err := e.Submit(ctx, req)
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Wait(ctx)
				if err != nil {
					t.Fatalf("node %d: %v", i+1, err)
				}
				if res.Err == nil || res.Value != nil || bytes.Contains(res.Value, msg) {
					t.Fatalf("node %d released a result for a tampered %s: value %q, err %v", i+1, field, res.Value, res.Err)
				}
				if field == "E" && !errors.Is(res.Err, sg02.ErrInvalidCiphertext) {
					t.Fatalf("node %d: tampered E failed with %v, want ErrInvalidCiphertext", i+1, res.Err)
				}
			}
		})
	}
}

// TestSG02CorruptDLEQShareAttributed: one node sends a decryption share
// whose DLEQ proof does not verify. Every honest node rejects it on the
// direct one-item path (no batch fold, so no fallback replay), names
// the sender through OnRejectedShare and RejectedShares, and still
// decrypts from the other shares.
func TestSG02CorruptDLEQShareAttributed(t *testing.T) {
	nodes := p256SG02Nodes(t)
	pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	hub := memnet.NewHub(4, memnet.Options{})
	var mu sync.Mutex
	var rejections []error
	engines := make([]*Engine, 3) // node 4 is the adversary, no engine
	for i := range engines {
		engines[i] = New(Config{
			Keys: nodes[i],
			Net:  hub.Endpoint(i + 1),
			OnRejectedShare: func(_ string, err error) {
				mu.Lock()
				rejections = append(rejections, err)
				mu.Unlock()
			},
		})
	}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Stop()
		}
		hub.Close()
	})

	msg := []byte("decrypts around the liar")
	ct, err := sg02.Encrypt(rand.Reader, pk, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := protocols.Request{Scheme: schemes.SG02, Op: protocols.OpDecrypt, Payload: ct.Marshal()}
	// A well-formed share of node 4 with its proof's response shifted:
	// it decodes, passes the structural checks, and fails the relation.
	ds, err := sg02.DecryptShare(rand.Reader, pk, keys.MustShare[sg02.KeyShare](nodes[3], schemes.SG02), ct)
	if err != nil {
		t.Fatal(err)
	}
	ds.Proof.F = new(big.Int).Mod(new(big.Int).Add(ds.Proof.F, big.NewInt(1)), pk.Group.Order())
	if err := sg02.VerifyShare(pk, ct, ds); !errors.Is(err, sg02.ErrInvalidShare) {
		t.Fatalf("corrupted share verifies: %v", err)
	}
	// The share must reach each engine before its quorum does: a share
	// arriving after the run finished is dropped unparsed. It parks on
	// a placeholder and is verified when the submission adopts it.
	if err := hub.Endpoint(4).Broadcast(context.Background(), network.Envelope{
		Instance: req.InstanceID(), Kind: network.KindProto, Round: 1, Gen: 1, Payload: ds.Marshal(),
	}); err != nil {
		t.Fatal(err)
	}
	for _, e := range engines {
		e := e
		waitUntil(t, 5*time.Second, func() bool { return e.InstanceCount() == 1 },
			"corrupted share never reached the engine")
	}
	futures := make([]*Future, len(engines))
	for i, e := range engines {
		if futures[i], err = e.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range waitAll(t, futures) {
		if !bytes.Equal(r.Value, msg) {
			t.Fatalf("node %d decrypted %q, want %q", i+1, r.Value, msg)
		}
	}
	for i, e := range engines {
		st := e.Stats()
		if st.RejectedShares != 1 {
			t.Fatalf("node %d counted %d rejected shares, want 1", i+1, st.RejectedShares)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(rejections) != len(engines) {
		t.Fatalf("OnRejectedShare fired %d times, want once per honest node", len(rejections))
	}
	for _, err := range rejections {
		if !errors.Is(err, protocols.ErrShareRejected) || !strings.Contains(err.Error(), "share from 4") ||
			!strings.Contains(err.Error(), sg02.ErrInvalidShare.Error()) {
			t.Fatalf("rejection not attributed to node 4's invalid share: %v", err)
		}
	}
}
