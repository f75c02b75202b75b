package thetacrypt_test

// Conformance for the key lifecycle: the same application code drives
// generate → reshare → epoch-guarded submission against every Service
// implementation, and a tcpnet deployment proves the durable keystore
// by killing and restarting a committee member mid-lifecycle.

import (
	"context"
	"crypto/rand"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/sg02"
)

// exerciseReshare is the lifecycle application code written once
// against the interface: DKG-generate a key, seal a secret under epoch
// 1, reshare onto the {1, 2, 3} sub-committee, then check that the
// keychain reports the new epoch and committee, that old-epoch pins are
// rejected with the typed error, and that the epoch-1 ciphertext still
// opens under the epoch-2 shares.
func exerciseReshare(t *testing.T, svc thetacrypt.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	kh, err := svc.GenerateKey(ctx, thetacrypt.SG02, thetacrypt.GenerateKeyOptions{KeyID: "conf-reshare"})
	if err != nil {
		t.Fatal(err)
	}
	if kres, err := svc.Wait(ctx, kh); err != nil || kres.Err != nil {
		t.Fatalf("keygen: %v / %+v", err, kres)
	}
	secret := []byte("sealed at epoch 1")
	ct, err := svc.Encrypt(ctx, thetacrypt.SG02, "conf-reshare", secret, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Resharing an unknown key or a deal-only scheme fails up front
	// with the structured codes.
	if _, err := svc.ReshareKey(ctx, thetacrypt.SG02, "no-such-key", thetacrypt.ReshareOptions{}); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("reshare of unknown key: got %v (code %s)", err, api.CodeOf(err))
	}

	rh, err := svc.ReshareKey(ctx, thetacrypt.SG02, "conf-reshare",
		thetacrypt.ReshareOptions{NewT: 1, Members: []int{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := svc.Wait(ctx, rh)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Err != nil || string(rres.Value) != "2" {
		t.Fatalf("reshare result: %+v", rres)
	}

	// The keychain reports the advanced epoch and the explicit
	// committee on the answering node.
	listed, err := svc.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var found bool
	for _, k := range listed {
		if k.Scheme == string(thetacrypt.SG02) && k.KeyID == "conf-reshare" {
			found = true
			if k.Epoch != 2 {
				t.Fatalf("listing reports epoch %d after reshare", k.Epoch)
			}
			if len(k.Members) != 3 || k.Members[0] != 1 || k.Members[1] != 2 || k.Members[2] != 3 {
				t.Fatalf("listing reports members %v after reshare", k.Members)
			}
		}
	}
	if !found {
		t.Fatalf("reshared key missing from listing: %+v", listed)
	}

	// A submission pinned to the superseded epoch is rejected with the
	// typed error before any instance state is created.
	if _, err := svc.Submit(ctx, thetacrypt.Request{
		Scheme: thetacrypt.SG02, KeyID: "conf-reshare", Op: thetacrypt.OpDecrypt,
		Payload: ct, Epoch: 1,
	}); api.CodeOf(err) != api.CodeKeyEpoch {
		t.Fatalf("old-epoch submit: got %v (code %s)", err, api.CodeOf(err))
	}

	// Pinned to the new epoch, the epoch-1 ciphertext opens: resharing
	// moved the shares, not the secret.
	plain, err := thetacrypt.Execute(ctx, svc, thetacrypt.Request{
		Scheme: thetacrypt.SG02, KeyID: "conf-reshare", Op: thetacrypt.OpDecrypt,
		Payload: ct, Epoch: 2,
	})
	if err != nil {
		t.Fatalf("decrypt pinned to new epoch: %v", err)
	}
	if string(plain) != string(secret) {
		t.Fatalf("new-epoch decryption yielded %q", plain)
	}
	// Unpinned submissions ride the current epoch.
	plain, err = thetacrypt.Execute(ctx, svc, thetacrypt.Request{
		Scheme: thetacrypt.SG02, KeyID: "conf-reshare", Op: thetacrypt.OpDecrypt, Payload: ct,
	})
	if err != nil || string(plain) != string(secret) {
		t.Fatalf("unpinned decrypt after reshare: %q / %v", plain, err)
	}
	// A second identical reshare request is stale by construction (the
	// epoch moved) and reports the epoch conflict.
	if _, err := svc.Submit(ctx, thetacrypt.Request{
		Scheme: thetacrypt.SG02, KeyID: "conf-reshare", Op: thetacrypt.OpReshare,
		Payload: protocols.ReshareSpec{NewT: 1, Members: []int{1, 2, 3}}.Marshal(), Epoch: 1,
	}); api.CodeOf(err) != api.CodeKeyEpoch {
		t.Fatalf("stale reshare submit: got %v (code %s)", err, api.CodeOf(err))
	}
}

func TestReshareConformanceEmbedded(t *testing.T) {
	exerciseReshare(t, embeddedService(t))
}

func TestReshareConformanceRemote(t *testing.T) {
	exerciseReshare(t, remoteService(t))
}

func TestReshareConformanceNodeTCP(t *testing.T) {
	exerciseReshare(t, nodeDeployment(t, nil)[0])
}

// TestNodeKeystoreDurableAcrossRestart is the durability acceptance
// test: a tcpnet deployment with per-node key files reshapes its
// default SG02 key onto the {1, 2} committee (quorum 2 — BOTH members
// must hold live shares), node 2 is killed and restarted from its key
// file alone, and a decryption pinned to the reshared epoch then
// succeeds — proving the resharded share and epoch reloaded from disk.
func TestNodeKeystoreDurableAcrossRestart(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	const tt, n = 1, 4
	dir := t.TempDir()
	keyFile := func(i int) string { return filepath.Join(dir, fmt.Sprintf("node%d.key", i)) }
	stores, err := keys.Deal(rand.Reader, tt, n, keys.Options{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	ids, roster, err := identity.GenerateMesh(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*thetacrypt.Node, n)
	t.Cleanup(func() {
		for _, nd := range nodes {
			if nd != nil {
				nd.Close()
			}
		}
	})
	for i := 0; i < n; i++ {
		nodes[i], err = thetacrypt.NewNode(thetacrypt.NodeConfig{
			Keys:       stores[i],
			KeyFile:    keyFile(i + 1),
			ListenAddr: "127.0.0.1:0",
			Identity:   ids[i],
			Roster:     roster,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	wire := func() {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					nodes[i].SetPeer(j+1, nodes[j].P2PAddr())
				}
			}
		}
	}
	wire()

	// loadFile parses one node's on-disk keystore and returns its
	// default SG02 key record.
	loadFile := func(i int) (*keys.Key, error) {
		raw, err := os.ReadFile(keyFile(i))
		if err != nil {
			return nil, err
		}
		ks, err := keys.UnmarshalKeystore(raw)
		if err != nil {
			return nil, err
		}
		return ks.Get(schemes.SG02, "")
	}
	// Startup spilled the dealt keystore: epoch 1 on disk.
	if k, err := loadFile(2); err != nil || k.Epoch != keys.FirstEpoch {
		t.Fatalf("startup spill: %+v / %v", k, err)
	}

	secret := []byte("must survive the restart")
	ct, err := nodes[0].Encrypt(ctx, thetacrypt.SG02, "", secret, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Reshare onto {1, 2} at t=1: quorum 2, so BOTH members must hold
	// live shares for any later decryption.
	rh, err := nodes[0].ReshareKey(ctx, thetacrypt.SG02, "", thetacrypt.ReshareOptions{NewT: 1, Members: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rres, err := nodes[0].Wait(ctx, rh); err != nil || rres.Err != nil || string(rres.Value) != "2" {
		t.Fatalf("reshare: %v / %+v", err, rres)
	}

	// Wait for the epoch bump to reach the key files of the member we
	// will kill and of the leaving observer.
	waitEpochOnDisk := func(i int) *keys.Key {
		deadline := time.Now().Add(20 * time.Second)
		for {
			k, err := loadFile(i)
			if err == nil && k.Epoch == 2 {
				return k
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d key file never reached epoch 2 (last: %+v / %v)", i, k, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	k2 := waitEpochOnDisk(2)
	if k2.Share == nil || len(k2.Members) != 2 {
		t.Fatalf("node 2 spilled record incomplete: %+v", k2)
	}
	if s := k2.Share.(sg02.KeyShare); s.Index != 2 {
		t.Fatalf("node 2 spilled share index %d, want 2", s.Index)
	}
	// The observer spilled a public-only record.
	if k4 := waitEpochOnDisk(4); k4.Share != nil {
		t.Fatalf("leaving node 4 spilled a share it should not hold")
	}
	// ...and answers quorum operations with the typed no-share code.
	if _, err := nodes[3].Submit(ctx, thetacrypt.Request{
		Scheme: thetacrypt.SG02, Op: thetacrypt.OpDecrypt, Payload: ct,
	}); api.CodeOf(err) != api.CodeKeyNoShare {
		t.Fatalf("observer submit: got %v (code %s)", err, api.CodeOf(err))
	}

	// Kill node 2 and restart it from its key file alone.
	nodes[1].Close()
	nodes[1] = nil
	raw, err := os.ReadFile(keyFile(2))
	if err != nil {
		t.Fatal(err)
	}
	store2, err := keys.UnmarshalKeystore(raw)
	if err != nil {
		t.Fatal(err)
	}
	nodes[1], err = thetacrypt.NewNode(thetacrypt.NodeConfig{
		Keys:       store2,
		KeyFile:    keyFile(2),
		ListenAddr: "127.0.0.1:0",
		Identity:   ids[1],
		Roster:     roster,
	})
	if err != nil {
		t.Fatal(err)
	}
	wire()

	// The restarted node reports the resharded epoch from disk...
	listed, err := nodes[1].Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].Epoch != 2 {
		t.Fatalf("restarted keychain: %+v", listed)
	}
	// ...and serves its reloaded share: the epoch-pinned decryption
	// cannot reach its quorum of 2 without node 2.
	plain, err := thetacrypt.Execute(ctx, nodes[0], thetacrypt.Request{
		Scheme: thetacrypt.SG02, Op: thetacrypt.OpDecrypt, Payload: ct, Epoch: 2,
	})
	if err != nil {
		t.Fatalf("decrypt after restart: %v", err)
	}
	if string(plain) != string(secret) {
		t.Fatalf("post-restart decryption yielded %q", plain)
	}
	// A stale-epoch pin still answers with the typed conflict, from a
	// keystore that lived through a crash.
	if _, err := nodes[1].Submit(ctx, thetacrypt.Request{
		Scheme: thetacrypt.SG02, Op: thetacrypt.OpDecrypt, Payload: ct, Epoch: 1,
	}); api.CodeOf(err) != api.CodeKeyEpoch {
		t.Fatalf("stale pin after restart: got %v (code %s)", err, api.CodeOf(err))
	}
}
