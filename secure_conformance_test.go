package thetacrypt_test

// Conformance for the mesh: identity-authenticated links and sealed
// complaint-round DKG exercised end to end on both transports. The
// memnet cluster and the tcpnet deployment run the same lifecycle
// (generate → sign → reshare), a node without its identity is refused,
// an impostor is rejected at the handshake while the rest of the mesh
// stays live, a dealer that seals one bad sub-share is disqualified by
// the complaint round on both transports, and a wire capture of a
// tcpnet DKG proves no sub-share material — and no protocol plaintext
// at all — leaves a node unencrypted.

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"thetacrypt"
	"thetacrypt/internal/dkg"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// TestNodeRequiresIdentity: a node without its identity and the roster
// is refused before it writes its key file.
func TestNodeRequiresIdentity(t *testing.T) {
	stores, err := keys.Deal(rand.Reader, 1, 4, keys.Options{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	ids, roster, err := identity.GenerateMesh(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	keyFile := filepath.Join(t.TempDir(), "node1.key")
	for name, cfg := range map[string]thetacrypt.NodeConfig{
		"neither":                 {},
		"no identity":             {Roster: roster},
		"no roster":               {Identity: ids[0]},
		"another node's identity": {Identity: ids[1], Roster: roster},
	} {
		cfg.Keys, cfg.KeyFile, cfg.ListenAddr = stores[0], keyFile, "127.0.0.1:0"
		if node, err := thetacrypt.NewNode(cfg); err == nil {
			node.Close()
			t.Fatalf("%s: node started", name)
		}
		if _, err := os.Stat(keyFile); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: key file written before the refusal (stat: %v)", name, err)
		}
	}
}

// TestNodeRequiresKeys: a node with its identity and the roster but no
// keystore is refused with an error, not a panic, and writes no file.
func TestNodeRequiresKeys(t *testing.T) {
	ids, roster, err := identity.GenerateMesh(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	keyFile := filepath.Join(t.TempDir(), "node1.key")
	node, err := thetacrypt.NewNode(thetacrypt.NodeConfig{
		Identity: ids[0], Roster: roster, KeyFile: keyFile, ListenAddr: "127.0.0.1:0",
	})
	if err == nil {
		node.Close()
		t.Fatal("node started without a keystore")
	}
	if _, err := os.Stat(keyFile); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("key file written before the refusal (stat: %v)", err)
	}
}

// exerciseSecureLifecycle is the acceptance lifecycle: DKG-generate a
// KG20 key over sealed dealings, sign under it, then run the full
// reshare conformance (generate → reshare → epoch-guarded decrypt).
func exerciseSecureLifecycle(t *testing.T, svc thetacrypt.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	kh, err := svc.GenerateKey(ctx, thetacrypt.KG20, thetacrypt.GenerateKeyOptions{KeyID: "sec-sign"})
	if err != nil {
		t.Fatal(err)
	}
	if kres, err := svc.Wait(ctx, kh); err != nil || kres.Err != nil {
		t.Fatalf("sealed keygen: %v / %+v", err, kres)
	}
	sig, err := thetacrypt.Execute(ctx, svc, thetacrypt.Request{
		Scheme: thetacrypt.KG20, KeyID: "sec-sign", Op: thetacrypt.OpSign,
		Payload: []byte("signed under a sealed-DKG key"),
	})
	if err != nil {
		t.Fatalf("sign under sealed-DKG key: %v", err)
	}
	if len(sig) == 0 {
		t.Fatal("empty signature under sealed-DKG key")
	}
	exerciseReshare(t, svc)
}

func TestSecureConformanceEmbedded(t *testing.T) {
	cluster, err := thetacrypt.NewCluster(1, 4, thetacrypt.ClusterOptions{
		Schemes: []thetacrypt.SchemeID{thetacrypt.SG02, thetacrypt.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	exerciseSecureLifecycle(t, cluster)
}

func TestSecureConformanceNodeTCP(t *testing.T) {
	nodes := nodeDeployment(t, nil)
	exerciseSecureLifecycle(t, nodes[0])
	// Every link of the deployment reports the handshake marker.
	ts := nodes[0].Stats().Transport
	if ts == nil || !ts.Authenticated {
		t.Fatalf("transport not marked authenticated: %+v", ts)
	}
	for _, p := range ts.Peers {
		if !p.Authenticated {
			t.Fatalf("peer %d link not authenticated after traffic: %+v", p.Peer, p)
		}
	}
}

// TestSecureImpostorRejectedTCP plants an impostor: node 4 runs with a
// fresh identity that is not the rostered one. Every handshake it is
// part of fails, so it never joins — while the mesh of honest nodes
// stays live and serves quorum operations throughout.
func TestSecureImpostorRejectedTCP(t *testing.T) {
	impostor, err := identity.Generate(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	nodes := nodeDeployment(t, func(ids []*identity.Key) { ids[3] = impostor })

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Quorum operations (t+1 = 2 of the 3 honest nodes) succeed with
	// the impostor present: the mesh is live.
	secret := []byte("quorum survives the impostor")
	ct, err := nodes[0].Encrypt(ctx, thetacrypt.SG02, "", secret, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := thetacrypt.Execute(ctx, nodes[0], thetacrypt.Request{
		Scheme: thetacrypt.SG02, Op: thetacrypt.OpDecrypt, Payload: ct,
	})
	if err != nil {
		t.Fatalf("decrypt with impostor in the mesh: %v", err)
	}
	if string(plain) != string(secret) {
		t.Fatalf("decrypted %q", plain)
	}
	// Honest links authenticate; the impostor's never does.
	deadline := time.Now().Add(20 * time.Second)
	for {
		ts := nodes[0].Stats().Transport
		p2, _ := ts.Peer(2)
		p3, _ := ts.Peer(3)
		if p2.Authenticated && p3.Authenticated {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("honest links never authenticated: %+v", ts)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if p4, ok := nodes[0].Stats().Transport.Peer(4); ok && p4.Authenticated {
		t.Fatalf("impostor link marked authenticated: %+v", p4)
	}
	// ...and from the impostor's side, no link ever authenticates.
	for _, p := range nodes[3].Stats().Transport.Peers {
		if p.Authenticated {
			t.Fatalf("impostor authenticated a link to peer %d", p.Peer)
		}
	}
}

// TestSecureFaultyDealerDisqualified corrupts node 2's sub-share for
// node 3 before it is sealed, on both transports: the complaint round
// disqualifies the dealer deterministically and the DKG still
// completes, with every node landing the same public key and the key
// signing normally.
func TestSecureFaultyDealerDisqualified(t *testing.T) {
	protocols.TestFaultDealing = func(node int, d *dkg.Dealing) {
		if node == 2 {
			d.SubShares[2].Value.SetInt64(42) // f_2(3) forged
		}
	}
	defer func() { protocols.TestFaultDealing = nil }()

	t.Run("memnet", func(t *testing.T) {
		cluster, err := thetacrypt.NewCluster(1, 4, thetacrypt.ClusterOptions{
			Schemes: []thetacrypt.SchemeID{thetacrypt.SG02},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		exerciseFaultyDealerKeygen(t, cluster, func() []keyFetcherAt {
			fs := make([]keyFetcherAt, cluster.N())
			for i := range fs {
				i := i
				fs[i] = func(ctx context.Context) ([]thetacrypt.KeyInfo, error) {
					ks := cluster.KeystoreAt(i + 1)
					infos := make([]thetacrypt.KeyInfo, 0)
					for _, info := range ks.List() {
						infos = append(infos, thetacrypt.KeyInfo{
							Scheme: string(info.Scheme), KeyID: info.ID, PublicKey: info.Public,
						})
					}
					return infos, nil
				}
			}
			return fs
		}())
	})

	t.Run("tcpnet", func(t *testing.T) {
		nodes := nodeDeployment(t, nil)
		exerciseFaultyDealerKeygen(t, nodes[0], func() []keyFetcherAt {
			fs := make([]keyFetcherAt, len(nodes))
			for i := range fs {
				i := i
				fs[i] = func(ctx context.Context) ([]thetacrypt.KeyInfo, error) {
					return nodes[i].Keys(ctx)
				}
			}
			return fs
		}())
	})
}

type keyFetcherAt func(context.Context) ([]thetacrypt.KeyInfo, error)

// exerciseFaultyDealerKeygen drives one sealed DKG with the faulty
// dealer hook armed and checks the black-box complaint-round outcome:
// the run completes, every node installs the identical public key, and
// the key signs.
func exerciseFaultyDealerKeygen(t *testing.T, svc thetacrypt.Service, fetchers []keyFetcherAt) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	kh, err := svc.GenerateKey(ctx, thetacrypt.KG20, thetacrypt.GenerateKeyOptions{KeyID: "complaint-key"})
	if err != nil {
		t.Fatal(err)
	}
	if kres, err := svc.Wait(ctx, kh); err != nil || kres.Err != nil {
		t.Fatalf("keygen with faulty dealer: %v / %+v", err, kres)
	}
	var ref []byte
	deadline := time.Now().Add(20 * time.Second)
	for i, fetch := range fetchers {
		for {
			infos, err := fetch(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var pub []byte
			for _, k := range infos {
				if k.Scheme == string(thetacrypt.KG20) && k.KeyID == "complaint-key" {
					pub = k.PublicKey
				}
			}
			if pub != nil {
				if i == 0 {
					ref = pub
				} else if !bytes.Equal(pub, ref) {
					t.Fatalf("node %d landed a different public key after the complaint round", i+1)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never installed the key", i+1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	sig, err := thetacrypt.Execute(ctx, svc, thetacrypt.Request{
		Scheme: thetacrypt.KG20, KeyID: "complaint-key", Op: thetacrypt.OpSign,
		Payload: []byte("signed by the qualified majority"),
	})
	if err != nil || len(sig) == 0 {
		t.Fatalf("sign after disqualification: %v (%d bytes)", err, len(sig))
	}
}

// recorder accumulates every byte a tap forwards, in both directions.
type recorder struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recorder) Write(p []byte) (int, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.buf.Write(p)
}

func (r *recorder) Bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

// tapAddr starts a TCP tap in front of target: every accepted
// connection is forwarded byte-for-byte while both directions are
// recorded.
func tapAddr(t *testing.T, target string, rec *recorder) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				up, err := net.Dial("tcp", target)
				if err != nil {
					return
				}
				defer up.Close()
				done := make(chan struct{}, 2)
				go func() {
					io.Copy(io.MultiWriter(up, rec), c)
					if tc, ok := up.(*net.TCPConn); ok {
						tc.CloseWrite()
					}
					done <- struct{}{}
				}()
				go func() {
					io.Copy(io.MultiWriter(c, rec), up)
					if tc, ok := c.(*net.TCPConn); ok {
						tc.CloseWrite()
					}
					done <- struct{}{}
				}()
				<-done
				<-done
			}(c)
		}
	}()
	return ln.Addr().String()
}

// sinkAddr starts a tap that accepts every connection and forwards
// nothing.
func sinkAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(io.Discard, c)
			}(c)
		}
	}()
	return ln.Addr().String()
}

// wireCaptureDeployment wires a 4-node tcpnet deployment so that every
// inter-node connection passes through a tap: tap(target) starts one in
// front of a node's listen address and returns its own address.
func wireCaptureDeployment(t *testing.T, tap func(target string) string) []*thetacrypt.Node {
	t.Helper()
	nodes := nodeDeployment(t, nil)
	taps := make([]string, len(nodes))
	for i, node := range nodes {
		taps[i] = tap(node.P2PAddr())
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].SetPeer(j+1, taps[j])
			}
		}
	}
	return nodes
}

// TestSecureDKGWireCapture runs a sealed DKG over tcpnet with every
// link tapped and asserts that neither the sub-share scalars (captured
// at the dealing seam before sealing) nor even the instance-ID
// plaintext appear anywhere in the traffic. A control run whose taps
// forward nothing proves every link crosses a tap: its keygen cannot
// finish.
func TestSecureDKGWireCapture(t *testing.T) {
	const canary = "wire-capture-canary"
	var rec recorder
	nodes := wireCaptureDeployment(t, func(target string) string { return tapAddr(t, target, &rec) })
	var mu sync.Mutex
	var subShares [][]byte
	protocols.TestFaultDealing = func(node int, d *dkg.Dealing) {
		mu.Lock()
		defer mu.Unlock()
		for _, s := range d.SubShares {
			subShares = append(subShares, s.Value.Bytes())
		}
	}
	defer func() { protocols.TestFaultDealing = nil }()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	kh, err := nodes[0].GenerateKey(ctx, thetacrypt.KG20, thetacrypt.GenerateKeyOptions{KeyID: canary})
	if err != nil {
		t.Fatal(err)
	}
	if kres, err := nodes[0].Wait(ctx, kh); err != nil || kres.Err != nil {
		t.Fatalf("keygen over taps: %v / %+v", err, kres)
	}
	mu.Lock()
	captured := rec.Bytes()
	mu.Unlock()

	if len(captured) == 0 {
		t.Fatal("taps captured no traffic — the deployment bypassed them")
	}
	if len(subShares) != 16 {
		t.Fatalf("captured %d sub-shares at the dealing seam, want 16", len(subShares))
	}
	for i, s := range subShares {
		if len(s) > 8 && bytes.Contains(captured, s) {
			t.Fatalf("sub-share %d appears in plaintext on the wire", i)
		}
	}
	if bytes.Contains(captured, []byte(canary)) {
		t.Fatal("instance-ID plaintext appears on the secured wire")
	}

	// Control: the identical keygen with every tap forwarding nothing
	// must not finish, so no link of the deployment bypasses its tap.
	dark := wireCaptureDeployment(t, func(string) string { return sinkAddr(t) })
	dctx, dcancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer dcancel()
	kh, err = dark[0].GenerateKey(dctx, thetacrypt.KG20, thetacrypt.GenerateKeyOptions{KeyID: canary})
	if err != nil {
		t.Fatal(err)
	}
	if kres, err := dark[0].Wait(dctx, kh); err == nil && kres.Err == nil {
		t.Fatal("keygen finished with every tap forwarding nothing — a link bypasses the taps")
	}
}
