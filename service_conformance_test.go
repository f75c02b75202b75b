package thetacrypt_test

// Conformance: the same application code runs against every Service
// implementation — the embedded Cluster (memnet), a standalone Node
// deployment (tcpnet), and the remote client SDK over the /v2 HTTP
// endpoints — exercising submit, wait, batch, idempotent
// re-submission, the scheme API, the keychain API (key listings,
// on-demand DKG, per-key submission), and structured errors
// identically.

import (
	"bytes"
	"context"
	"crypto/rand"
	"fmt"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/client"
	"thetacrypt/internal/committee"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/service"
)

// remoteService stands up a 4-node Θ-network with HTTP front ends and
// returns the SDK client of node 1.
func remoteService(t *testing.T) thetacrypt.Service {
	t.Helper()
	com, err := committee.New(1, 4, committee.Config{
		Schemes: []schemes.ID{schemes.SG02, schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(com.Close)
	var first thetacrypt.Service
	for i := 1; i <= com.N(); i++ {
		srv := httptest.NewServer(service.NewFront(com.UnitAt(i)))
		if i == 1 {
			first = client.New(srv.URL)
		}
		t.Cleanup(srv.Close)
	}
	return first
}

func embeddedService(t *testing.T) thetacrypt.Service {
	t.Helper()
	cluster, err := thetacrypt.NewCluster(1, 4, thetacrypt.ClusterOptions{
		Schemes: []thetacrypt.SchemeID{thetacrypt.SG02, thetacrypt.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Close)
	return cluster
}

// nodeDeployment stands up a real 4-node tcpnet deployment on loopback
// (dynamic ports, peers wired after construction) and returns all
// nodes; node 1 serves as the standalone-Node Service implementation.
// Every node gets a fresh identity; plant, when set, may swap keys in
// ids (node i+1's at ids[i]) before the nodes start — a test plants an
// impostor with a key that does not match the roster.
func nodeDeployment(t *testing.T, plant func(ids []*identity.Key)) []*thetacrypt.Node {
	t.Helper()
	const tt, n = 1, 4
	stores, err := keys.Deal(rand.Reader, tt, n, keys.Options{
		Schemes: []schemes.ID{schemes.SG02, schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	ids, roster, err := identity.GenerateMesh(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	if plant != nil {
		plant(ids)
	}
	nodes := make([]*thetacrypt.Node, n)
	for i := 0; i < n; i++ {
		node, err := thetacrypt.NewNode(thetacrypt.NodeConfig{
			Keys:       stores[i],
			ListenAddr: "127.0.0.1:0",
			Identity:   ids[i],
			Roster:     roster,
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = node
		t.Cleanup(node.Close)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				nodes[i].SetPeer(j+1, nodes[j].P2PAddr())
			}
		}
	}
	return nodes
}

// exercise is the application code written once against the interface.
func exercise(t *testing.T, svc thetacrypt.Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := svc.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 4 || info.T != 1 || len(info.Schemes) != 2 {
		t.Fatalf("info: %+v", info)
	}

	// Keychain listing: Keys and Info report the same keychain, one
	// default key per dealt scheme.
	listed, err := svc.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 || !sameKeyLists(listed, info.Keys) {
		t.Fatalf("key lists diverge: Keys=%+v Info=%+v", listed, info.Keys)
	}
	for _, k := range listed {
		if k.KeyID != thetacrypt.DefaultKeyID || !k.Default || len(k.PublicKey) == 0 {
			t.Fatalf("dealt key listing wrong: %+v", k)
		}
	}

	// Single-key fetch: every implementation answers GET-one-key with
	// the same record the listing carries, and misses use the typed 404
	// vocabulary (scheme_unknown before key_unknown).
	kf, ok := svc.(api.KeyFetcher)
	if !ok {
		t.Fatalf("%T does not implement api.KeyFetcher", svc)
	}
	one, err := kf.Key(ctx, thetacrypt.SG02, "")
	if err != nil {
		t.Fatal(err)
	}
	if one.Scheme != string(thetacrypt.SG02) || one.KeyID != thetacrypt.DefaultKeyID || !one.Default || len(one.PublicKey) == 0 {
		t.Fatalf("single-key fetch: %+v", one)
	}
	for _, k := range listed {
		if k.Scheme == one.Scheme && k.KeyID == one.KeyID && !sameKeyLists([]thetacrypt.KeyInfo{one}, []thetacrypt.KeyInfo{k}) {
			t.Fatalf("single-key fetch diverges from listing: %+v vs %+v", one, k)
		}
	}
	if _, err := kf.Key(ctx, thetacrypt.SG02, "no-such-key"); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unknown key fetch: got %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := kf.Key(ctx, "NOPE", ""); api.CodeOf(err) != api.CodeSchemeUnknown {
		t.Fatalf("unknown scheme fetch: got %v (code %s)", err, api.CodeOf(err))
	}

	// Scheme API + protocol API round-trip under the default key.
	secret := []byte("interface-portable secret")
	ct, err := svc.Encrypt(ctx, thetacrypt.SG02, "", secret, []byte("L"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := thetacrypt.Execute(ctx, svc, thetacrypt.Request{
		Scheme: thetacrypt.SG02, Op: thetacrypt.OpDecrypt, Payload: ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != string(secret) {
		t.Fatalf("decrypted %q", plain)
	}

	// Keychain API: generate a named SG02 key on demand — a real DKG
	// through the orchestration engines — and use it immediately.
	kh, err := svc.GenerateKey(ctx, thetacrypt.SG02, thetacrypt.GenerateKeyOptions{KeyID: "conf-genkey"})
	if err != nil {
		t.Fatal(err)
	}
	kres, err := svc.Wait(ctx, kh)
	if err != nil {
		t.Fatal(err)
	}
	if kres.Err != nil || string(kres.Value) != "conf-genkey" {
		t.Fatalf("keygen result: %+v", kres)
	}
	ct2, err := svc.Encrypt(ctx, thetacrypt.SG02, "conf-genkey", secret, []byte("L2"))
	if err != nil {
		t.Fatal(err)
	}
	plain2, err := thetacrypt.Execute(ctx, svc, thetacrypt.Request{
		Scheme: thetacrypt.SG02, KeyID: "conf-genkey", Op: thetacrypt.OpDecrypt, Payload: ct2,
	})
	if err != nil {
		t.Fatalf("decrypt under generated key: %v", err)
	}
	if string(plain2) != string(secret) {
		t.Fatalf("generated-key decryption yielded %q", plain2)
	}
	// The keychain now lists the generated key, non-default.
	listed, err = svc.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range listed {
		if k.Scheme == string(thetacrypt.SG02) && k.KeyID == "conf-genkey" && !k.Default {
			found = true
		}
	}
	if !found {
		t.Fatalf("generated key missing from listing: %+v", listed)
	}
	// ...and is fetchable by name through the single-key endpoint.
	gen, err := kf.Key(ctx, thetacrypt.SG02, "conf-genkey")
	if err != nil {
		t.Fatalf("fetch generated key: %v", err)
	}
	if gen.KeyID != "conf-genkey" || gen.Default || len(gen.PublicKey) == 0 {
		t.Fatalf("generated key fetch: %+v", gen)
	}
	// Re-generating the same name conflicts.
	if _, err := svc.GenerateKey(ctx, thetacrypt.SG02, thetacrypt.GenerateKeyOptions{KeyID: "conf-genkey"}); api.CodeOf(err) != api.CodeKeyExists {
		t.Fatalf("duplicate keygen: got %v (code %s)", err, api.CodeOf(err))
	}
	// DKG cannot produce RSA keys.
	if _, err := svc.GenerateKey(ctx, thetacrypt.SH00, thetacrypt.GenerateKeyOptions{}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("SH00 keygen: got %v (code %s)", err, api.CodeOf(err))
	}

	// Batch submission with order-preserving results.
	reqs := make([]thetacrypt.Request, 6)
	for i := range reqs {
		reqs[i] = thetacrypt.Request{
			Scheme: thetacrypt.CKS05, Op: thetacrypt.OpCoin,
			Payload: []byte(fmt.Sprintf("conf-coin-%d", i)),
		}
	}
	hs, err := svc.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := api.WaitAll(ctx, svc, hs)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range results {
		if res.Err != nil || len(res.Value) == 0 {
			t.Fatalf("batch result %d: %+v", i, res)
		}
		if res.InstanceID != hs[i].InstanceID {
			t.Fatalf("result %d out of order", i)
		}
	}

	// Idempotent re-submission: the same request yields the same handle
	// and resolves to the same finished result.
	again, err := svc.Submit(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if again.InstanceID != hs[0].InstanceID {
		t.Fatalf("re-submission changed handles: %s != %s", again.InstanceID, hs[0].InstanceID)
	}
	res, err := svc.Wait(ctx, again)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || string(res.Value) != string(results[0].Value) {
		t.Fatalf("re-submission diverged: %+v", res)
	}

	// The explicit default key ID names the same instance as the empty
	// one (idempotency is per effective key).
	named := reqs[0]
	named.KeyID = thetacrypt.DefaultKeyID
	alias, err := svc.Submit(ctx, named)
	if err != nil {
		t.Fatal(err)
	}
	if alias.InstanceID != hs[0].InstanceID {
		t.Fatalf("explicit default key changed handles: %s != %s", alias.InstanceID, hs[0].InstanceID)
	}

	// Structured errors carry the same codes on every implementation.
	if _, err := svc.Submit(ctx, thetacrypt.Request{
		Scheme: "NOPE", Op: thetacrypt.OpSign, Payload: []byte("x"),
	}); api.CodeOf(err) != api.CodeSchemeUnknown {
		t.Fatalf("unknown scheme: got %v (code %s)", err, api.CodeOf(err))
	}
	// An unknown operation is op_unknown, checked before the scheme, as
	// the wire parse checks it.
	if _, err := svc.Submit(ctx, thetacrypt.Request{
		Scheme: thetacrypt.BLS04, Op: thetacrypt.Operation(9), Payload: []byte("x"),
	}); api.CodeOf(err) != api.CodeOpUnknown {
		t.Fatalf("unknown op: got %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := svc.Submit(ctx, thetacrypt.Request{
		Scheme: "NOPE", Op: thetacrypt.Operation(9), Payload: []byte("x"),
	}); api.CodeOf(err) != api.CodeOpUnknown {
		t.Fatalf("unknown scheme and op: got %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := svc.Submit(ctx, thetacrypt.Request{
		Scheme: thetacrypt.CKS05, KeyID: "no-such-key", Op: thetacrypt.OpCoin, Payload: []byte("x"),
	}); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unknown key submit: got %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := svc.Encrypt(ctx, thetacrypt.SG02, "no-such-key", []byte("x"), nil); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unknown key encrypt: got %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := svc.Submit(ctx, thetacrypt.Request{
		Scheme: thetacrypt.CKS05, KeyID: "bad key!", Op: thetacrypt.OpCoin, Payload: []byte("x"),
	}); api.CodeOf(err) != api.CodeBadRequest {
		t.Fatalf("malformed key id: got %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := svc.Encrypt(ctx, thetacrypt.CKS05, "", []byte("x"), nil); api.CodeOf(err) != api.CodeSchemeNotCipher {
		t.Fatalf("non-cipher encrypt: got %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := svc.Encrypt(ctx, thetacrypt.BZ03, "", []byte("x"), nil); api.CodeOf(err) != api.CodeSchemeNoKeys {
		t.Fatalf("no-keys encrypt: got %v (code %s)", err, api.CodeOf(err))
	}
}

// sameKeyLists compares two keychain listings field by field,
// including the share-version epoch and committee membership.
func sameKeyLists(a, b []thetacrypt.KeyInfo) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Scheme != b[i].Scheme || a[i].KeyID != b[i].KeyID ||
			a[i].Group != b[i].Group || a[i].Default != b[i].Default ||
			a[i].Epoch != b[i].Epoch || !slices.Equal(a[i].Members, b[i].Members) ||
			!bytes.Equal(a[i].PublicKey, b[i].PublicKey) {
			return false
		}
	}
	return true
}

// routerService stands up two independent embedded committees behind
// the stateless router, one of the three Service implementations (with
// committee.Unit, which Cluster and Node serve through, and
// client.Client). Both committees are dealt the same default key IDs,
// so the router's first-wins placement shadows the duplicates and the
// fleet presents the same two-key keychain the single-committee
// harnesses do.
func routerService(t *testing.T) *thetacrypt.Router {
	t.Helper()
	backends := make([]thetacrypt.RouterBackend, 2)
	for i := range backends {
		cluster, err := thetacrypt.NewCluster(1, 4, thetacrypt.ClusterOptions{
			Schemes: []thetacrypt.SchemeID{thetacrypt.SG02, thetacrypt.CKS05},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		backends[i] = thetacrypt.RouterBackend{Service: cluster}
	}
	return thetacrypt.NewRouter(backends...)
}

func TestServiceConformanceEmbedded(t *testing.T) {
	exercise(t, embeddedService(t))
}

// TestServiceConformanceRouter runs the application code verbatim
// against the router tier: submissions route by key, the generated key
// lands on the least-loaded committee, and every structured error code
// survives the indirection.
func TestServiceConformanceRouter(t *testing.T) {
	exercise(t, routerService(t))
}

// TestServiceConformanceRouterHTTP runs the suite against a full
// sharded deployment: two committees behind the router behind the
// generic /v2 HTTP front, driven through the untouched client SDK.
func TestServiceConformanceRouterHTTP(t *testing.T) {
	srv := httptest.NewServer(thetacrypt.ServiceHandler(routerService(t)))
	t.Cleanup(srv.Close)
	exercise(t, client.New(srv.URL))
}

func TestServiceConformanceRemote(t *testing.T) {
	exercise(t, remoteService(t))
}

func TestServiceConformanceNodeTCP(t *testing.T) {
	exercise(t, nodeDeployment(t, nil)[0])
}

// TestRouterInfoMergesCommittees checks the router's fleet view against
// the backing committees directly: Keys (including Epoch and Members,
// after a live reshare through the router) must be exactly the union of
// the committees' keychains, Info must carry one CommitteeInfo block
// per backend with that committee's own key count and engine stats, and
// engine activity driven through the router must show up in the owning
// committee's block.
func TestRouterInfoMergesCommittees(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Distinct per-committee key names: nothing is shadowed, so the
	// union is the full fleet keychain.
	keyIDs := []string{"shard-a", "shard-b"}
	clusters := make([]*thetacrypt.Cluster, 2)
	backends := make([]thetacrypt.RouterBackend, 2)
	for i := range clusters {
		cluster, err := thetacrypt.NewCluster(1, 4, thetacrypt.ClusterOptions{
			Schemes: []thetacrypt.SchemeID{thetacrypt.SG02, thetacrypt.CKS05},
			KeyID:   keyIDs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		clusters[i] = cluster
		backends[i] = thetacrypt.RouterBackend{Name: keyIDs[i], Service: cluster}
	}
	rt := thetacrypt.NewRouter(backends...)

	// Drive work through the router so the second committee's engine has
	// activity of its own: a reshare of its key (epoch 1 -> 2).
	rh, err := rt.ReshareKey(ctx, thetacrypt.SG02, "shard-b", thetacrypt.ReshareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rres, err := rt.Wait(ctx, rh)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Err != nil || string(rres.Value) != "2" {
		t.Fatalf("reshare through router: %+v", rres)
	}

	// The union check: every key a committee lists appears in the router
	// listing with identical fields (epoch and members included), and
	// nothing else does.
	routerKeys, err := rt.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var union []thetacrypt.KeyInfo
	for _, c := range clusters {
		ks, err := c.Keys(ctx)
		if err != nil {
			t.Fatal(err)
		}
		union = append(union, ks...)
	}
	if len(routerKeys) != len(union) {
		t.Fatalf("router lists %d keys, committees hold %d", len(routerKeys), len(union))
	}
	for _, want := range union {
		found := false
		for _, got := range routerKeys {
			if got.Scheme == want.Scheme && got.KeyID == want.KeyID {
				if !sameKeyLists([]thetacrypt.KeyInfo{got}, []thetacrypt.KeyInfo{want}) {
					t.Fatalf("router key %s/%s diverges from its committee: %+v vs %+v",
						want.Scheme, want.KeyID, got, want)
				}
				found = true
			}
		}
		if !found {
			t.Fatalf("committee key %s/%s missing from router listing", want.Scheme, want.KeyID)
		}
	}
	// The reshared key reports its bumped epoch through the router.
	for _, k := range routerKeys {
		if k.Scheme == string(thetacrypt.SG02) && k.KeyID == "shard-b" && k.Epoch != 2 {
			t.Fatalf("reshared key epoch through router = %d, want 2", k.Epoch)
		}
	}

	// Info: one committee block per backend, each matching the backend's
	// own view — key counts and the engine-stats snapshot the paper's
	// operators monitor.
	info, err := rt.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeyLists(info.Keys, routerKeys) {
		t.Fatalf("Info.Keys diverges from Keys: %+v vs %+v", info.Keys, routerKeys)
	}
	if len(info.Committees) != 2 {
		t.Fatalf("got %d committee blocks, want 2", len(info.Committees))
	}
	for i, block := range info.Committees {
		cinfo, err := clusters[i].Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if block.Name != keyIDs[i] || block.Down {
			t.Fatalf("block %d: %+v", i, block)
		}
		if block.N != cinfo.N || block.T != cinfo.T || block.Keys != len(cinfo.Keys) {
			t.Fatalf("block %d diverges from committee info: %+v vs %+v", i, block, cinfo)
		}
		if block.Stats == nil {
			t.Fatalf("block %d has no engine stats", i)
		}
	}
	// The reshare ran on the second committee's engine, not the first's.
	if info.Committees[1].Stats.Finished == 0 {
		t.Fatalf("owning committee shows no finished instances: %+v", info.Committees[1].Stats)
	}
	if info.Committees[0].Stats.Finished != 0 {
		t.Fatalf("idle committee shows finished instances: %+v", info.Committees[0].Stats)
	}
}

// TestRouterFrostSigning drives two-round FROST signing end to end
// through the public API: two KG20 committees behind the router, signs
// routed by key. Every signature must verify under its committee's
// key, and each sign must have run on the owning committee alone: its
// Lagrange counters move, the other committee's stay put.
func TestRouterFrostSigning(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	const signs = 2
	keyIDs := []string{"frost-a", "frost-b"}
	clusters := make([]*thetacrypt.Cluster, 2)
	backends := make([]thetacrypt.RouterBackend, 2)
	for i := range clusters {
		cluster, err := thetacrypt.NewCluster(1, 4, thetacrypt.ClusterOptions{
			Schemes: []thetacrypt.SchemeID{thetacrypt.KG20},
			KeyID:   keyIDs[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cluster.Close)
		clusters[i] = cluster
		backends[i] = thetacrypt.RouterBackend{Name: keyIDs[i], Service: cluster}
	}
	rt := thetacrypt.NewRouter(backends...)

	finished := func() []int {
		info, err := rt.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, len(info.Committees))
		for i, block := range info.Committees {
			if block.Stats == nil || block.Stats.Crypto == nil {
				t.Fatalf("committee %s reports no crypto stats: %+v", block.Name, block)
			}
			if block.Stats.Crypto.NonceExhaustions != 0 {
				t.Fatalf("committee %s reports nonce exhaustions: %+v", block.Name, block.Stats.Crypto)
			}
			out[i] = block.Stats.Finished
		}
		return out
	}

	for i, keyID := range keyIDs {
		pk, err := thetacrypt.PublicKeyOf[*frost.PublicKey](clusters[i].KeystoreAt(1), thetacrypt.KG20, keyID)
		if err != nil {
			t.Fatal(err)
		}
		before := finished()
		for j := 0; j < signs; j++ {
			msg := []byte(fmt.Sprintf("routed %s %d", keyID, j))
			val, err := thetacrypt.Execute(ctx, rt, thetacrypt.Request{
				Scheme:  thetacrypt.KG20,
				KeyID:   keyID,
				Op:      thetacrypt.OpSign,
				Session: fmt.Sprintf("routed-%s-%d", keyID, j),
				Payload: msg,
			})
			if err != nil {
				t.Fatalf("sign %s #%d through router: %v", keyID, j, err)
			}
			sig, err := frost.UnmarshalSignature(pk.Group, val)
			if err != nil {
				t.Fatal(err)
			}
			if err := frost.Verify(pk, msg, sig); err != nil {
				t.Fatalf("signature %s #%d does not verify under its key: %v", keyID, j, err)
			}
		}
		after := finished()
		for c := range keyIDs {
			if moved := after[c] != before[c]; moved != (c == i) {
				t.Fatalf("signs under %s: committee %s finished instances %d -> %d",
					keyID, keyIDs[c], before[c], after[c])
			}
		}
	}
}

// TestKeyListsAgreeAcrossImplementations drives one tcpnet deployment
// through two Service fronts — the in-process Node and the remote
// client SDK over its HTTP handler — and checks that both report the
// identical keychain, before and after an on-demand DKG, and that a
// key generated through one front is visible and usable through the
// other on every node.
func TestKeyListsAgreeAcrossImplementations(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	nodes := nodeDeployment(t, nil)

	srv := httptest.NewServer(nodes[0].Handler())
	t.Cleanup(srv.Close)
	remote := client.New(srv.URL)
	fronts := []thetacrypt.Service{nodes[0], remote}

	baseline, err := nodes[0].Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range fronts {
		got, err := f.Keys(ctx)
		if err != nil {
			t.Fatal(err)
		}
		info, err := f.Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !sameKeyLists(got, baseline) || !sameKeyLists(info.Keys, baseline) {
			t.Fatalf("front %d keychain diverges: %+v vs %+v", i, got, baseline)
		}
	}

	// Generate through the REMOTE front; observe through both.
	kh, err := remote.GenerateKey(ctx, schemes.CKS05, api.GenerateKeyOptions{KeyID: "agreed"})
	if err != nil {
		t.Fatal(err)
	}
	kres, err := remote.Wait(ctx, kh)
	if err != nil {
		t.Fatal(err)
	}
	if kres.Err != nil || string(kres.Value) != "agreed" {
		t.Fatalf("keygen result: %+v", kres)
	}
	// Every node of the deployment landed the same key ID and public
	// key (the DKG agreement property, end to end over TCP).
	deadline := time.Now().Add(10 * time.Second)
	var ref thetacrypt.KeyInfo
	for i, node := range nodes {
		for {
			ks, err := node.Keys(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var got *thetacrypt.KeyInfo
			for j := range ks {
				if ks[j].Scheme == string(schemes.CKS05) && ks[j].KeyID == "agreed" {
					got = &ks[j]
				}
			}
			if got != nil {
				if i == 0 {
					ref = *got
				} else if !bytes.Equal(got.PublicKey, ref.PublicKey) {
					t.Fatalf("node %d landed a different public key", i+1)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never installed the generated key", i+1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// ...and the key is usable through the in-process front at once.
	coin, err := thetacrypt.Execute(ctx, nodes[0], thetacrypt.Request{
		Scheme: schemes.CKS05, KeyID: "agreed", Op: thetacrypt.OpCoin, Payload: []byte("agreed-coin"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(coin) == 0 {
		t.Fatal("empty coin under generated key")
	}
	// The remote front sees the grown keychain identically.
	after, err := nodes[0].Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rgot, err := remote.Keys(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameKeyLists(after, rgot) {
		t.Fatalf("post-keygen keychains diverge: %+v vs %+v", after, rgot)
	}
}
