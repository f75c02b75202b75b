package router_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/router"
	"thetacrypt/internal/schemes"
)

// fakeCommittee is an in-memory api.Service with scripted keys and
// results, so the routing logic is tested without running protocols.
type fakeCommittee struct {
	mu        sync.Mutex
	keys      []api.KeyInfo
	results   map[string]api.Result
	submitted []protocols.Request
	reshared  []string
	down      bool
	n, t      int
	batchErr  error
}

func newFake(n, t int, keyIDs ...string) *fakeCommittee {
	f := &fakeCommittee{n: n, t: t, results: make(map[string]api.Result)}
	for _, id := range keyIDs {
		f.keys = append(f.keys, api.KeyInfo{Scheme: string(schemes.SG02), KeyID: id, Epoch: 1})
	}
	return f
}

func (f *fakeCommittee) unavailable() error {
	return api.Errf(api.CodeUnavailable, "committee down")
}

func (f *fakeCommittee) Submit(ctx context.Context, req protocols.Request) (api.Handle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return api.Handle{}, f.unavailable()
	}
	f.submitted = append(f.submitted, req)
	return api.Handle{InstanceID: req.InstanceID()}, nil
}

func (f *fakeCommittee) SubmitBatch(ctx context.Context, reqs []protocols.Request) ([]api.Handle, error) {
	if f.batchErr != nil {
		return nil, f.batchErr
	}
	hs := make([]api.Handle, len(reqs))
	for i, req := range reqs {
		h, err := f.Submit(ctx, req)
		if err != nil {
			return nil, err
		}
		hs[i] = h
	}
	return hs, nil
}

func (f *fakeCommittee) Wait(ctx context.Context, h api.Handle) (api.Result, error) {
	f.mu.Lock()
	res, ok := f.results[h.InstanceID]
	f.mu.Unlock()
	if ok {
		return res, nil
	}
	<-ctx.Done()
	return api.Result{}, ctx.Err()
}

func (f *fakeCommittee) Encrypt(ctx context.Context, scheme schemes.ID, keyID string, message, label []byte) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range f.keys {
		if k.Scheme == string(scheme) && k.KeyID == keyID {
			return append([]byte("ct:"), message...), nil
		}
	}
	return nil, api.Errf(api.CodeKeyUnknown, "no key %s/%s", scheme, keyID)
}

func (f *fakeCommittee) Info(ctx context.Context) (api.Info, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return api.Info{}, f.unavailable()
	}
	set := make(map[schemes.ID]bool)
	var present []schemes.ID
	for _, k := range f.keys {
		if id := schemes.ID(k.Scheme); !set[id] {
			set[id] = true
			present = append(present, id)
		}
	}
	return api.Info{N: f.n, T: f.t, Schemes: present, Keys: f.keys,
		Stats: &api.EngineStats{}}, nil
}

func (f *fakeCommittee) Keys(ctx context.Context) ([]api.KeyInfo, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.down {
		return nil, f.unavailable()
	}
	return append([]api.KeyInfo(nil), f.keys...), nil
}

func (f *fakeCommittee) GenerateKey(ctx context.Context, scheme schemes.ID, opts api.GenerateKeyOptions) (api.Handle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, k := range f.keys {
		if k.Scheme == string(scheme) && k.KeyID == opts.KeyID {
			return api.Handle{}, api.Errf(api.CodeKeyExists, "key %s/%s exists", scheme, opts.KeyID)
		}
	}
	f.keys = append(f.keys, api.KeyInfo{Scheme: string(scheme), KeyID: opts.KeyID, Epoch: 1})
	return api.Handle{InstanceID: "keygen-" + opts.KeyID}, nil
}

func (f *fakeCommittee) ReshareKey(ctx context.Context, scheme schemes.ID, keyID string, opts api.ReshareOptions) (api.Handle, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, k := range f.keys {
		if k.Scheme == string(scheme) && k.KeyID == keyID {
			f.keys[i].Epoch++
			f.reshared = append(f.reshared, keyID)
			return api.Handle{InstanceID: "reshare-" + keyID}, nil
		}
	}
	return api.Handle{}, api.Errf(api.CodeKeyUnknown, "no key %s/%s", scheme, keyID)
}

var _ api.Service = (*fakeCommittee)(nil)

func signReq(keyID, session string) protocols.Request {
	return protocols.Request{
		Scheme:  schemes.SG02,
		KeyID:   keyID,
		Op:      protocols.OpSign,
		Payload: []byte("msg"),
		Session: session,
	}
}

func twoCommittees() (*fakeCommittee, *fakeCommittee, *router.Router) {
	a := newFake(4, 1, "shard-0")
	b := newFake(4, 1, "shard-1")
	rt := router.New([]router.Backend{
		{Name: "alpha", Service: a},
		{Name: "beta", Service: b},
	})
	return a, b, rt
}

func TestSubmitRoutesByKey(t *testing.T) {
	a, b, rt := twoCommittees()
	ctx := context.Background()

	h, err := rt.Submit(ctx, signReq("shard-1", "s1"))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(b.submitted) != 1 || len(a.submitted) != 0 {
		t.Fatalf("request routed to (a=%d, b=%d) submissions, want (0, 1)", len(a.submitted), len(b.submitted))
	}

	// The handle's owner is cached: Wait goes straight to beta.
	b.results[h.InstanceID] = api.Result{InstanceID: h.InstanceID, Value: []byte("sig")}
	res, err := rt.Wait(ctx, h)
	if err != nil || string(res.Value) != "sig" {
		t.Fatalf("Wait = (%q, %v), want sig", res.Value, err)
	}

	if _, err := rt.Submit(ctx, signReq("nobody-has-this", "s2")); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unknown key: code %q, want %q", api.CodeOf(err), api.CodeKeyUnknown)
	}
	if _, err := rt.Submit(ctx, protocols.Request{Scheme: "NOPE", Op: protocols.OpSign, Payload: []byte("m")}); api.CodeOf(err) != api.CodeSchemeUnknown {
		t.Fatalf("bad scheme: code %q, want %q", api.CodeOf(err), api.CodeSchemeUnknown)
	}
}

func TestSubmitBatchScatterGather(t *testing.T) {
	a, b, rt := twoCommittees()
	ctx := context.Background()

	reqs := []protocols.Request{
		signReq("shard-0", "b0"),
		signReq("shard-1", "b1"),
		signReq("shard-0", "b2"),
		signReq("shard-1", "b3"),
	}
	hs, err := rt.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	if len(hs) != len(reqs) {
		t.Fatalf("got %d handles, want %d", len(hs), len(reqs))
	}
	// Handles come back in request order, regardless of scatter order.
	for i, h := range hs {
		if h.InstanceID != reqs[i].InstanceID() {
			t.Fatalf("handle %d = %q, want %q", i, h.InstanceID, reqs[i].InstanceID())
		}
	}
	if len(a.submitted) != 2 || len(b.submitted) != 2 {
		t.Fatalf("scatter split (a=%d, b=%d), want (2, 2)", len(a.submitted), len(b.submitted))
	}

	// A batch with an unroutable item is rejected whole, like an invalid
	// item on a single committee.
	bad := append(append([]protocols.Request(nil), reqs...), signReq("missing", "b4"))
	if _, err := rt.SubmitBatch(ctx, bad); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unroutable batch item: code %q, want %q", api.CodeOf(err), api.CodeKeyUnknown)
	}

	// A committee failing its sub-batch surfaces with its name and the
	// typed code intact through the aggregation.
	b.batchErr = api.Errf(api.CodeOverloaded, "queue full")
	_, err = rt.SubmitBatch(ctx, reqs)
	if api.CodeOf(err) != api.CodeOverloaded {
		t.Fatalf("scatter failure: code %q, want %q", api.CodeOf(err), api.CodeOverloaded)
	}
	if err == nil || !strings.Contains(err.Error(), `committee "beta"`) {
		t.Fatalf("scatter failure %v should name the committee", err)
	}
}

func TestWaitScatterFallback(t *testing.T) {
	_, b, rt := twoCommittees()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	// The handle was accepted by another router replica: this router has
	// no owner cache entry and must scatter.
	b.results["mystery"] = api.Result{InstanceID: "mystery", Value: []byte("found")}
	res, err := rt.Wait(ctx, api.Handle{InstanceID: "mystery"})
	if err != nil || string(res.Value) != "found" {
		t.Fatalf("scatter Wait = (%q, %v), want found", res.Value, err)
	}

	// The winner was cached: a second Wait hits beta directly (alpha
	// would block forever, so a short deadline catches a wrong route).
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if _, err := rt.Wait(ctx2, api.Handle{InstanceID: "mystery"}); err != nil {
		t.Fatalf("cached Wait: %v", err)
	}
}

func TestWaitEachStreamsAcrossCommittees(t *testing.T) {
	a, b, rt := twoCommittees()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	reqs := []protocols.Request{signReq("shard-0", "w0"), signReq("shard-1", "w1")}
	hs, err := rt.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatalf("SubmitBatch: %v", err)
	}
	a.results[hs[0].InstanceID] = api.Result{InstanceID: hs[0].InstanceID, Value: []byte("r0")}
	b.results[hs[1].InstanceID] = api.Result{InstanceID: hs[1].InstanceID, Value: []byte("r1")}

	results, err := api.WaitAll(ctx, rt, hs)
	if err != nil {
		t.Fatalf("WaitAll: %v", err)
	}
	if string(results[0].Value) != "r0" || string(results[1].Value) != "r1" {
		t.Fatalf("WaitAll order mixed up: %q, %q", results[0].Value, results[1].Value)
	}
}

func TestEncryptCheckOrder(t *testing.T) {
	_, _, rt := twoCommittees()
	ctx := context.Background()
	msg := []byte("m")

	if _, err := rt.Encrypt(ctx, "NOPE", "", msg, nil); api.CodeOf(err) != api.CodeSchemeUnknown {
		t.Fatalf("unknown scheme: code %q", api.CodeOf(err))
	}
	if _, err := rt.Encrypt(ctx, schemes.CKS05, "", msg, nil); api.CodeOf(err) != api.CodeSchemeNotCipher {
		t.Fatalf("non-cipher scheme: code %q", api.CodeOf(err))
	}
	if _, err := rt.Encrypt(ctx, schemes.BZ03, "", msg, nil); api.CodeOf(err) != api.CodeSchemeNoKeys {
		t.Fatalf("scheme without keys: code %q", api.CodeOf(err))
	}
	if _, err := rt.Encrypt(ctx, schemes.SG02, "missing", msg, nil); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unknown key: code %q", api.CodeOf(err))
	}
	ct, err := rt.Encrypt(ctx, schemes.SG02, "shard-1", msg, nil)
	if err != nil || string(ct) != "ct:m" {
		t.Fatalf("Encrypt = (%q, %v)", ct, err)
	}
}

func TestGenerateKeyPlacement(t *testing.T) {
	a, b, rt := twoCommittees()
	ctx := context.Background()

	// alpha gets an extra key, so beta is least-loaded.
	a.keys = append(a.keys, api.KeyInfo{Scheme: string(schemes.CKS05), KeyID: "extra", Epoch: 1})

	if _, err := rt.GenerateKey(ctx, schemes.CKS05, api.GenerateKeyOptions{KeyID: "fresh"}); err != nil {
		t.Fatalf("GenerateKey: %v", err)
	}
	if _, err := b.Keys(ctx); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range b.keys {
		if k.KeyID == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatalf("fresh key not placed on the least-loaded committee; beta keys: %+v", b.keys)
	}

	// Generating the same name again routes to the owner, which rejects.
	if _, err := rt.GenerateKey(ctx, schemes.CKS05, api.GenerateKeyOptions{KeyID: "fresh"}); api.CodeOf(err) != api.CodeKeyExists {
		t.Fatalf("duplicate keygen: code %q, want %q", api.CodeOf(err), api.CodeKeyExists)
	}
}

func TestReshareRoutesToOwner(t *testing.T) {
	a, b, rt := twoCommittees()
	ctx := context.Background()

	if _, err := rt.ReshareKey(ctx, schemes.SG02, "shard-1", api.ReshareOptions{}); err != nil {
		t.Fatalf("ReshareKey: %v", err)
	}
	if len(b.reshared) != 1 || len(a.reshared) != 0 {
		t.Fatalf("reshare hit (a=%d, b=%d), want (0, 1)", len(a.reshared), len(b.reshared))
	}
	if b.keys[0].Epoch != 2 {
		t.Fatalf("owner epoch = %d, want 2", b.keys[0].Epoch)
	}
	if _, err := rt.ReshareKey(ctx, schemes.SG02, "missing", api.ReshareOptions{}); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unknown key reshare: code %q", api.CodeOf(err))
	}
}

func TestInfoMergesFleetAndMarksDown(t *testing.T) {
	a, b, rt := twoCommittees()
	ctx := context.Background()

	// Seed the placement while both are up, then take beta down.
	if _, err := rt.Keys(ctx); err != nil {
		t.Fatal(err)
	}
	b.down = true

	info, err := rt.Info(ctx)
	if err != nil {
		t.Fatalf("Info with one committee down: %v", err)
	}
	if len(info.Committees) != 2 {
		t.Fatalf("got %d committee blocks, want 2", len(info.Committees))
	}
	if info.Committees[0].Down || info.Committees[0].Name != "alpha" {
		t.Fatalf("alpha block wrong: %+v", info.Committees[0])
	}
	if !info.Committees[1].Down || info.Committees[1].Error == "" {
		t.Fatalf("beta should be marked down with an error: %+v", info.Committees[1])
	}
	if info.N != a.n || info.T != a.t {
		t.Fatalf("merged N/T = %d/%d, want the reachable committee's %d/%d", info.N, info.T, a.n, a.t)
	}
	// The down committee's keys vanish from the union until it returns.
	for _, k := range info.Keys {
		if k.KeyID == "shard-1" {
			t.Fatalf("down committee's key still listed: %+v", info.Keys)
		}
	}

	a.down = true
	if _, err := rt.Info(ctx); err == nil {
		t.Fatal("Info with every committee down should fail")
	}
	if _, err := rt.Keys(ctx); err == nil {
		t.Fatal("Keys with every committee down should fail")
	}
}

func TestKeysUnionShadowsDuplicates(t *testing.T) {
	// Both committees were dealt the same default key ID: the first
	// backend wins, the duplicate is shadowed, and the union lists it
	// once — so a router over identically-dealt committees looks like
	// one committee.
	a := newFake(4, 1, "default", "only-a")
	b := newFake(4, 1, "default", "only-b")
	rt := router.New([]router.Backend{{Service: a}, {Service: b}})

	keyList, err := rt.Keys(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	for _, k := range keyList {
		counts[k.KeyID]++
	}
	if counts["default"] != 1 || counts["only-a"] != 1 || counts["only-b"] != 1 {
		t.Fatalf("union = %+v, want default once and both uniques", counts)
	}

	// The shadowed copy is unreachable: requests for the duplicate go to
	// the first backend.
	if _, err := rt.Submit(context.Background(), signReq("default", "dup")); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if len(a.submitted) != 1 || len(b.submitted) != 0 {
		t.Fatalf("duplicate key routed to (a=%d, b=%d), want (1, 0)", len(a.submitted), len(b.submitted))
	}
}

func TestKeyResolvesOwningCommittee(t *testing.T) {
	_, _, rt := twoCommittees()
	ctx := context.Background()

	// Each shard's key is fetched from its owning committee.
	k0, err := rt.Key(ctx, schemes.SG02, "shard-0")
	if err != nil {
		t.Fatal(err)
	}
	if k0.KeyID != "shard-0" {
		t.Fatalf("fetched %+v", k0)
	}
	k1, err := rt.Key(ctx, schemes.SG02, "shard-1")
	if err != nil {
		t.Fatal(err)
	}
	if k1.KeyID != "shard-1" {
		t.Fatalf("fetched %+v", k1)
	}

	// A key nobody holds is key_unknown; a scheme outside the registry
	// is scheme_unknown, checked before placement.
	if _, err := rt.Key(ctx, schemes.SG02, "no-such"); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("unknown key: %v (code %s)", err, api.CodeOf(err))
	}
	if _, err := rt.Key(ctx, "NOPE", "shard-0"); api.CodeOf(err) != api.CodeSchemeUnknown {
		t.Fatalf("unknown scheme: %v (code %s)", err, api.CodeOf(err))
	}

	// A reshare through the router is visible in the fetched epoch.
	if _, err := rt.ReshareKey(ctx, schemes.SG02, "shard-1", api.ReshareOptions{}); err != nil {
		t.Fatal(err)
	}
	k1, err = rt.Key(ctx, schemes.SG02, "shard-1")
	if err != nil {
		t.Fatal(err)
	}
	if k1.Epoch != 2 {
		t.Fatalf("post-reshare fetch epoch %d, want 2", k1.Epoch)
	}
}
