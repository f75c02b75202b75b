package service

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"thetacrypt/api"
	"thetacrypt/client"
	"thetacrypt/internal/committee"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
)

// countingHandler counts HTTP requests reaching a node's service layer,
// the round-trip metric of the batch-amortization test.
type countingHandler struct {
	h http.Handler
	n atomic.Int64
}

func (c *countingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.n.Add(1)
	c.h.ServeHTTP(w, r)
}

// testServiceV2 spins up a full 4-node Θ-network with HTTP front ends
// and returns v2 SDK clients plus per-node request counters.
func testServiceV2(t *testing.T) ([]*client.Client, []*keys.Keystore, []*countingHandler) {
	t.Helper()
	const tt, n = 1, 4
	com, err := committee.New(tt, n, committee.Config{
		Schemes: []schemes.ID{schemes.SG02, schemes.BLS04, schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(com.Close)
	clients := make([]*client.Client, n)
	nodes := make([]*keys.Keystore, n)
	counters := make([]*countingHandler, n)
	for i := 0; i < n; i++ {
		unit := com.UnitAt(i + 1)
		nodes[i] = unit.Store
		counters[i] = &countingHandler{h: NewFront(unit)}
		srv := httptest.NewServer(counters[i])
		clients[i] = client.New(srv.URL)
		t.Cleanup(srv.Close)
	}
	return clients, nodes, counters
}

// partialServiceV2 starts only one engine of a 4-node deployment, so no
// instance ever reaches its t+1 = 2 quorum: the fixture for deadline
// and timeout paths.
func partialServiceV2(t *testing.T) *client.Client {
	t.Helper()
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.BLS04},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(4, memnet.Options{})
	engine := orchestration.New(orchestration.Config{
		Keys: nodes[0],
		Net:  hub.Endpoint(1),
	})
	srv := httptest.NewServer(NewFront(committee.Unit{Store: nodes[0], Engine: engine}))
	t.Cleanup(srv.Close)
	t.Cleanup(engine.Stop)
	t.Cleanup(hub.Close)
	return client.New(srv.URL)
}

func TestV2SignThroughSDK(t *testing.T) {
	clients, nodes, _ := testServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	msg := []byte("v2 signature")
	h, err := clients[1].Submit(ctx, protocols.Request{
		Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: msg,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := clients[1].Wait(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	sig, err := bls04.UnmarshalSignature(res.Value)
	if err != nil {
		t.Fatal(err)
	}
	if err := bls04.Verify(keys.MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04), msg, sig); err != nil {
		t.Fatal(err)
	}
	// Any node serves the result of the shared instance.
	res2, err := clients[3].Wait(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if string(res2.Value) != string(res.Value) {
		t.Fatal("nodes disagree on result")
	}
}

func TestV2InfoThroughSDK(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	info, err := clients[2].Info(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.NodeIndex != 3 || info.N != 4 || info.T != 1 || len(info.Schemes) != 3 {
		t.Fatalf("unexpected info: %+v", info)
	}
	// The engine snapshot carries the transport's per-peer health, so a
	// remote operator can spot a lagging peer from /v2/info alone.
	if info.Stats == nil || info.Stats.Transport == nil {
		t.Fatalf("info stats missing transport health: %+v", info.Stats)
	}
	if got := len(info.Stats.Transport.Peers); got != 3 {
		t.Fatalf("transport reports %d peers, want 3", got)
	}
	for _, ps := range info.Stats.Transport.Peers {
		if ps.State != "up" || ps.QueueCap == 0 {
			t.Fatalf("peer %d health = %+v, want up with a bounded queue", ps.Peer, ps)
		}
	}
	if !info.Stats.Transport.Reliable {
		t.Fatalf("transport not reporting the ack layer: %+v", info.Stats.Transport)
	}
}

// TestV2InfoReportsDeliveredCounters drives one instance through the
// deployment and asserts /v2/info exposes the ack layer's per-peer
// delivered/inflight accounting: the submitting node must eventually
// see its round broadcast acknowledged by every peer, with nothing
// left in flight.
func TestV2InfoReportsDeliveredCounters(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h, err := clients[0].Submit(ctx, protocols.Request{
		Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("delivered-stats"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := clients[0].Wait(ctx, h); err != nil || res.Err != nil {
		t.Fatalf("wait: %v / %v", err, res.Err)
	}

	deadline := time.Now().Add(10 * time.Second)
	var last *api.TransportStats
	for time.Now().Before(deadline) {
		info, err := clients[0].Info(ctx)
		if err != nil {
			t.Fatal(err)
		}
		last = info.Stats.Transport
		allAcked := last != nil && len(last.Peers) == 3
		if allAcked {
			for _, ps := range last.Peers {
				if ps.Delivered < 1 || ps.Inflight != 0 {
					allAcked = false
				}
			}
		}
		if allAcked {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("per-peer delivery never fully acknowledged in /v2/info: %+v", last)
}

func TestV2UnknownSchemeThroughSDK(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	_, err := clients[0].Submit(context.Background(), protocols.Request{
		Scheme: "NOPE", Op: protocols.OpSign, Payload: []byte("x"),
	})
	if api.CodeOf(err) != api.CodeSchemeUnknown {
		t.Fatalf("want %s, got %v (code %s)", api.CodeSchemeUnknown, err, api.CodeOf(err))
	}
}

func TestV2UnknownOpThroughSDK(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	_, err := clients[0].Submit(context.Background(), protocols.Request{
		Scheme: schemes.BLS04, Op: protocols.Operation(9), Payload: []byte("x"),
	})
	if api.CodeOf(err) != api.CodeOpUnknown {
		t.Fatalf("want %s, got %v (code %s)", api.CodeOpUnknown, err, api.CodeOf(err))
	}
}

// postRaw sends a raw body to a v2 endpoint and decodes the structured
// error envelope.
func postRaw(t *testing.T, url, body string) (int, *api.Error) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 400 {
		return resp.StatusCode, nil
	}
	var envelope api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatalf("non-2xx response without structured error: %v", err)
	}
	return resp.StatusCode, envelope.Error
}

func TestV2MalformedJSON(t *testing.T) {
	_, _, counters := testServiceV2(t)
	srv := httptest.NewServer(counters[0])
	t.Cleanup(srv.Close)
	status, e := postRaw(t, srv.URL+"/v2/protocol/submit", "{not json")
	if status != http.StatusBadRequest || e == nil || e.Code != api.CodeBadRequest {
		t.Fatalf("status %d error %+v", status, e)
	}
	status, e = postRaw(t, srv.URL+"/v2/scheme/encrypt", "[]")
	if status != http.StatusBadRequest || e == nil || e.Code != api.CodeBadRequest {
		t.Fatalf("status %d error %+v", status, e)
	}
}

func TestV2EmptyBatch(t *testing.T) {
	_, _, counters := testServiceV2(t)
	srv := httptest.NewServer(counters[0])
	t.Cleanup(srv.Close)
	status, e := postRaw(t, srv.URL+"/v2/protocol/submit", `{"requests":[]}`)
	if status != http.StatusBadRequest || e == nil || e.Code != api.CodeBadRequest {
		t.Fatalf("status %d error %+v", status, e)
	}
}

func TestV2EncryptErrors(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	ctx := context.Background()
	// BZ03 is a cipher, but this deployment dealt no BZ03 keys.
	_, err := clients[0].Encrypt(ctx, schemes.BZ03, "", []byte("x"), nil)
	if api.CodeOf(err) != api.CodeSchemeNoKeys {
		t.Fatalf("want %s, got %v", api.CodeSchemeNoKeys, err)
	}
	// BLS04 exists but does not encrypt.
	_, err = clients[0].Encrypt(ctx, schemes.BLS04, "", []byte("x"), nil)
	if api.CodeOf(err) != api.CodeSchemeNotCipher {
		t.Fatalf("want %s, got %v", api.CodeSchemeNotCipher, err)
	}
	// Unknown scheme.
	_, err = clients[0].Encrypt(ctx, "NOPE", "", []byte("x"), nil)
	if api.CodeOf(err) != api.CodeSchemeUnknown {
		t.Fatalf("want %s, got %v", api.CodeSchemeUnknown, err)
	}
}

// TestV2IdempotentDuplicateSubmit runs over a front on one node's Unit
// and over a front on a whole embedded Committee, which serves through
// its node 1 Unit: both flag the re-submission as a duplicate.
func TestV2IdempotentDuplicateSubmit(t *testing.T) {
	_, _, counters := testServiceV2(t)
	com, err := committee.New(1, 4, committee.Config{Schemes: []schemes.ID{schemes.CKS05}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(com.Close)
	for name, h := range map[string]http.Handler{"unit": counters[0], "committee": NewFront(com)} {
		t.Run(name, func(t *testing.T) { idempotentDuplicateSubmit(t, h) })
	}
}

func idempotentDuplicateSubmit(t *testing.T, h http.Handler) {
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL)
	body := `{"requests":[{"scheme":"CKS05","op":"coin","payload":"ZHVw","session":"dup-1"}]}`

	resp1, err := http.Post(srv.URL+"/v2/protocol/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out1 api.SubmitBatchResponse
	if err := json.NewDecoder(resp1.Body).Decode(&out1); err != nil {
		t.Fatal(err)
	}
	resp1.Body.Close()
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp1.StatusCode)
	}
	if len(out1.Results) != 1 || out1.Results[0].Duplicate || out1.Results[0].InstanceID == "" {
		t.Fatalf("first submit: %+v", out1.Results)
	}

	// Duplicate detection is a snapshot of the engine's instance table
	// (Engine.SubmitBatch), and the 202 above only says the request was
	// queued: wait until the worker has taken it before re-submitting.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := cl.Wait(ctx, api.Handle{InstanceID: out1.Results[0].InstanceID}); err != nil {
		t.Fatal(err)
	}

	// Identical re-submission: 200, same handle, flagged duplicate.
	resp2, err := http.Post(srv.URL+"/v2/protocol/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out2 api.SubmitBatchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: status %d", resp2.StatusCode)
	}
	if !out2.Results[0].Duplicate || out2.Results[0].InstanceID != out1.Results[0].InstanceID {
		t.Fatalf("duplicate submit: %+v", out2.Results)
	}

	// The SDK surfaces the same flag, and the duplicate still resolves
	// to the shared instance's result.
	req := protocols.Request{
		Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("dup"), Session: "dup-1",
	}
	entries, err := cl.SubmitDetailed(ctx, []protocols.Request{req})
	if err != nil {
		t.Fatal(err)
	}
	if !entries[0].Duplicate {
		t.Fatalf("SDK re-submission not flagged duplicate: %+v", entries[0])
	}
	res, err := cl.Wait(ctx, api.Handle{InstanceID: entries[0].InstanceID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || len(res.Value) == 0 {
		t.Fatalf("duplicate instance result: %+v", res)
	}
}

func TestV2WaitContextDeadline(t *testing.T) {
	cl := partialServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// The deployment has one live node of four: no quorum, no result.
	h, err := cl.Submit(ctx, protocols.Request{
		Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: []byte("never finishes"),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 400*time.Millisecond)
	defer waitCancel()
	start := time.Now()
	_, err = cl.Wait(waitCtx, h)
	if err == nil {
		t.Fatal("wait on quorum-less instance succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) && api.CodeOf(err) != api.CodeTimeout {
		t.Fatalf("want deadline error, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("wait did not respect deadline: %v", elapsed)
	}
}

func TestV2PerRequestDeadline(t *testing.T) {
	cl := partialServiceV2(t)
	// The submit context's deadline becomes the per-request deadline on
	// the server (timeout_ms).
	submitCtx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	h, err := cl.Submit(submitCtx, protocols.Request{
		Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: []byte("deadline-bound"),
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	// Waiting with a generous context still resolves at the request's
	// own deadline, as a structured timeout inside the result.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	res, err := cl.Wait(waitCtx, h)
	if err != nil {
		t.Fatal(err)
	}
	if api.CodeOf(res.Err) != api.CodeTimeout {
		t.Fatalf("want %s inside result, got %+v", api.CodeTimeout, res)
	}
}

// TestV2HugeTimeoutDoesNotWrap: timeout_ms = MaxInt64 on both
// endpoints means "as long as allowed". The submitted request's
// deadline lies ahead, so a short poll finds it pending rather than
// timed out; and a long poll waits rather than returning at once. A
// wrapped millisecond conversion turns both into a negative duration.
func TestV2HugeTimeoutDoesNotWrap(t *testing.T) {
	base := clientBase(t, partialServiceV2(t))
	const huge = "9223372036854775807"
	resp := postJSONRaw(t, base+"/v2/protocol/submit",
		`{"requests":[{"scheme":"BLS04","op":"sign","payload":"aHVnZQ==","timeout_ms":`+huge+`}]}`)
	var sub api.SubmitBatchResponse
	err := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || len(sub.Results) != 1 {
		t.Fatalf("submit: status %d body %+v (%v)", resp.StatusCode, sub, err)
	}
	id := sub.Results[0].InstanceID

	var out api.ResultsResponse
	getJSON(t, base+"/v2/protocol/results?timeout_ms=100&ids="+id, &out)
	if len(out.Results) != 1 || out.Results[0].Done || out.Results[0].Error != nil {
		t.Fatalf("short poll: %+v, want the request pending", out)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v2/protocol/results?timeout_ms="+huge+"&ids="+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := http.DefaultClient.Do(req); !errors.Is(err, context.DeadlineExceeded) {
		if err == nil {
			resp.Body.Close()
		}
		t.Fatalf("long poll with the largest timeout_ms answered within 300ms (%v)", err)
	}
}

// TestV2BatchFewerRoundTrips is the acceptance benchmark: a batch of 32
// requests over HTTP completes in a handful of round-trips — one POST
// for the batch, one SSE stream for all results — where one-at-a-time
// submit+poll cycles would take 64.
func TestV2BatchFewerRoundTrips(t *testing.T) {
	_, _, counters := testServiceV2(t)
	srv := httptest.NewServer(counters[0])
	t.Cleanup(srv.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	const batchSize = 32

	v2 := client.New(srv.URL)
	reqs := make([]protocols.Request, batchSize)
	for i := range reqs {
		reqs[i] = protocols.Request{
			Scheme: schemes.CKS05, Op: protocols.OpCoin,
			Payload: []byte("rt"), Session: fmt.Sprintf("v2-%d", i),
		}
	}
	before := counters[0].n.Load()
	hs, err := v2.SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := api.WaitAll(ctx, v2, hs)
	if err != nil {
		t.Fatal(err)
	}
	v2Trips := counters[0].n.Load() - before

	for i, res := range results {
		if res.Err != nil {
			t.Fatalf("batch request %d failed: %v", i, res.Err)
		}
		if res.InstanceID != hs[i].InstanceID {
			t.Fatalf("result %d out of order: %s != %s", i, res.InstanceID, hs[i].InstanceID)
		}
		if len(res.Value) == 0 {
			t.Fatalf("batch request %d: empty coin", i)
		}
	}
	if v2Trips > 4 {
		t.Fatalf("batch of %d took %d round-trips, want a handful", batchSize, v2Trips)
	}
	t.Logf("round-trips: v2 batch=%d", v2Trips)
	if v2.RoundTrips() != v2Trips {
		t.Fatalf("client round-trip counter %d disagrees with server count %d", v2.RoundTrips(), v2Trips)
	}
}

// TestV2StreamDeliversAsInstancesFinish exercises the SSE path with
// results arriving over a single connection.
func TestV2SSEStream(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	reqs := make([]protocols.Request, 5)
	for i := range reqs {
		reqs[i] = protocols.Request{
			Scheme: schemes.CKS05, Op: protocols.OpCoin,
			Payload: []byte("sse"), Session: fmt.Sprintf("sse-%d", i),
		}
	}
	hs, err := clients[2].SubmitBatch(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	results, err := api.WaitAll(ctx, clients[2], hs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(hs) {
		t.Fatalf("got %d results for %d handles", len(results), len(hs))
	}
	for i, res := range results {
		if res.Err != nil || len(res.Value) == 0 {
			t.Fatalf("stream result %d: %+v", i, res)
		}
	}
}

// TestInfoEndpoint pins the raw GET /v2/info body: API version,
// answering node, deployment parameters, and the dealt schemes.
func TestInfoEndpoint(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	var info api.InfoResponse
	getJSON(t, clientBase(t, clients[0])+"/v2/info", &info)
	if info.APIVersion != 2 || info.NodeIndex != 1 || info.N != 4 || info.T != 1 {
		t.Fatalf("unexpected info: %+v", info)
	}
	if len(info.Schemes) != 3 {
		t.Fatalf("schemes: %v", info.Schemes)
	}
}

// TestSignOverHTTP drives a threshold signature over the raw wire:
// submit at node 2, long-poll the result at node 4.
func TestSignOverHTTP(t *testing.T) {
	clients, nodes, _ := testServiceV2(t)
	msg := []byte("http sig")
	resp := postJSONRaw(t, clientBase(t, clients[1])+"/v2/protocol/submit",
		`{"requests":[{"scheme":"BLS04","op":"sign","payload":"aHR0cCBzaWc="}]}`)
	var sub api.SubmitBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(sub.Results) != 1 || sub.Results[0].InstanceID == "" {
		t.Fatalf("submit: status %d body %+v", resp.StatusCode, sub)
	}
	var out api.ResultsResponse
	getJSON(t, clientBase(t, clients[3])+"/v2/protocol/results?timeout_ms=30000&ids="+sub.Results[0].InstanceID, &out)
	if len(out.Results) != 1 || !out.Results[0].Done || out.Results[0].Error != nil {
		t.Fatalf("results: %+v", out)
	}
	sig, err := bls04.UnmarshalSignature(out.Results[0].Value)
	if err != nil {
		t.Fatal(err)
	}
	if err := bls04.Verify(keys.MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04), msg, sig); err != nil {
		t.Fatal(err)
	}
}

// TestEncryptThenThresholdDecrypt: the scheme API encrypts locally at
// node 3, the protocol API decrypts through the Θ-network at node 1.
func TestEncryptThenThresholdDecrypt(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ct, err := clients[2].Encrypt(ctx, schemes.SG02, "", []byte("pending tx"), []byte("L"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := api.Execute(ctx, clients[0], protocols.Request{
		Scheme: schemes.SG02, Op: protocols.OpDecrypt, Payload: ct,
	})
	if err != nil {
		t.Fatal(err)
	}
	if string(pt) != "pending tx" {
		t.Fatalf("decrypted %q", pt)
	}
}

func TestCoinOverHTTP(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	coin, err := api.Execute(ctx, clients[0], protocols.Request{
		Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("beacon-0"), Session: "s1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(coin) != 32 {
		t.Fatalf("coin %d bytes", len(coin))
	}
}

// TestBadRequests: defective items of a batch fail one by one with
// their codes while the valid item starts (202), and encryption under
// a signature scheme is refused outright.
func TestBadRequests(t *testing.T) {
	clients, _, _ := testServiceV2(t)
	base := clientBase(t, clients[0])
	resp := postJSONRaw(t, base+"/v2/protocol/submit", `{"requests":[
		{"scheme":"NOPE","op":"sign","payload":"eA=="},
		{"scheme":"BLS04","op":"frobnicate","payload":"eA=="},
		{"scheme":"CKS05","op":"coin","payload":"eA==","session":"bad-requests"}]}`)
	var sub api.SubmitBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(sub.Results) != 3 {
		t.Fatalf("mixed batch: status %d body %+v", resp.StatusCode, sub)
	}
	for i, want := range []api.Code{api.CodeSchemeUnknown, api.CodeOpUnknown} {
		if e := sub.Results[i].Error; e == nil || e.Code != want || sub.Results[i].InstanceID != "" {
			t.Fatalf("item %d: %+v, want %s", i, sub.Results[i], want)
		}
	}
	if sub.Results[2].Error != nil || sub.Results[2].InstanceID == "" {
		t.Fatalf("valid item: %+v", sub.Results[2])
	}
	status, e := postRaw(t, base+"/v2/scheme/encrypt", `{"scheme":"BLS04","message":"eA=="}`)
	if status != http.StatusBadRequest || e == nil || e.Code != api.CodeSchemeNotCipher {
		t.Fatalf("encrypt under signature scheme: status %d error %+v", status, e)
	}
}

// TestKeysEndpoints pins the raw HTTP contract of the keychain API:
// GET /v2/keys lists the keychain, POST /v2/keys runs a DKG whose
// instance resolves to the key ID on the ordinary results endpoint,
// the generated key is listed by every node and usable for submission
// under its ID, and the typed key errors carry their HTTP statuses
// (key_unknown 404, key_exists 409).
func TestKeysEndpoints(t *testing.T) {
	clients, nodes, _ := testServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	base := clientBase(t, clients[0])

	// GET /v2/keys: one default key per dealt scheme.
	var list api.KeysResponse
	getJSON(t, base+"/v2/keys", &list)
	if len(list.Keys) != 3 {
		t.Fatalf("keychain: %+v", list.Keys)
	}
	for _, k := range list.Keys {
		if k.KeyID != keys.DefaultKeyID || !k.Default || len(k.PublicKey) == 0 {
			t.Fatalf("dealt key listing wrong: %+v", k)
		}
	}

	// POST /v2/keys: 202 with instance handle and key id.
	resp := postJSONRaw(t, base+"/v2/keys", `{"scheme":"CKS05","key_id":"http-key"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("generate status %d", resp.StatusCode)
	}
	var gen api.GenerateKeyResponse
	if err := json.NewDecoder(resp.Body).Decode(&gen); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if gen.KeyID != "http-key" || gen.InstanceID == "" {
		t.Fatalf("generate response: %+v", gen)
	}
	// The keygen instance resolves on the ordinary results path with
	// the key ID as its value.
	res, err := clients[0].Wait(ctx, api.Handle{InstanceID: gen.InstanceID})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil || string(res.Value) != "http-key" {
		t.Fatalf("keygen result: %+v", res)
	}
	// Every node lists the generated key with the same public material.
	var ref []byte
	for i := range clients {
		deadline := time.Now().Add(10 * time.Second)
		for {
			ks, err := clients[i].Keys(ctx)
			if err != nil {
				t.Fatal(err)
			}
			var pub []byte
			for _, k := range ks {
				if k.Scheme == "CKS05" && k.KeyID == "http-key" {
					pub = k.PublicKey
				}
			}
			if pub != nil {
				if i == 0 {
					ref = pub
				} else if string(pub) != string(ref) {
					t.Fatalf("node %d public key differs", i+1)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d never listed the generated key", i+1)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// The key is usable for submission under its ID, from any node.
	coin, err := api.Execute(ctx, clients[1], protocols.Request{
		Scheme: schemes.CKS05, KeyID: "http-key", Op: protocols.OpCoin, Payload: []byte("http-coin"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(coin) == 0 {
		t.Fatal("empty coin")
	}

	// key_exists carries HTTP 409.
	resp = postJSONRaw(t, base+"/v2/keys", `{"scheme":"CKS05","key_id":"http-key"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate generate status %d", resp.StatusCode)
	}
	var conflictBody api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&conflictBody); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if conflictBody.Error == nil || conflictBody.Error.Code != api.CodeKeyExists {
		t.Fatalf("conflict body: %+v", conflictBody)
	}

	// key_unknown carries HTTP 404, for submissions and encryption.
	resp = postJSONRaw(t, base+"/v2/protocol/submit",
		`{"requests":[{"scheme":"CKS05","key_id":"no-such","op":"coin","payload":"YQ=="}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with unknown key status %d (batch errors are per-item)", resp.StatusCode)
	}
	var batch api.SubmitBatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(batch.Results) != 1 || batch.Results[0].Error == nil || batch.Results[0].Error.Code != api.CodeKeyUnknown {
		t.Fatalf("batch entry: %+v", batch.Results)
	}
	resp = postJSONRaw(t, base+"/v2/scheme/encrypt", `{"scheme":"SG02","key_id":"no-such","message":"YQ=="}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("encrypt unknown key status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if _, err := clients[0].Encrypt(ctx, schemes.SG02, "no-such", []byte("x"), nil); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("client encrypt unknown key: %v", err)
	}

	// /v2/info lists the keychain inline.
	var info api.InfoResponse
	getJSON(t, base+"/v2/info", &info)
	if len(info.Keys) != 4 {
		t.Fatalf("info keychain: %+v", info.Keys)
	}
	_ = nodes
}

// TestSingleKeyEndpoint pins the raw HTTP contract of
// GET /v2/keys/{scheme}/{id}: 200 with the key's full record, 404
// key_unknown for a key the node does not hold, 400 scheme_unknown for
// a scheme outside the registry — and the client SDK's Key() speaking
// exactly that endpoint.
func TestSingleKeyEndpoint(t *testing.T) {
	clients, nodes, counters := testServiceV2(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	base := clientBase(t, clients[0])

	var kr api.KeyResponse
	getJSON(t, base+"/v2/keys/SG02/"+keys.DefaultKeyID, &kr)
	want, e := api.KeyInfoFromStore(nodes[0], schemes.SG02, "")
	if e != nil {
		t.Fatal(e)
	}
	if kr.Key.Scheme != want.Scheme || kr.Key.KeyID != want.KeyID || kr.Key.Epoch != want.Epoch ||
		!kr.Key.Default || string(kr.Key.PublicKey) != string(want.PublicKey) {
		t.Fatalf("single-key body %+v, want %+v", kr.Key, want)
	}

	resp, err := http.Get(base + "/v2/keys/SG02/no-such")
	if err != nil {
		t.Fatal(err)
	}
	var eb api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || eb.Error == nil || eb.Error.Code != api.CodeKeyUnknown {
		t.Fatalf("unknown key: status %d body %+v", resp.StatusCode, eb)
	}

	resp, err = http.Get(base + "/v2/keys/NOPE/whatever")
	if err != nil {
		t.Fatal(err)
	}
	eb = api.ErrorResponse{}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || eb.Error == nil || eb.Error.Code != api.CodeSchemeUnknown {
		t.Fatalf("unknown scheme: status %d body %+v", resp.StatusCode, eb)
	}

	// The SDK's Key() resolves with ONE round-trip, not a listing fetch.
	before := counters[0].n.Load()
	got, err := clients[0].Key(ctx, schemes.SG02, "")
	if err != nil {
		t.Fatal(err)
	}
	if trips := counters[0].n.Load() - before; trips != 1 {
		t.Fatalf("client Key() used %d round-trips, want 1", trips)
	}
	if got.KeyID != want.KeyID || string(got.PublicKey) != string(want.PublicKey) {
		t.Fatalf("client Key() %+v, want %+v", got, want)
	}
	if _, err := clients[0].Key(ctx, schemes.SG02, "no-such"); api.CodeOf(err) != api.CodeKeyUnknown {
		t.Fatalf("client unknown key: %v (code %s)", err, api.CodeOf(err))
	}
}

// clientBase recovers the HTTP base URL a fixture client targets, for
// raw-HTTP assertions on statuses and bodies.
func clientBase(t *testing.T, c *client.Client) string {
	t.Helper()
	return c.BaseURL()
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSONRaw(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDeadlineTableReleasesRecords: clearing or replacing a deadline
// drops its order record at once, so observed-finished requests leave
// nothing behind; pruning still drops deadlines past their grace window
// and keeps the ones inside it.
func TestDeadlineTableReleasesRecords(t *testing.T) {
	tbl := newDeadlineTable()
	now := time.Now()
	for i := 0; i < 100; i++ {
		tbl.set(fmt.Sprintf("id-%d", i), now.Add(time.Minute))
	}
	tbl.set("id-0", now.Add(2*time.Minute)) // replaced, not duplicated
	if n := tbl.order.Len(); n != 100 {
		t.Fatalf("100 ids hold %d order records", n)
	}
	if d, ok := tbl.get("id-0"); !ok || !d.Equal(now.Add(2*time.Minute)) {
		t.Fatalf("replaced deadline reads %v, %v", d, ok)
	}
	for i := 0; i < 100; i++ {
		tbl.clear(fmt.Sprintf("id-%d", i))
	}
	if tbl.order.Len() != 0 || len(tbl.byID) != 0 {
		t.Fatalf("cleared table still holds %d records, %d ids", tbl.order.Len(), len(tbl.byID))
	}
	tbl.clear("never-set")

	tbl.set("stale", now.Add(-deadlineGrace-time.Second))
	tbl.set("fresh", now.Add(-time.Second)) // expired, inside the grace window
	if _, ok := tbl.get("stale"); ok {
		t.Fatal("deadline past its grace window survived pruning")
	}
	if _, ok := tbl.get("fresh"); !ok {
		t.Fatal("expired deadline inside its grace window was pruned")
	}
}

// keysCountingUnit is a node's Service that counts calls to Keys, the
// whole-keychain listing.
type keysCountingUnit struct {
	committee.Unit
	keysCalls atomic.Int64
}

func (u *keysCountingUnit) Keys(ctx context.Context) ([]api.KeyInfo, error) {
	u.keysCalls.Add(1)
	return u.Unit.Keys(ctx)
}

// TestReshareEpochWithoutKeyListing: the reshare response's target
// epoch comes from a lookup of the one key being reshared. Listing the
// keychain to find it would marshal and sort every key in the store on
// every reshare.
func TestReshareEpochWithoutKeyListing(t *testing.T) {
	const tt, n = 1, 4
	com, err := committee.New(tt, n, committee.Config{Schemes: []schemes.ID{schemes.CKS05}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(com.Close)
	svc := &keysCountingUnit{Unit: com.UnitAt(1)}
	srv := httptest.NewServer(NewFront(svc))
	t.Cleanup(srv.Close)

	for _, want := range []int{keys.FirstEpoch + 1, keys.FirstEpoch + 2} {
		resp := postJSONRaw(t, srv.URL+"/v2/keys/"+keys.DefaultKeyID+"/reshare", `{"scheme":"CKS05","new_t":1,"members":[1,2,3,4]}`)
		var body api.ReshareKeyResponse
		err := json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("reshare: status %d, decode %v", resp.StatusCode, err)
		}
		if body.Epoch != want {
			t.Fatalf("reshare response epoch %d, want %d", body.Epoch, want)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := svc.Wait(ctx, api.Handle{InstanceID: body.InstanceID})
		cancel()
		if err != nil || res.Err != nil || string(res.Value) != fmt.Sprint(want) {
			t.Fatalf("reshare result %+v, %v; want epoch %d", res, err, want)
		}
		// The next reshare pins the new epoch on every node.
		for i := 1; i <= n; i++ {
			store := com.UnitAt(i).Store
			deadline := time.Now().Add(10 * time.Second)
			for {
				k, err := store.Get(schemes.CKS05, keys.DefaultKeyID)
				if err == nil && k.Epoch == want {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("node %d never installed epoch %d", i, want)
				}
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	if c := svc.keysCalls.Load(); c != 0 {
		t.Fatalf("reshare listed the keychain %d times", c)
	}
}
