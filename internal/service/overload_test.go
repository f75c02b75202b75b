package service

// End-to-end coverage of the engine's flow control and retention
// semantics through the /v2 HTTP surface and the client SDK: queue
// saturation answers 429/overloaded (never a hang), and results evicted
// after the retention window answer the expired code.

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"thetacrypt/api"
	"thetacrypt/client"
	"thetacrypt/internal/committee"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/router"
	"thetacrypt/internal/schemes"
)

// stallNet wedges every Broadcast until released, pinning the engine
// worker so the event queue saturates deterministically.
type stallNet struct {
	release chan struct{}
	in      chan network.Envelope
}

func (s *stallNet) Send(context.Context, int, network.Envelope) error { return nil }
func (s *stallNet) Broadcast(context.Context, network.Envelope) error {
	<-s.release
	return nil
}
func (s *stallNet) Receive() <-chan network.Envelope       { return s.in }
func (s *stallNet) TransportStats() network.TransportStats { return network.TransportStats{} }
func (s *stallNet) Close() error                           { return nil }

func coinReq(session string) protocols.Request {
	return protocols.Request{
		Scheme: schemes.CKS05, Op: protocols.OpCoin,
		Payload: []byte("overload"), Session: session,
	}
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestV2OverloadedEndToEnd saturates a node's engine queue and asserts
// the full path: typed ErrOverloaded in the engine, HTTP 429 with the
// overloaded code on the wire, surfaced as *api.Error by the SDK — all
// fail-fast, no hang.
func TestV2OverloadedEndToEnd(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	sn := &stallNet{release: make(chan struct{}), in: make(chan network.Envelope)}
	engine := orchestration.New(orchestration.Config{
		Keys:     nodes[0],
		Net:      sn,
		QueueLen: 1,
	})
	srv := httptest.NewServer(NewFront(committee.Unit{Store: nodes[0], Engine: engine}))
	t.Cleanup(srv.Close)
	t.Cleanup(engine.Stop)
	t.Cleanup(func() { close(sn.release) }) // unwedge the worker before Stop

	// Retries disabled: the 429 must surface, not be absorbed.
	cl := client.New(srv.URL, client.WithRetry(0, 0))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := cl.Submit(ctx, coinReq("a")); err != nil { // admitted; worker wedges in the announce
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return engine.Stats().QueueDepth == 0 },
		"worker never picked up the first submission")
	if _, err := cl.Submit(ctx, coinReq("b")); err != nil { // fills the queue
		t.Fatal(err)
	}

	start := time.Now()
	_, err = cl.Submit(ctx, coinReq("c"))
	if api.CodeOf(err) != api.CodeOverloaded {
		t.Fatalf("saturated submit: got %v (code %s), want %s", err, api.CodeOf(err), api.CodeOverloaded)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("overload surfaced after %v, want fail-fast", elapsed)
	}

	// Raw wire check: HTTP 429 with the structured overloaded code.
	status, e := postRaw(t, srv.URL+"/v2/protocol/submit",
		`{"requests":[{"scheme":"CKS05","op":"coin","payload":"eA==","session":"d"}]}`)
	if status != 429 || e == nil || e.Code != api.CodeOverloaded {
		t.Fatalf("raw overloaded submit: status %d error %+v", status, e)
	}

	// The overload shows up in the node's stats.
	info, err := cl.Info(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stats == nil || info.Stats.Overloaded < 2 || info.Stats.QueueCap != 1 {
		t.Fatalf("info stats after overload: %+v", info.Stats)
	}
}

// TestV2RouterOverloadedAnswers429: a router in front of a committee
// whose engine queue is full answers the whole batch with HTTP 429
// overloaded — not 200 with per-item errors, which the SDK would never
// retry — and the SDK's default retry gets the submission through once
// the queue drains.
func TestV2RouterOverloadedAnswers429(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	sn := &stallNet{release: make(chan struct{}), in: make(chan network.Envelope)}
	engine := orchestration.New(orchestration.Config{
		Keys:     nodes[0],
		Net:      sn,
		QueueLen: 1,
	})
	rt := router.New([]router.Backend{{Name: "full", Service: committee.Unit{Store: nodes[0], Engine: engine}}})
	srv := httptest.NewServer(NewFront(rt))
	t.Cleanup(srv.Close)
	t.Cleanup(engine.Stop)
	release := sync.OnceFunc(func() { close(sn.release) })
	t.Cleanup(release) // unwedge the worker before Stop, even on failure

	cl := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := cl.Submit(ctx, coinReq("rt-a")); err != nil { // admitted; worker wedges in the announce
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return engine.Stats().QueueDepth == 0 },
		"worker never picked up the first submission")
	if _, err := cl.Submit(ctx, coinReq("rt-b")); err != nil { // fills the queue
		t.Fatal(err)
	}

	status, e := postRaw(t, srv.URL+"/v2/protocol/submit",
		`{"requests":[{"scheme":"CKS05","op":"coin","payload":"eA==","session":"rt-c"}]}`)
	if status != http.StatusTooManyRequests || e == nil || e.Code != api.CodeOverloaded {
		t.Fatalf("router over a saturated committee: status %d error %+v", status, e)
	}

	go func() {
		time.Sleep(60 * time.Millisecond)
		release()
	}()
	if _, err := cl.Submit(ctx, coinReq("rt-d")); err != nil {
		t.Fatalf("default retry never got through the router once the queue drained: %v", err)
	}
}

// TestV2RetryAfterOverload: with the retry policy enabled (the
// default), the SDK absorbs a transient overload once capacity frees up
// and the submission succeeds.
func TestV2RetryAfterOverload(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	sn := &stallNet{release: make(chan struct{}), in: make(chan network.Envelope)}
	engine := orchestration.New(orchestration.Config{
		Keys:     nodes[0],
		Net:      sn,
		QueueLen: 1,
	})
	srv := httptest.NewServer(NewFront(committee.Unit{Store: nodes[0], Engine: engine}))
	t.Cleanup(srv.Close)
	t.Cleanup(engine.Stop)

	cl := client.New(srv.URL, client.WithRetry(8, 20*time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	if _, err := cl.Submit(ctx, coinReq("r-a")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return engine.Stats().QueueDepth == 0 },
		"worker never picked up the first submission")
	if _, err := cl.Submit(ctx, coinReq("r-b")); err != nil {
		t.Fatal(err)
	}
	// Release the wedge shortly after the next submit starts seeing
	// 429s; its backoff retries must then get through.
	go func() {
		time.Sleep(60 * time.Millisecond)
		close(sn.release)
	}()
	if _, err := cl.Submit(ctx, coinReq("r-c")); err != nil {
		t.Fatalf("retry never recovered from transient overload: %v", err)
	}
	if engine.Stats().Overloaded == 0 {
		t.Fatal("test never actually hit the overload path")
	}
}

// TestV2BatchSizeCapped: a batch beyond maxBatchItems is rejected up
// front with bad_request — one request cannot sidestep queue admission
// control by sheer size.
func TestV2BatchSizeCapped(t *testing.T) {
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(4, memnet.Options{})
	t.Cleanup(hub.Close)
	engine := orchestration.New(orchestration.Config{
		Keys: nodes[0],
		Net:  hub.Endpoint(1),
	})
	t.Cleanup(engine.Stop)
	srv := httptest.NewServer(NewFront(committee.Unit{Store: nodes[0], Engine: engine}))
	t.Cleanup(srv.Close)

	var sb strings.Builder
	sb.WriteString(`{"requests":[`)
	for i := 0; i <= maxBatchItems; i++ {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, `{"scheme":"CKS05","op":"coin","payload":"eA==","session":"s%d"}`, i)
	}
	sb.WriteString(`]}`)
	status, e := postRaw(t, srv.URL+"/v2/protocol/submit", sb.String())
	if status != 400 || e == nil || e.Code != api.CodeBadRequest {
		t.Fatalf("oversized batch: status %d error %+v", status, e)
	}
	if engine.InstanceCount() != 0 {
		t.Fatalf("rejected batch still created %d instances", engine.InstanceCount())
	}
}

// TestV2StaleDeadlineDoesNotPoisonFreshRun: after an instance times
// out and is evicted, re-submitting the request replaces the stale
// expired deadline — the fresh run's polls report pending, not an
// immediate spurious timeout.
func TestV2StaleDeadlineDoesNotPoisonFreshRun(t *testing.T) {
	// One live node of four: no quorum forms, so the instance stalls,
	// its deadline expires, and liveTTL (2s floor) evicts it.
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(4, memnet.Options{})
	t.Cleanup(hub.Close)
	engine := orchestration.New(orchestration.Config{
		Keys:          nodes[0],
		Net:           hub.Endpoint(1),
		RetainTTL:     80 * time.Millisecond,
		SweepInterval: 20 * time.Millisecond,
	})
	t.Cleanup(engine.Stop)
	srv := httptest.NewServer(NewFront(committee.Unit{Store: nodes[0], Engine: engine}))
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// First run with a short per-request deadline.
	submitCtx, submitCancel := context.WithTimeout(ctx, 200*time.Millisecond)
	h, err := cl.Submit(submitCtx, coinReq("stale-deadline"))
	submitCancel()
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Wait(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if api.CodeOf(res.Err) != api.CodeTimeout {
		t.Fatalf("first run: want timeout in result, got %+v", res)
	}
	waitFor(t, 15*time.Second, func() bool { return engine.InstanceCount() == 0 },
		"stalled instance never evicted")

	// Fresh run, submitted without a deadline: polls must show it
	// pending, not replay the first run's expired deadline.
	if _, err := cl.Submit(ctx, coinReq("stale-deadline")); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v2/protocol/results?ids=" + h.InstanceID + "&timeout_ms=300")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out api.ResultsResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 {
		t.Fatalf("results: %+v", out)
	}
	if e := out.Results[0].Error; e != nil && e.Code == api.CodeTimeout {
		t.Fatalf("fresh run poisoned by stale deadline: %+v", out.Results[0])
	}
}

// TestV2DuplicateTimeoutKeepsDeadline: a re-submission joins the
// running instance without touching its deadline, so a tighter
// timeout_ms on the duplicate cannot cut short the waits of clients
// that submitted without one.
func TestV2DuplicateTimeoutKeepsDeadline(t *testing.T) {
	// One live node of four: no quorum forms, so the instance stalls.
	nodes, err := keys.Deal(rand.Reader, 1, 4, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(4, memnet.Options{})
	t.Cleanup(hub.Close)
	engine := orchestration.New(orchestration.Config{
		Keys: nodes[0],
		Net:  hub.Endpoint(1),
	})
	t.Cleanup(engine.Stop)
	srv := httptest.NewServer(NewFront(committee.Unit{Store: nodes[0], Engine: engine}))
	t.Cleanup(srv.Close)

	submit := func(body string) api.SubmitEntry {
		t.Helper()
		resp := postJSONRaw(t, srv.URL+"/v2/protocol/submit", body)
		defer resp.Body.Close()
		var out api.SubmitBatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		if len(out.Results) != 1 || out.Results[0].Error != nil {
			t.Fatalf("submit: status %d body %+v", resp.StatusCode, out)
		}
		return out.Results[0]
	}
	first := submit(`{"requests":[{"scheme":"CKS05","op":"coin","payload":"eA==","session":"keep"}]}`)
	waitFor(t, 5*time.Second, func() bool { return engine.InstanceCount() == 1 },
		"worker never took the first submission")
	dup := submit(`{"requests":[{"scheme":"CKS05","op":"coin","payload":"eA==","session":"keep","timeout_ms":50}]}`)
	if dup.InstanceID != first.InstanceID {
		t.Fatalf("re-submission got handle %s, want %s", dup.InstanceID, first.InstanceID)
	}

	var out api.ResultsResponse
	getJSON(t, srv.URL+"/v2/protocol/results?timeout_ms=400&ids="+first.InstanceID, &out)
	if len(out.Results) != 1 {
		t.Fatalf("results: %+v", out)
	}
	if e := out.Results[0].Error; e != nil && e.Code == api.CodeTimeout {
		t.Fatalf("duplicate's timeout_ms shortened the instance's deadline: %+v", out.Results[0])
	}
	if !dup.Duplicate {
		t.Fatalf("re-submission not flagged duplicate: %+v", dup)
	}
}

// TestV2ExpiredResultEndToEnd: a result queried after the retention
// window reports the structured expired code through the SDK.
func TestV2ExpiredResultEndToEnd(t *testing.T) {
	const tt, n = 1, 4
	nodes, err := keys.Deal(rand.Reader, tt, n, keys.Options{
		Schemes: []schemes.ID{schemes.CKS05},
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := memnet.NewHub(n, memnet.Options{})
	engines := make([]*orchestration.Engine, n)
	for i := 0; i < n; i++ {
		engines[i] = orchestration.New(orchestration.Config{
			Keys:          nodes[i],
			Net:           hub.Endpoint(i + 1),
			RetainTTL:     100 * time.Millisecond,
			SweepInterval: 10 * time.Millisecond,
		})
		t.Cleanup(engines[i].Stop)
	}
	t.Cleanup(hub.Close)
	srv := httptest.NewServer(NewFront(committee.Unit{Store: nodes[0], Engine: engines[0]}))
	t.Cleanup(srv.Close)
	cl := client.New(srv.URL)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	h, err := cl.Submit(ctx, coinReq("expire"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := cl.Wait(ctx, h)
	if err != nil || res.Err != nil {
		t.Fatalf("first wait: %v / %v", err, res.Err)
	}
	waitFor(t, 10*time.Second, func() bool { return engines[0].Stats().Finished == 0 },
		"result never evicted by the retention sweep")

	late, err := cl.Wait(ctx, h)
	if err != nil {
		t.Fatal(err)
	}
	if api.CodeOf(late.Err) != api.CodeExpired {
		t.Fatalf("wait after retention window: got %+v, want code %s", late, api.CodeExpired)
	}
}
