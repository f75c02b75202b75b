// Package service serves Thetacrypt's client-facing API (Section 3.4)
// over HTTP: the protocol API that runs threshold protocols as a black
// box, the scheme API that gives direct access to primitives
// (encryption under the service's public keys), and the keychain API.
// The original system speaks gRPC/Protocol Buffers; this reproduction
// uses HTTP/1.1 with JSON bodies (stdlib net/http). The wire types live
// in package api, so the client SDK and this server cannot drift apart.
//
// Front is the one handler. It is bound only to the api.Service
// interface, so the same /v2 endpoints — and the same client SDK — work
// in front of one node (cmd/thetacrypt serves Front over the node's
// committee.Unit), an embedded cluster, or a sharding router
// (cmd/thetacrypt -router serves Front over router.Router: a stateless
// HTTP tier that owns no shares and no engine, only a placement map).
package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// Result-wait bounds: a long poll blocks at most maxWaitWindow even if
// the client asks for more; without an explicit timeout_ms it blocks up
// to defaultWaitWindow.
const (
	defaultWaitWindow = 30 * time.Second
	maxWaitWindow     = 2 * time.Minute
)

// millis converts a client's timeout_ms to a duration, clamped before
// the multiplication so that a huge count saturates (about 292 years)
// instead of wrapping negative.
func millis(ms int64) time.Duration {
	return time.Duration(min(ms, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
}

// maxResultIDs bounds one results query. Each id attaches a watcher to
// the service (on a node, creating an engine placeholder for ids it has
// never seen), so an unbounded list would let a single request
// manufacture arbitrary engine state.
const maxResultIDs = 1024

// Submission bounds: one batch carries at most maxBatchItems requests
// and one body at most maxSubmitBody bytes (aligned with the
// transport's frame cap), so a single request cannot sidestep the
// engine's queue-slot admission control by sheer size.
const (
	maxBatchItems = 1024
	maxSubmitBody = 16 << 20
)

// Deadline-map bounds: entries are pruned once their deadline is
// deadlineGrace in the past (by then the engine has retired or evicted
// the instance), and capped at maxDeadlines outright, so fire-and-forget
// traffic cannot grow the service layer without bound.
const (
	deadlineGrace = 5 * time.Minute
	maxDeadlines  = 65536
)

// Front is the HTTP handler of the /v2 API over an api.Service.
//
// Services that implement api.DetailedSubmitter (committee.Unit, the
// node a deployment serves, and the Committee, Cluster and Node that
// serve through a Unit; client.Client) report each batch item on its
// own, with the idempotent-duplicate flag. Services without it (the
// router) are driven through SubmitBatch, which differs in two ways:
// re-accepted items answer 202 without duplicate=true, and a
// re-submission's timeout_ms replaces the instance's deadline rather
// than being ignored.
type Front struct {
	svc       api.Service
	mux       *http.ServeMux
	deadlines deadlineTable
}

// NewFront wires the /v2 endpoints over svc.
func NewFront(svc api.Service) *Front {
	f := &Front{svc: svc, mux: http.NewServeMux(), deadlines: newDeadlineTable()}
	f.mux.HandleFunc("POST /v2/protocol/submit", f.handleSubmit)
	f.mux.HandleFunc("GET /v2/protocol/results", f.handleResults)
	f.mux.HandleFunc("POST /v2/scheme/encrypt", f.handleEncrypt)
	f.mux.HandleFunc("GET /v2/info", f.handleInfo)
	f.mux.HandleFunc("GET /v2/keys", f.handleKeys)
	f.mux.HandleFunc("GET /v2/keys/{scheme}/{id}", f.handleKey)
	f.mux.HandleFunc("POST /v2/keys", f.handleGenerateKey)
	f.mux.HandleFunc("POST /v2/keys/{id}/reshare", f.handleReshareKey)
	return f
}

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) { f.mux.ServeHTTP(w, r) }

var _ http.Handler = (*Front)(nil)

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErrorV2(w http.ResponseWriter, e *api.Error) {
	writeJSON(w, api.HTTPStatus(e.Code), api.ErrorResponse{Error: e})
}

// asAPIError surfaces a Service error's structured form; errors that
// carry no code (transport failures to a backing committee, mostly)
// degrade to unavailable rather than internal, since retrying against a
// recovered backend is the right client move.
func asAPIError(err error) *api.Error {
	var e *api.Error
	if errors.As(err, &e) {
		return e
	}
	return api.Errf(api.CodeUnavailable, "%v", err)
}

// handleSubmit accepts a batch of 1..N requests in one body: one JSON
// decode and one hand-off to the service for the whole batch. Items
// failing stateless validation fail individually, and so do items the
// service rejects on their own; a whole-call failure (an overloaded or
// stopped engine) is the response. The status is 202 when at least one
// new instance started, 200 otherwise.
func (f *Front) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	var body api.SubmitBatchRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorV2(w, api.Errf(api.CodePayloadTooLarge, "body exceeds %d bytes", maxSubmitBody))
			return
		}
		writeErrorV2(w, api.Errf(api.CodeBadRequest, "decode body: %v", err))
		return
	}
	if len(body.Requests) == 0 {
		writeErrorV2(w, api.Errf(api.CodeBadRequest, "empty batch: need 1..N requests"))
		return
	}
	if len(body.Requests) > maxBatchItems {
		writeErrorV2(w, api.Errf(api.CodeBadRequest, "batch of %d exceeds limit %d", len(body.Requests), maxBatchItems))
		return
	}

	entries := make([]api.SubmitEntry, len(body.Requests))
	var reqs []protocols.Request
	var reqIdx []int // position of reqs[i] in entries
	for i, it := range body.Requests {
		req, err := it.Request()
		if err != nil {
			var e *api.Error
			if !errors.As(err, &e) {
				e = api.Errf(api.CodeBadRequest, "%v", err)
			}
			entries[i] = api.SubmitEntry{Error: e}
			continue
		}
		if e := api.ValidateRequest(req); e != nil {
			entries[i] = api.SubmitEntry{Error: e}
			continue
		}
		reqs = append(reqs, req)
		reqIdx = append(reqIdx, i)
	}

	var subs []api.SubmitEntry
	if len(reqs) > 0 {
		var err error
		if subs, err = f.submit(r.Context(), reqs); err != nil {
			writeErrorV2(w, asAPIError(err))
			return
		}
	}
	status := http.StatusOK
	now := time.Now()
	for j, sub := range subs {
		i := reqIdx[j]
		entries[i] = sub
		if sub.Error != nil || sub.Duplicate {
			continue
		}
		status = http.StatusAccepted
		// Only the instance-creating submission sets the deadline (a
		// later duplicate's tighter timeout must not cut short the
		// waits of clients already attached), and it REPLACES any
		// deadline left over from a previous, since-evicted run of the
		// same request — a stale expired deadline must not poison the
		// fresh run with spurious timeouts.
		if ms := body.Requests[i].TimeoutMS; ms > 0 {
			f.deadlines.set(sub.InstanceID, now.Add(millis(ms)))
		} else {
			f.deadlines.clear(sub.InstanceID)
		}
	}
	writeJSON(w, status, api.SubmitBatchResponse{Results: entries})
}

// submit hands validated requests to the service and returns one entry
// per request. Without api.DetailedSubmitter the batch goes through
// SubmitBatch; a batch the service rejects as a whole is answered whole
// when it is overloaded (HTTP 429, which the SDK retries), and
// otherwise degraded to per-item submission, recovering the per-item
// error model (the router rejects a batch naming a key no committee
// holds). Submission is idempotent, so items accepted before the
// rejection are unaffected by the re-submit.
func (f *Front) submit(ctx context.Context, reqs []protocols.Request) ([]api.SubmitEntry, error) {
	if ds, ok := f.svc.(api.DetailedSubmitter); ok {
		return ds.SubmitDetailed(ctx, reqs)
	}
	entries := make([]api.SubmitEntry, len(reqs))
	hs, err := f.svc.SubmitBatch(ctx, reqs)
	switch {
	case err == nil:
		for i, h := range hs {
			entries[i].InstanceID = h.InstanceID
		}
	case api.CodeOf(err) == api.CodeOverloaded:
		return nil, err
	default:
		for i, req := range reqs {
			h, err := f.svc.Submit(ctx, req)
			if err != nil {
				entries[i].Error = asAPIError(err)
				continue
			}
			entries[i].InstanceID = h.InstanceID
		}
	}
	return entries, nil
}

// handleResults serves GET /v2/protocol/results?ids=a,b,c. Without
// stream=1 it long-polls: the response is sent once every instance is
// final or the wait window (timeout_ms, default 30s) elapses, pending
// instances reported with done=false. With stream=1 it emits one
// ResultEntry per SSE "data:" event as instances finish, over a single
// connection.
func (f *Front) handleResults(w http.ResponseWriter, r *http.Request) {
	ids, window, e := parseResultsQuery(r)
	if e != nil {
		writeErrorV2(w, e)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), window)
	defer cancel()

	events := f.watch(ctx, ids)
	if r.URL.Query().Get("stream") == "1" {
		streamResults(ctx, w, len(ids), events)
		return
	}
	longPollResults(ctx, w, ids, events)
}

// watch forwards one final entry per instance — completion from the
// Service or per-request deadline expiry, whichever lands first — to
// the returned channel until ctx ends. The channel is buffered for one
// event per id and each id emits at most once, so neither producer can
// block.
func (f *Front) watch(ctx context.Context, ids []string) <-chan resultEvent {
	events := make(chan resultEvent, len(ids))
	fired := make([]atomic.Bool, len(ids))
	emit := func(i int, entry api.ResultEntry) {
		if fired[i].CompareAndSwap(false, true) {
			events <- resultEvent{idx: i, entry: entry}
		}
	}
	hs := make([]api.Handle, len(ids))
	for i, id := range ids {
		hs[i] = api.Handle{InstanceID: id}
	}
	go func() {
		// A wait-level failure (context closed, every committee down for
		// a scattered id) leaves its ids pending; the long-poll window
		// reports them with done=false and the client re-polls.
		_ = api.WaitEach(ctx, f.svc, hs, func(i int, res api.Result) {
			f.deadlines.clear(ids[i])
			emit(i, resultEntryOf(res))
		})
	}()
	for i, id := range ids {
		if d, ok := f.deadlines.get(id); ok {
			go func(i int, d time.Time) {
				t := time.NewTimer(time.Until(d))
				defer t.Stop()
				select {
				case <-t.C:
					emit(i, deadlineEntryFor(ids[i]))
				case <-ctx.Done():
				}
			}(i, d)
		}
	}
	return events
}

// resultEvent pairs a finished (or deadline-expired) instance with its
// position in the query.
type resultEvent struct {
	idx   int
	entry api.ResultEntry
}

// parseResultsQuery validates the query grammar of the results
// endpoint: ids=a,b,c plus an optional timeout_ms wait window.
func parseResultsQuery(r *http.Request) ([]string, time.Duration, *api.Error) {
	idsParam := r.URL.Query().Get("ids")
	if idsParam == "" {
		return nil, 0, api.Errf(api.CodeBadRequest, "missing ids query parameter")
	}
	ids := strings.Split(idsParam, ",")
	if len(ids) > maxResultIDs {
		return nil, 0, api.Errf(api.CodeBadRequest, "%d ids exceeds limit %d", len(ids), maxResultIDs)
	}
	window := defaultWaitWindow
	if msParam := r.URL.Query().Get("timeout_ms"); msParam != "" {
		ms, err := strconv.ParseInt(msParam, 10, 64)
		if err != nil || ms < 0 {
			return nil, 0, api.Errf(api.CodeBadRequest, "bad timeout_ms %q", msParam)
		}
		window = min(millis(ms), maxWaitWindow)
	}
	return ids, window, nil
}

// deadlineEntryFor is the final entry of an instance whose per-request
// deadline elapsed before its result arrived.
func deadlineEntryFor(id string) api.ResultEntry {
	return api.ResultEntry{
		InstanceID: id,
		Error:      api.Errf(api.CodeTimeout, "per-request deadline exceeded"),
	}
}

// longPollResults collects events until every instance is final or the
// wait window closes, then writes one response; instances still pending
// at the window are reported with done=false.
func longPollResults(ctx context.Context, w http.ResponseWriter, ids []string, events <-chan resultEvent) {
	entries := make([]api.ResultEntry, len(ids))
	for i, id := range ids {
		entries[i] = api.ResultEntry{InstanceID: id} // pending unless finalized below
	}
	remaining := len(ids)
	for remaining > 0 {
		select {
		case ev := <-events:
			entries[ev.idx] = ev.entry
			remaining--
		case <-ctx.Done():
			writeJSON(w, http.StatusOK, api.ResultsResponse{Results: entries})
			return
		}
	}
	writeJSON(w, http.StatusOK, api.ResultsResponse{Results: entries})
}

// streamResults writes one SSE event per final instance. The stream
// ends when every requested instance is final or the wait window
// closes; clients re-poll for instances they did not see.
func streamResults(ctx context.Context, w http.ResponseWriter, n int, events <-chan resultEvent) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErrorV2(w, api.Errf(api.CodeInternal, "streaming unsupported by transport"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for remaining := n; remaining > 0; remaining-- {
		select {
		case ev := <-events:
			data, err := json.Marshal(ev.entry)
			if err != nil {
				return
			}
			if _, err := w.Write([]byte("data: " + string(data) + "\n\n")); err != nil {
				return
			}
			flusher.Flush()
		case <-ctx.Done():
			return
		}
	}
}

// resultEntryOf converts a Service result to its wire entry. Result.Err
// is already classified by the Service implementation; an unclassified
// error is an implementation gap reported as internal.
func resultEntryOf(res api.Result) api.ResultEntry {
	entry := api.ResultEntry{
		InstanceID: res.InstanceID,
		Done:       true,
		Value:      res.Value,
		LatencyMS:  res.ServerLatency.Milliseconds(),
	}
	if res.Err != nil {
		var e *api.Error
		if !errors.As(res.Err, &e) {
			e = api.Errf(api.CodeInternal, "%v", res.Err)
		}
		entry.Error = e
	}
	return entry
}

func (f *Front) handleEncrypt(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	var body api.EncryptRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorV2(w, api.Errf(api.CodePayloadTooLarge, "body exceeds %d bytes", maxSubmitBody))
			return
		}
		writeErrorV2(w, api.Errf(api.CodeBadRequest, "decode body: %v", err))
		return
	}
	ct, err := f.svc.Encrypt(r.Context(), schemes.ID(body.Scheme), body.KeyID, body.Message, body.Label)
	if err != nil {
		writeErrorV2(w, asAPIError(err))
		return
	}
	writeJSON(w, http.StatusOK, api.EncryptResponse{Ciphertext: ct})
}

func (f *Front) handleInfo(w http.ResponseWriter, r *http.Request) {
	info, err := f.svc.Info(r.Context())
	if err != nil {
		writeErrorV2(w, asAPIError(err))
		return
	}
	present := make([]string, len(info.Schemes))
	for i, id := range info.Schemes {
		present[i] = string(id)
	}
	writeJSON(w, http.StatusOK, api.InfoResponse{
		APIVersion: 2,
		NodeIndex:  info.NodeIndex,
		N:          info.N,
		T:          info.T,
		Schemes:    present,
		Keys:       info.Keys,
		Stats:      info.Stats,
		Committees: info.Committees,
	})
}

func (f *Front) handleKeys(w http.ResponseWriter, r *http.Request) {
	list, err := f.svc.Keys(r.Context())
	if err != nil {
		writeErrorV2(w, asAPIError(err))
		return
	}
	writeJSON(w, http.StatusOK, api.KeysResponse{Keys: list})
}

// handleKey resolves one named key (GET /v2/keys/{scheme}/{id}) through
// the Service's direct lookup when it has one, else by filtering the
// listing — scheme_unknown before key_unknown on every service.
func (f *Front) handleKey(w http.ResponseWriter, r *http.Request) {
	id := schemes.ID(r.PathValue("scheme"))
	if _, err := schemes.Lookup(id); err != nil {
		writeErrorV2(w, api.Errf(api.CodeSchemeUnknown, "%v", err))
		return
	}
	info, err := api.FetchKey(r.Context(), f.svc, id, r.PathValue("id"))
	if err != nil {
		writeErrorV2(w, asAPIError(err))
		return
	}
	writeJSON(w, http.StatusOK, api.KeyResponse{Key: info})
}

// handleGenerateKey pre-assigns the key ID through the shared keygen
// seam — so the 202 response can name the key even when the body left
// it blank — then hands the generation to the Service, which places it
// (the router picks the least-loaded committee).
func (f *Front) handleGenerateKey(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	var body api.GenerateKeyRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeErrorV2(w, api.Errf(api.CodeBadRequest, "decode body: %v", err))
		return
	}
	req, e := api.KeygenRequest(schemes.ID(body.Scheme), api.GenerateKeyOptions{KeyID: body.KeyID, Group: body.Group})
	if e != nil {
		writeErrorV2(w, e)
		return
	}
	h, err := f.svc.GenerateKey(r.Context(), schemes.ID(body.Scheme),
		api.GenerateKeyOptions{KeyID: req.KeyID, Group: body.Group})
	if err != nil {
		writeErrorV2(w, asAPIError(err))
		return
	}
	writeJSON(w, http.StatusAccepted, api.GenerateKeyResponse{
		InstanceID: h.InstanceID,
		KeyID:      req.KeyID,
	})
}

// handleReshareKey forwards the reshare through the Service (the router
// sends it to the key's owning committee). The target epoch in the 202
// response is resolved best-effort by looking up that one key
// (api.FetchKey), not by listing the whole keychain; the authoritative
// value is the instance's result.
func (f *Front) handleReshareKey(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxSubmitBody)
	var body api.ReshareKeyRequest
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
		writeErrorV2(w, api.Errf(api.CodeBadRequest, "decode body: %v", err))
		return
	}
	scheme, keyID := schemes.ID(body.Scheme), r.PathValue("id")
	h, err := f.svc.ReshareKey(r.Context(), scheme, keyID,
		api.ReshareOptions{NewT: body.NewT, Members: body.Members})
	if err != nil {
		writeErrorV2(w, asAPIError(err))
		return
	}
	resp := api.ReshareKeyResponse{InstanceID: h.InstanceID, KeyID: keyID}
	if k, err := api.FetchKey(r.Context(), f.svc, scheme, keyID); err == nil {
		resp.Epoch = k.Epoch + 1
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// deadlineTable is the Front's bounded per-instance deadline map: v2
// submissions record timeout_ms here and the results endpoint enforces
// it. Each id maps to its record in the
// insertion-ordered list that pruning walks, so replacing or clearing
// a deadline releases the record at once.
type deadlineTable struct {
	mu    *sync.Mutex
	byID  map[string]*list.Element
	order *list.List
}

// deadlineRecord is one insertion-ordered entry for pruning.
type deadlineRecord struct {
	id       string
	deadline time.Time
}

func newDeadlineTable() deadlineTable {
	return deadlineTable{mu: &sync.Mutex{}, byID: make(map[string]*list.Element), order: list.New()}
}

func (t deadlineTable) set(id string, d time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(id)
	t.byID[id] = t.order.PushBack(deadlineRecord{id: id, deadline: d})
	t.pruneLocked(time.Now())
}

func (t deadlineTable) get(id string) (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if elem, ok := t.byID[id]; ok {
		return elem.Value.(deadlineRecord).deadline, true
	}
	return time.Time{}, false
}

// clear drops an instance's deadline (observed-finished instances, and
// fresh runs submitted without one). Expired deadlines of unfinished
// instances are kept until the grace window passes, so polls keep
// reporting the timeout while the engine still tracks the instance.
func (t deadlineTable) clear(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.removeLocked(id)
}

// removeLocked forgets id's deadline and its order record; t.mu is
// held.
func (t deadlineTable) removeLocked(id string) {
	if elem, ok := t.byID[id]; ok {
		t.order.Remove(elem)
		delete(t.byID, id)
	}
}

// pruneLocked bounds the table: entries whose deadline passed more than
// deadlineGrace ago are dropped (by then the engine has retired or
// evicted the instance, whose own expired/tombstone semantics take
// over), and the hard cap evicts oldest-first. t.mu is held.
func (t deadlineTable) pruneLocked(now time.Time) {
	for front := t.order.Front(); front != nil; front = t.order.Front() {
		rec := front.Value.(deadlineRecord)
		over := t.order.Len() > maxDeadlines
		if !over && now.Before(rec.deadline.Add(deadlineGrace)) {
			break
		}
		t.order.Remove(front)
		delete(t.byID, rec.id)
	}
}
