package service

// Front serves the /v2 HTTP surface over any api.Service. Where Server
// is bound to one node's engine and keystore, Front is bound only to
// the Service interface, so the same endpoints — and the same client
// SDK — work in front of an embedded cluster or a sharding router. The
// router deployment (cmd/thetacrypt -router) is Front over
// router.Router: a stateless HTTP tier that owns no shares and no
// engine, only a placement map.
//
// Behavioral differences from Server, both inherent to the Service
// seam: submissions cannot report the idempotent-duplicate flag (the
// seam returns handles, not creation/join distinction), so re-accepted
// items answer 202 without duplicate=true; and a re-submission's
// timeout_ms replaces the instance's deadline rather than being ignored
// for duplicates.

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// Front is the Service-backed HTTP handler.
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

// handleSubmit mirrors Server.handleSubmitV2 over the Service seam:
// items failing stateless validation fail individually; the valid rest
// go through one SubmitBatch. A batch the service rejects as a whole
// (the router does this when an item names a key no committee holds) is
// degraded to per-item submission, recovering the per-item error model
// — submission is idempotent, so items accepted before the rejection
// are unaffected by the re-submit.
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

	var hs []api.Handle
	if len(reqs) > 0 {
		var err error
		hs, err = f.svc.SubmitBatch(r.Context(), reqs)
		if err != nil {
			hs = make([]api.Handle, len(reqs))
			for i, req := range reqs {
				h, err := f.svc.Submit(r.Context(), req)
				if err != nil {
					entries[reqIdx[i]] = api.SubmitEntry{Error: asAPIError(err)}
					continue
				}
				hs[i] = h
			}
		}
	}
	status := http.StatusOK
	now := time.Now()
	for i, h := range hs {
		if h.InstanceID == "" {
			continue // per-item fallback already recorded the error
		}
		entries[reqIdx[i]] = api.SubmitEntry{InstanceID: h.InstanceID}
		status = http.StatusAccepted
		if ms := body.Requests[reqIdx[i]].TimeoutMS; ms > 0 {
			f.deadlines.set(h.InstanceID, now.Add(time.Duration(ms)*time.Millisecond))
		} else {
			f.deadlines.clear(h.InstanceID)
		}
	}
	writeJSON(w, status, api.SubmitBatchResponse{Results: entries})
}

// handleResults serves the same long-poll/SSE grammar as the Server,
// sourcing completions from the Service's streaming wait instead of
// engine futures.
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
// listing — same 404 grammar as the engine-backed Server.
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
// response is resolved best-effort from the Service's key listing; the
// authoritative value is the instance's result.
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
	if keyList, err := f.svc.Keys(r.Context()); err == nil {
		for _, k := range keyList {
			if k.Scheme == string(scheme) && k.KeyID == keyID {
				resp.Epoch = k.Epoch + 1
				break
			}
		}
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// deadlineTable is the bounded per-instance deadline map shared by
// Server and Front: v2 submissions record timeout_ms here and the
// results endpoints enforce it. Each id maps to its record in the
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
