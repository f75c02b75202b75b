package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/network"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the span that caused it (0 when the load generator did).
// Inst names the protocol instance when the call concerns exactly one.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    string `json:"req"`
	Name   string `json:"name"`
	Inst   string `json:"instance,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// netEvent is one envelope crossing a node's network.P2P boundary: a
// Send/Broadcast call (Dur is the call's duration) or an arrival on
// Receive().
type netEvent struct {
	Committee string       `json:"committee,omitempty"`
	Node      int          `json:"node"`
	Send      bool         `json:"send"`
	Instance  string       `json:"instance"`
	Kind      network.Kind `json:"kind"`
	Round     int          `json:"round"`
	From      int          `json:"from"`
	Bytes     int          `json:"bytes"`
	At        int64        `json:"at_ns"`
	Dur       int64        `json:"dur_ns,omitempty"`
}

// tracer collects spans and network events in memory; nothing is
// written until the workload ends. It is written entirely from outside
// the program: decorators around api.Service, http.Handler,
// http.RoundTripper and network.P2P.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// quit releases the P2P decorators' forwarding goroutines; see stop.
	quit chan struct{}

	mu     sync.Mutex
	spans  []span
	events []netEvent
	// owner maps a protocol instance to the request (and engine-layer
	// span) that submitted it, so network events join their request.
	owner map[string]spanRef
}

type spanRef struct {
	req string
	id  int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), quit: make(chan struct{}), owner: make(map[string]spanRef)}
}

// stop ends the tracer's goroutines. Its one owner calls it once, after
// closing the decorated deployment: a forwarder holding an envelope for
// an engine that has already stopped would otherwise wait forever.
func (t *tracer) stop() { close(t.quit) }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

type ctxKey struct{}

// withRequest marks ctx as belonging to request req; spans started
// under it become children of the request's root.
func withRequest(ctx context.Context, req string) context.Context {
	return context.WithValue(ctx, ctxKey{}, spanRef{req: req})
}

func refOf(ctx context.Context) spanRef {
	ref, _ := ctx.Value(ctxKey{}).(spanRef)
	return ref
}

// start opens a span under ctx's current span and returns the context
// its children inherit; end closes and records it.
func (t *tracer) start(ctx context.Context, name string) (context.Context, *span) {
	parent := refOf(ctx)
	sp := &span{ID: t.nextID.Add(1), Parent: parent.id, Req: parent.req, Name: name, Start: t.now()}
	return context.WithValue(ctx, ctxKey{}, spanRef{req: parent.req, id: sp.ID}), sp
}

func (t *tracer) end(sp *span) {
	sp.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, *sp)
	t.mu.Unlock()
}

// oneInstance is the instance a call concerns, when it is exactly one.
func oneInstance(hs []api.Handle) string {
	if len(hs) == 1 {
		return hs[0].InstanceID
	}
	return ""
}

func (t *tracer) own(instance string, ref spanRef) {
	t.mu.Lock()
	t.owner[instance] = ref
	t.mu.Unlock()
}

// snapshot returns everything recorded so far.
func (t *tracer) snapshot() ([]span, []netEvent, map[string]spanRef) {
	t.mu.Lock()
	defer t.mu.Unlock()
	owner := make(map[string]spanRef, len(t.owner))
	for k, v := range t.owner {
		owner[k] = v
	}
	return append([]span(nil), t.spans...), append([]netEvent(nil), t.events...), owner
}

// writeTrace dumps spans and network events as one JSON document.
func writeTrace(path string, spans []span, events []netEvent) error {
	data, err := json.Marshal(struct {
		Spans  []span     `json:"spans"`
		Events []netEvent `json:"net_events"`
	}{spans, events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval covered by its direct children (overlapping children are
// counted once; parts of a child outside the parent are ignored).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.dur() - covered
	}
	return out
}

// ---- api.Service decorator ----

// tracedService times every call into inner as a span named
// "<layer>.<method>". The layer "engine" is the innermost Service (a
// node or an embedded cluster): it also records which request owns each
// instance it hands out.
type tracedService struct {
	t     *tracer
	layer string
	inner api.Service
}

func (t *tracer) service(layer string, inner api.Service) api.Service {
	return &tracedService{t: t, layer: layer, inner: inner}
}

var (
	_ api.Service    = (*tracedService)(nil)
	_ api.EachWaiter = (*tracedService)(nil)
	_ api.KeyFetcher = (*tracedService)(nil)
)

// submit runs one instance-creating call as a "<layer>.submit" span and,
// at the engine layer, records which request owns the new instances.
func (s *tracedService) submit(ctx context.Context, call func(context.Context) ([]api.Handle, error)) ([]api.Handle, error) {
	ctx, sp := s.t.start(ctx, s.layer+".submit")
	defer s.t.end(sp)
	hs, err := call(ctx)
	if err == nil && s.layer == "engine" {
		sp.Inst = oneInstance(hs)
		for _, h := range hs {
			s.t.own(h.InstanceID, spanRef{req: sp.Req, id: sp.ID})
		}
	}
	return hs, err
}

func (s *tracedService) submitOne(ctx context.Context, call func(context.Context) (api.Handle, error)) (api.Handle, error) {
	hs, err := s.submit(ctx, func(ctx context.Context) ([]api.Handle, error) {
		h, err := call(ctx)
		return []api.Handle{h}, err
	})
	if err != nil {
		return api.Handle{}, err
	}
	return hs[0], nil
}

func (s *tracedService) Submit(ctx context.Context, req protocols.Request) (api.Handle, error) {
	return s.submitOne(ctx, func(ctx context.Context) (api.Handle, error) { return s.inner.Submit(ctx, req) })
}

func (s *tracedService) SubmitBatch(ctx context.Context, reqs []protocols.Request) ([]api.Handle, error) {
	return s.submit(ctx, func(ctx context.Context) ([]api.Handle, error) { return s.inner.SubmitBatch(ctx, reqs) })
}

func (s *tracedService) Wait(ctx context.Context, h api.Handle) (api.Result, error) {
	ctx, sp := s.t.start(ctx, s.layer+".wait")
	sp.Inst = h.InstanceID
	defer s.t.end(sp)
	return s.inner.Wait(ctx, h)
}

// WaitEach keeps the inner Service's streaming delivery (the router and
// the client SDK have one) instead of degrading it to a Wait per handle.
func (s *tracedService) WaitEach(ctx context.Context, hs []api.Handle, fn func(int, api.Result)) error {
	ctx, sp := s.t.start(ctx, s.layer+".wait")
	sp.Inst = oneInstance(hs)
	defer s.t.end(sp)
	return api.WaitEach(ctx, s.inner, hs, fn)
}

func (s *tracedService) Encrypt(ctx context.Context, scheme schemes.ID, keyID string, message, label []byte) ([]byte, error) {
	return s.inner.Encrypt(ctx, scheme, keyID, message, label)
}

func (s *tracedService) Info(ctx context.Context) (api.Info, error) { return s.inner.Info(ctx) }

func (s *tracedService) Keys(ctx context.Context) ([]api.KeyInfo, error) { return s.inner.Keys(ctx) }

func (s *tracedService) Key(ctx context.Context, scheme schemes.ID, keyID string) (api.KeyInfo, error) {
	return api.FetchKey(ctx, s.inner, scheme, keyID)
}

func (s *tracedService) GenerateKey(ctx context.Context, scheme schemes.ID, opts api.GenerateKeyOptions) (api.Handle, error) {
	return s.submitOne(ctx, func(ctx context.Context) (api.Handle, error) { return s.inner.GenerateKey(ctx, scheme, opts) })
}

func (s *tracedService) ReshareKey(ctx context.Context, scheme schemes.ID, keyID string, opts api.ReshareOptions) (api.Handle, error) {
	return s.submitOne(ctx, func(ctx context.Context) (api.Handle, error) {
		return s.inner.ReshareKey(ctx, scheme, keyID, opts)
	})
}

// ---- HTTP decorators ----

const (
	headerReq  = "X-Bench-Req"
	headerSpan = "X-Bench-Span"
)

type tracedRoundTripper struct{ inner http.RoundTripper }

// roundTripper carries the caller's request and span IDs across the
// HTTP hop in two headers, so the handler's span finds its parent.
func (t *tracer) roundTripper(inner http.RoundTripper) http.RoundTripper {
	return tracedRoundTripper{inner: inner}
}

func (rt tracedRoundTripper) RoundTrip(r *http.Request) (*http.Response, error) {
	if ref := refOf(r.Context()); ref.req != "" {
		r = r.Clone(r.Context())
		r.Header.Set(headerReq, ref.req)
		r.Header.Set(headerSpan, strconv.FormatInt(ref.id, 10))
	}
	return rt.inner.RoundTrip(r)
}

// handler times every HTTP request served by inner as a span named
// "<layer>.http", child of the client span named in the headers.
func (t *tracer) handler(layer string, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req := r.Header.Get(headerReq)
		if req == "" {
			inner.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseInt(r.Header.Get(headerSpan), 10, 64)
		ctx := context.WithValue(r.Context(), ctxKey{}, spanRef{req: req, id: parent})
		ctx, sp := t.start(ctx, layer+".http")
		defer t.end(sp)
		inner.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ---- network.P2P decorator ----

// tracedP2P records every envelope a node hands to its transport and
// every envelope the transport hands back. Arrivals are stamped by a
// forwarding goroutine that sits between the transport's receive
// channel and the engine's pump.
type tracedP2P struct {
	t         *tracer
	node      int
	committee string
	inner     network.P2P
	out       chan network.Envelope
}

func (t *tracer) p2p(node int, committee string, inner network.P2P) network.P2P {
	p := &tracedP2P{t: t, node: node, committee: committee, inner: inner, out: make(chan network.Envelope)}
	// The forwarder ends when the transport's Close closes its channel,
	// or when the tracer stops.
	go func() {
		defer close(p.out)
		for env := range inner.Receive() {
			p.record(env, false, 0, t.now())
			select {
			case p.out <- env:
			case <-t.quit:
				return
			}
		}
	}()
	return p
}

func (p *tracedP2P) record(env network.Envelope, send bool, dur, at int64) {
	ev := netEvent{
		Committee: p.committee, Node: p.node, Send: send,
		Instance: env.Instance, Kind: env.Kind, Round: env.Round,
		From: env.From, Bytes: len(env.Payload), At: at, Dur: dur,
	}
	if send {
		ev.From = p.node
	}
	p.t.mu.Lock()
	p.t.events = append(p.t.events, ev)
	p.t.mu.Unlock()
}

func (p *tracedP2P) Send(ctx context.Context, to int, env network.Envelope) error {
	at := p.t.now()
	err := p.inner.Send(ctx, to, env)
	p.record(env, true, p.t.now()-at, at)
	return err
}

func (p *tracedP2P) Broadcast(ctx context.Context, env network.Envelope) error {
	at := p.t.now()
	err := p.inner.Broadcast(ctx, env)
	p.record(env, true, p.t.now()-at, at)
	return err
}

func (p *tracedP2P) Receive() <-chan network.Envelope { return p.out }

func (p *tracedP2P) TransportStats() network.TransportStats { return p.inner.TransportStats() }

func (p *tracedP2P) Close() error { return p.inner.Close() }
