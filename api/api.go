// Package api defines version 2 of Thetacrypt's client-facing surface:
// the Service interface implemented by every deployment style, the
// structured error model, and the JSON wire types of the /v2 HTTP
// endpoints.
//
// The paper exposes two integration styles — an embedded library and a
// remote RPC service — that had drifted into incompatible shapes.
// Service unifies them: thetacrypt.Cluster (embedded, simulated
// transport), thetacrypt.Node (one standalone deployment member), and
// client.Client (typed SDK over the /v2 HTTP endpoints) all implement
// it, so applications and benchmarks are written once and swap
// deployment styles with a constructor change.
package api

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"sync"
	"time"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// Handle identifies a submitted protocol instance. Handles are
// deterministic (derived from the request), so any node of a deployment
// can serve the result and re-submitting a request yields the same
// handle.
type Handle struct {
	InstanceID string
}

// Result is the client-facing outcome of a protocol instance.
type Result struct {
	InstanceID string
	// Value is the operation's output: a signature, a plaintext, or a
	// coin value.
	Value []byte
	// Err is non-nil when the instance failed; its Code (see CodeOf)
	// classifies the failure.
	Err error
	// ServerLatency is the server-side processing time of the instance
	// on the answering node (the paper's server-side latency metric).
	ServerLatency time.Duration
}

// Info describes a deployment endpoint, the schemes it holds keys
// for, and its keychain.
type Info struct {
	// NodeIndex is the answering node's 1-based index.
	NodeIndex int
	// N and T are the deployment size and corruption threshold.
	N, T int
	// Schemes lists the schemes with at least one key.
	Schemes []schemes.ID
	// Keys lists the named keys of the node's keystore (dealt and
	// DKG-generated); nil when the endpoint predates API v2.3.
	Keys []KeyInfo
	// Stats is the answering node's engine snapshot (lifecycle and
	// flow control); nil when the endpoint predates API v2.1.
	Stats *EngineStats
	// Committees describes the committees behind a router endpoint,
	// one block per backend in routing order; nil for single-committee
	// deployments (API v2.4).
	Committees []CommitteeInfo
}

// CommitteeInfo is one committee behind a router endpoint: its
// parameters, the keys placed on it, and its front node's engine
// snapshot. A committee the router could not reach when Info was
// assembled is reported with Down set and its last error — the router
// stays up and keeps serving the remaining committees.
type CommitteeInfo struct {
	Name    string   `json:"name"`
	N       int      `json:"n,omitempty"`
	T       int      `json:"t,omitempty"`
	Schemes []string `json:"schemes,omitempty"`
	// Keys counts the named keys this committee reported.
	Keys int `json:"keys"`
	// Down marks a committee that did not answer; Error carries the
	// failure.
	Down  bool         `json:"down,omitempty"`
	Error string       `json:"error,omitempty"`
	Stats *EngineStats `json:"stats,omitempty"`
}

// KeyInfo describes one named key of a keystore: its address
// (scheme, key ID), arithmetic structure, and the marshaled public
// material so clients can compare keys across nodes.
type KeyInfo struct {
	Scheme  string `json:"scheme"`
	KeyID   string `json:"key_id"`
	Group   string `json:"group,omitempty"`
	Default bool   `json:"default,omitempty"`
	// Epoch is the key's share version: 1 for freshly dealt or
	// DKG-generated keys, bumped by every resharing. 0 marks a key
	// that a v3 or v4 keystore file already carries at epoch 0.
	Epoch int `json:"epoch,omitempty"`
	// Members lists the mesh node indices of the key's committee in
	// share-index order; empty means the identity committee 1..n.
	Members []int `json:"members,omitempty"`
	// PublicKey is the scheme's marshaled public key.
	PublicKey []byte `json:"public_key,omitempty"`
}

// KeyInfosOf converts a keystore listing into the wire shape, shared
// by the HTTP service layer and the embedded deployments.
func KeyInfosOf(list []keys.Info) []KeyInfo {
	out := make([]KeyInfo, len(list))
	for i, k := range list {
		out[i] = KeyInfo{
			Scheme:    string(k.Scheme),
			KeyID:     k.ID,
			Group:     k.Group,
			Default:   k.Default,
			Epoch:     k.Epoch,
			Members:   k.Members,
			PublicKey: k.Public,
		}
	}
	return out
}

// GenerateKeyOptions configures Service.GenerateKey.
type GenerateKeyOptions struct {
	// KeyID names the new key; a fresh random ID is assigned when
	// empty. The ID travels in the keygen request, so every node
	// installs the key under the same name.
	KeyID string
	// Group is the DL group of the new key ("edwards25519", "p256");
	// empty selects edwards25519.
	Group string
}

// KeygenRequest builds the protocol request behind GenerateKey: an
// OpKeyGen instance whose KeyID names the key to create and whose
// payload carries the group. It is the one construction seam shared by
// the embedded deployments and the HTTP service layer, so both derive
// identical instances from identical options.
func KeygenRequest(scheme schemes.ID, opts GenerateKeyOptions) (protocols.Request, *Error) {
	id := opts.KeyID
	if id == "" {
		var buf [6]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return protocols.Request{}, Errf(CodeInternal, "generate key id: %v", err)
		}
		id = "k-" + hex.EncodeToString(buf[:])
	}
	req := protocols.Request{
		Scheme:  scheme,
		KeyID:   id,
		Op:      protocols.OpKeyGen,
		Payload: []byte(opts.Group),
	}
	if e := ValidateRequest(req); e != nil {
		return protocols.Request{}, e
	}
	return req, nil
}

// ReshareOptions configures Service.ReshareKey.
type ReshareOptions struct {
	// NewT is the corruption threshold of the new sharing; zero or
	// negative keeps the key's current threshold.
	NewT int
	// Members lists the mesh node indices (strictly ascending, 1-based)
	// that form the new committee; empty keeps the current committee.
	// Nodes outside the list keep a public-only record of the key.
	Members []int
}

// ReshareRequest builds the protocol request behind ReshareKey: an
// OpReshare instance pinned to the key's current epoch, whose payload
// carries the new committee spec. It is the one construction seam
// shared by the embedded deployments and the HTTP service layer, so
// both derive identical instances from identical options. The store is
// consulted for the key's current epoch, threshold, and membership;
// defaults fill from them.
func ReshareRequest(store *keys.Keystore, scheme schemes.ID, keyID string, opts ReshareOptions) (protocols.Request, *Error) {
	k, err := store.Get(scheme, keyID)
	if err != nil {
		return protocols.Request{}, Errf(CodeKeyUnknown, "%v", err)
	}
	if !keys.SupportsDKG(scheme) {
		return protocols.Request{}, Errf(CodeBadRequest, "scheme %s does not support resharing", scheme)
	}
	t, n := k.Params()
	spec := protocols.ReshareSpec{NewT: opts.NewT, Members: opts.Members}
	if spec.NewT <= 0 {
		spec.NewT = t
	}
	if len(spec.Members) == 0 {
		if spec.Members = k.Members; spec.Members == nil {
			spec.Members = make([]int, n)
			for i := range spec.Members {
				spec.Members[i] = i + 1
			}
		}
	}
	for _, m := range spec.Members {
		if m < 1 || m > store.N {
			return protocols.Request{}, Errf(CodeBadRequest,
				"member %d outside deployment 1..%d", m, store.N)
		}
	}
	req := protocols.Request{
		Scheme:  scheme,
		KeyID:   k.ID,
		Op:      protocols.OpReshare,
		Payload: spec.Marshal(),
		Epoch:   k.Epoch,
	}
	if e := ValidateRequest(req); e != nil {
		return protocols.Request{}, e
	}
	return req, nil
}

// EngineStats is a node's orchestration-engine snapshot: the instance
// lifecycle (live/finished/evicted) and flow control (queue depth,
// overload rejections, rejected shares) counters, served inline with
// /v2/info. Field meanings match orchestration.Stats.
type EngineStats struct {
	Live           int    `json:"live"`
	Finished       int    `json:"finished"`
	Evicted        uint64 `json:"evicted"`
	QueueDepth     int    `json:"queue_depth"`
	QueueCap       int    `json:"queue_cap"`
	RejectedShares uint64 `json:"rejected_shares"`
	Overloaded     uint64 `json:"overloaded"`
	// PartialBroadcasts counts round broadcasts that failed for some but
	// not all peers (the run continued); a rising counter points at the
	// lagging peer in Transport.
	PartialBroadcasts uint64 `json:"partial_broadcasts,omitempty"`
	// Transport is the per-peer health of the node's P2P links; nil when
	// the endpoint predates API v2.2 or the transport has no peers.
	Transport *TransportStats `json:"transport,omitempty"`
	// Crypto is the node's peer-share check counts; nil when the
	// endpoint predates API v2.5.
	Crypto *CryptoStats `json:"crypto,omitempty"`
}

// CryptoStats is the wire form of the share-check counters of
// precompute.Stats.
type CryptoStats struct {
	// LagrangeHits and LagrangeMisses are always 0: Lagrange
	// coefficients are computed per combine, not cached. They stay on
	// the wire for clients that read them.
	LagrangeHits   int64 `json:"lagrange_hits"`
	LagrangeMisses int64 `json:"lagrange_misses"`
	// NonceExhaustions is always 0. It stays on the wire for clients
	// that read it.
	NonceExhaustions int64 `json:"nonce_exhaustions"`
	// BatchesVerified counts the direct checks of peer shares, one per
	// SG02 or CKS05 peer share that decodes; BatchedRelations counts
	// the DLEQ relations those checks covered.
	BatchesVerified  int64 `json:"batches_verified"`
	BatchedRelations int64 `json:"batched_relations"`
	// BatchFallbacks and CoalescedRequests are always 0: nothing is
	// batched. They stay on the wire for clients that read them.
	BatchFallbacks    int64 `json:"batch_fallbacks"`
	CoalescedRequests int64 `json:"coalesced_requests"`
}

// TransportStats is the wire form of the P2P layer's health snapshot.
type TransportStats struct {
	Peers []PeerStats `json:"peers"`
	// Policy is never set: no transport has a queue policy. It stays
	// only because the benchmark's tests read it.
	Policy string `json:"policy,omitempty"`
	// Reliable reports that the transport runs the seq/ack layer:
	// frames lost between socket and engine are resent after reconnect
	// and deduplicated before delivery.
	Reliable bool `json:"reliable,omitempty"`
	// Authenticated reports that every link runs identity-keyed,
	// mutually authenticated TLS 1.3. It is false on an in-process
	// Cluster, whose links cross no wire.
	Authenticated bool `json:"authenticated,omitempty"`
}

// Peer returns the snapshot of one peer link.
func (ts *TransportStats) Peer(index int) (PeerStats, bool) {
	if ts == nil {
		return PeerStats{}, false
	}
	for _, p := range ts.Peers {
		if p.Peer == index {
			return p, true
		}
	}
	return PeerStats{}, false
}

// PeerStats is one peer link as seen by the answering node: health
// state ("up", "dialing", "down"), the unwritten frames in its ack
// window, and send/drop counters. Field meanings match network.PeerStats.
type PeerStats struct {
	Peer       int    `json:"peer"`
	State      string `json:"state"`
	QueueDepth int    `json:"queue_depth"`
	QueueCap   int    `json:"queue_cap"`
	Enqueued   uint64 `json:"enqueued"`
	Sent       uint64 `json:"sent"`
	// Delivered counts frames the peer acknowledged (they reached its
	// engine); Sent minus Delivered is the in-transit gap the ack layer
	// tracks.
	Delivered uint64 `json:"delivered"`
	// Inflight is the ack layer's window occupancy: frames staged and
	// awaiting acknowledgement, resent after a reconnect.
	Inflight int `json:"inflight"`
	// Resent counts retransmissions of unacknowledged frames.
	Resent              uint64 `json:"resent"`
	Dropped             uint64 `json:"dropped"`
	ConsecutiveFailures uint64 `json:"consecutive_failures"`
	LastError           string `json:"last_error,omitempty"`
	// Authenticated marks the link's current connection as having
	// completed the roster handshake (never on an in-process Cluster).
	Authenticated bool `json:"authenticated,omitempty"`
}

// Service is the one client-facing interface over every deployment
// style (the tentpole of API v2). Submit and SubmitBatch start protocol
// instances (the protocol API); Encrypt, Info, and Keys are local
// operations against the node's keystore (the scheme API); GenerateKey
// creates new named keys at runtime through a distributed key
// generation (the keychain API).
//
// Every request addresses a named key: protocols.Request.KeyID and
// Encrypt's keyID select it, the empty ID meaning the scheme's default
// key. A key ID the answering node does not hold fails with
// CodeKeyUnknown on every implementation.
//
// Submission is idempotent: submitting an identical request — same
// scheme, key, operation, payload, and session — joins the existing
// instance and returns the same handle instead of failing. Per-request
// deadlines travel via the submit context (remote implementations
// forward the context deadline to the server) and via Wait's context.
type Service interface {
	// Submit starts one protocol instance and returns its handle.
	Submit(ctx context.Context, req protocols.Request) (Handle, error)
	// SubmitBatch starts 1..N instances in one call, amortizing
	// per-request dispatch (and, remotely, round-trips and JSON
	// decoding). Handles are returned in request order.
	SubmitBatch(ctx context.Context, reqs []protocols.Request) ([]Handle, error)
	// Wait blocks until the instance finishes or ctx expires. A failed
	// instance is reported inside the Result (Result.Err), transport
	// and deadline failures as the second return value.
	Wait(ctx context.Context, h Handle) (Result, error)
	// Encrypt creates a ciphertext under a named public key of an
	// encryption scheme (SG02 or BZ03); the empty keyID selects the
	// scheme's default key. It is a local computation at the answering
	// node; decryption requires a threshold quorum.
	Encrypt(ctx context.Context, scheme schemes.ID, keyID string, message, label []byte) ([]byte, error)
	// Info reports deployment parameters, available schemes, and the
	// keychain.
	Info(ctx context.Context) (Info, error)
	// Keys lists the named keys of the answering node's keystore.
	Keys(ctx context.Context) ([]KeyInfo, error)
	// GenerateKey starts a distributed key generation for the scheme
	// (SG02, KG20, or CKS05) and returns the handle of the keygen
	// instance; its Result carries the new key's ID as the value. The
	// generated key is immediately usable for Submit under that ID.
	GenerateKey(ctx context.Context, scheme schemes.ID, opts GenerateKeyOptions) (Handle, error)
	// ReshareKey starts a live resharing of a named key (same schemes
	// as GenerateKey): the current committee re-deals its shares to the
	// committee in opts (possibly a different node set with a different
	// threshold), the key's epoch advances by one, and shares of the
	// old epoch become unusable. The public key — and every ciphertext
	// and signature under it — stays valid. The instance's Result
	// carries the new epoch in decimal; the empty keyID selects the
	// scheme's default key.
	ReshareKey(ctx context.Context, scheme schemes.ID, keyID string, opts ReshareOptions) (Handle, error)
}

// KeyFetcher is implemented by Services that can resolve one named key
// without transferring the whole keychain (the client SDK issues a
// single GET /v2/keys/{scheme}/{id}). A missing key fails with
// CodeKeyUnknown on every implementation.
type KeyFetcher interface {
	Key(ctx context.Context, scheme schemes.ID, keyID string) (KeyInfo, error)
}

// DetailedSubmitter is implemented by Services that report a batch
// submission item by item: an invalid request or unknown key fails only
// its own entry, accepted entries carry the idempotent-duplicate flag,
// and only a failure of the whole hand-off (an overloaded or stopped
// engine) fails the call. Entries are returned in request order.
type DetailedSubmitter interface {
	SubmitDetailed(ctx context.Context, reqs []protocols.Request) ([]SubmitEntry, error)
}

// FetchKey resolves one named key via the service's direct lookup when
// available, falling back to filtering the full keychain listing. The
// empty keyID selects the scheme's default key.
func FetchKey(ctx context.Context, s Service, scheme schemes.ID, keyID string) (KeyInfo, error) {
	if kf, ok := s.(KeyFetcher); ok {
		return kf.Key(ctx, scheme, keyID)
	}
	if keyID == "" {
		keyID = keys.DefaultKeyID
	}
	list, err := s.Keys(ctx)
	if err != nil {
		return KeyInfo{}, err
	}
	for _, k := range list {
		if k.Scheme == string(scheme) && k.KeyID == keyID {
			return k, nil
		}
	}
	return KeyInfo{}, Errf(CodeKeyUnknown, "unknown key %s/%s", scheme, keyID)
}

// KeyInfoFromStore resolves one named key of a keystore into the wire
// shape — the lookup seam shared by the HTTP service layer and the
// embedded deployments, so all of them 404 identically on a missing
// key (scheme_unknown before key_unknown, matching the submission
// path's check order). The empty keyID selects the scheme's default
// key.
func KeyInfoFromStore(store *keys.Keystore, scheme schemes.ID, keyID string) (KeyInfo, *Error) {
	if _, err := schemes.Lookup(scheme); err != nil {
		return KeyInfo{}, Errf(CodeSchemeUnknown, "%v", err)
	}
	k, err := store.Get(scheme, keyID)
	if err != nil {
		return KeyInfo{}, Errf(CodeKeyUnknown, "%v", err)
	}
	return KeyInfo{
		Scheme:    string(k.Scheme),
		KeyID:     k.ID,
		Group:     k.Group,
		Default:   k.ID == keys.DefaultKeyID,
		Epoch:     k.Epoch,
		Members:   append([]int(nil), k.Members...),
		PublicKey: k.PublicBytes(),
	}, nil
}

// EachWaiter is implemented by Services that can deliver batch results
// as each instance finishes, instead of all at once: fn is invoked with
// the handle's position and its result, serially, in completion order.
// Callers time or stream per-request completions through it without
// waiting for the whole batch.
type EachWaiter interface {
	WaitEach(ctx context.Context, hs []Handle, fn func(i int, res Result)) error
}

// WaitEach waits for every handle and invokes fn as each result
// arrives, using the service's streaming delivery when available and
// falling back to one concurrent Wait per handle otherwise. fn calls
// are serialized. A transport or deadline failure is returned after all
// in-flight waits settle; instance failures arrive inside Result.Err.
func WaitEach(ctx context.Context, s Service, hs []Handle, fn func(i int, res Result)) error {
	if ew, ok := s.(EachWaiter); ok {
		return ew.WaitEach(ctx, hs, fn)
	}
	var (
		mu       sync.Mutex // serializes fn
		errMu    sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i, h := range hs {
		wg.Add(1)
		go func(i int, h Handle) {
			defer wg.Done()
			res, err := s.Wait(ctx, h)
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				return
			}
			mu.Lock()
			fn(i, res)
			mu.Unlock()
		}(i, h)
	}
	wg.Wait()
	return firstErr
}

// ValidateRequest classifies a request's defects into the structured
// error model before any instance state is created. Every Service
// implementation reaches it: committee.Unit — the one node-side
// implementation, which Committee, Cluster and Node serve through —
// checks every submission with it, Router before it routes, and the
// HTTP front before it hands a request to its Service, which is where
// client.Client's requests are checked. So embedded and remote
// deployments reject identical requests with identical codes. The
// checks themselves live in protocols.Request.Validate; this maps its
// sentinels to codes.
func ValidateRequest(req protocols.Request) *Error {
	err := req.Validate()
	switch {
	case err == nil:
		return nil
	case errors.Is(err, protocols.ErrUnknownOperation):
		return Errf(CodeOpUnknown, "%v", err)
	case errors.Is(err, schemes.ErrUnknown):
		// Matched explicitly: only a failed scheme-registry lookup may
		// classify as scheme_unknown. New validation failures fall to
		// the bad_request default instead of masquerading as an unknown
		// scheme.
		return Errf(CodeSchemeUnknown, "%v", err)
	case errors.Is(err, protocols.ErrPayloadTooLarge):
		return Errf(CodePayloadTooLarge, "%v", err)
	default:
		// Malformed key IDs, unsupported keygen targets, and any
		// future structural defect.
		return Errf(CodeBadRequest, "%v", err)
	}
}

// CheckRequestKey resolves a request's key reference against the
// answering node's keystore, after ValidateRequest and before any
// instance state is created: a threshold operation under a key the
// node does not hold fails with CodeKeyUnknown (404), a keygen naming
// an installed key with CodeKeyExists (409), a request pinned to a
// stale epoch with CodeKeyEpoch (409), and a quorum operation under a
// key the node knows only publicly with CodeKeyNoShare (409).
// committee.Unit — the one node-side Service implementation, which
// Committee, Cluster and Node serve through — runs it against its
// node's keystore, and Router and client.Client reach a unit to
// submit, so embedded and remote deployments reject identical requests
// with identical codes.
//
// Requests pinned to a FUTURE epoch pass: during a resharing the
// submitting client may learn the new epoch before every node has
// finalized, and the engine defers such requests briefly instead of
// failing them.
func CheckRequestKey(store *keys.Keystore, req protocols.Request) *Error {
	if req.Op == protocols.OpKeyGen {
		if _, err := store.Get(req.Scheme, req.KeyID); err == nil {
			return Errf(CodeKeyExists, "key %s/%s already exists", req.Scheme, req.KeyID)
		}
		return nil
	}
	k, err := store.Get(req.Scheme, req.EffectiveKeyID())
	if err != nil {
		return Errf(CodeKeyUnknown, "%v", err)
	}
	pinned := req.Epoch > 0 || req.Op == protocols.OpReshare
	if pinned && req.Epoch < k.Epoch {
		return Errf(CodeKeyEpoch, "key %s/%s is at epoch %d, request pinned to %d",
			req.Scheme, k.ID, k.Epoch, req.Epoch)
	}
	// Reshare instances admit public-only nodes: a node leaving (or
	// outside) the committee participates as an observer and installs
	// the new public material.
	if req.Op != protocols.OpReshare && k.Share == nil {
		return Errf(CodeKeyNoShare, "node %d holds no share of key %s/%s",
			store.Index, req.Scheme, k.ID)
	}
	return nil
}

// Execute submits one request and waits for its value — the one-liner
// of the protocol API, written once against any Service.
func Execute(ctx context.Context, s Service, req protocols.Request) ([]byte, error) {
	h, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	res, err := s.Wait(ctx, h)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, res.Err
	}
	return res.Value, nil
}

// WaitAll waits for every handle through WaitEach and returns the
// results in handle order.
func WaitAll(ctx context.Context, s Service, hs []Handle) ([]Result, error) {
	out := make([]Result, len(hs))
	if err := WaitEach(ctx, s, hs, func(i int, res Result) { out[i] = res }); err != nil {
		return nil, err
	}
	return out, nil
}

// ExecuteBatch submits a batch and waits for all results.
func ExecuteBatch(ctx context.Context, s Service, reqs []protocols.Request) ([]Result, error) {
	hs, err := s.SubmitBatch(ctx, reqs)
	if err != nil {
		return nil, err
	}
	return WaitAll(ctx, s, hs)
}
