package api

import (
	"errors"
	"time"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/precompute"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

func msToDuration(ms int64) time.Duration { return time.Duration(ms) * time.Millisecond }

// ClassifyResultErr maps an instance failure onto the structured error
// model — the one seam shared by the HTTP service layer and the
// embedded deployments, so a failed instance reports the same code on
// every Service implementation. nil stays nil; unrecognized failures
// classify as CodeInternal.
func ClassifyResultErr(err error) *Error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, orchestration.ErrExpired):
		// The result outlived the retention window; re-submitting the
		// request starts a fresh instance.
		return Errf(CodeExpired, "%v", err)
	case errors.Is(err, keys.ErrKeyUnknown):
		return Errf(CodeKeyUnknown, "%v", err)
	case errors.Is(err, keys.ErrKeyExists):
		return Errf(CodeKeyExists, "%v", err)
	case errors.Is(err, keys.ErrKeyEpoch):
		return Errf(CodeKeyEpoch, "%v", err)
	case errors.Is(err, keys.ErrKeyNoShare):
		return Errf(CodeKeyNoShare, "%v", err)
	default:
		return Errf(CodeInternal, "%v", err)
	}
}

// EngineStatsOf converts an engine snapshot into the wire shape, shared
// by the HTTP service layer and the embedded deployments.
func EngineStatsOf(st orchestration.Stats) *EngineStats {
	return &EngineStats{
		Live:              st.Live,
		Finished:          st.Finished,
		Evicted:           st.Evicted,
		QueueDepth:        st.QueueDepth,
		QueueCap:          st.QueueCap,
		RejectedShares:    st.RejectedShares,
		Overloaded:        st.Overloaded,
		PartialBroadcasts: st.PartialBroadcasts,
		Transport:         TransportStatsOf(st.Transport),
		Crypto:            CryptoStatsOf(st.Crypto),
	}
}

// CryptoStatsOf converts a share-check snapshot into the wire shape.
func CryptoStatsOf(cs precompute.Stats) *CryptoStats {
	return &CryptoStats{
		BatchesVerified:  cs.BatchesVerified,
		BatchedRelations: cs.BatchedRelations,
	}
}

// TransportStatsOf converts a transport snapshot into the wire shape;
// nil when the transport reports no peers (embedded single node).
func TransportStatsOf(ts network.TransportStats) *TransportStats {
	if len(ts.Peers) == 0 {
		return nil
	}
	out := &TransportStats{
		Peers:         make([]PeerStats, len(ts.Peers)),
		Reliable:      ts.Reliable,
		Authenticated: ts.Authenticated,
	}
	for i, p := range ts.Peers {
		out.Peers[i] = PeerStats{
			Peer:                p.Peer,
			State:               p.State.String(),
			QueueDepth:          p.QueueDepth,
			QueueCap:            p.QueueCap,
			Enqueued:            p.Enqueued,
			Sent:                p.Sent,
			Delivered:           p.Delivered,
			Inflight:            p.Inflight,
			Resent:              p.Resent,
			Dropped:             p.Dropped,
			ConsecutiveFailures: p.ConsecutiveFailures,
			LastError:           p.LastError,
			Authenticated:       p.Authenticated,
		}
	}
	return out
}

// The /v2 endpoints and their JSON wire types. All payload byte fields
// are standard-library base64 (encoding/json []byte encoding).
//
//	POST /v2/protocol/submit    SubmitBatchRequest  -> SubmitBatchResponse
//	GET  /v2/protocol/results   ?ids=a,b&timeout_ms=N[&stream=1]
//	                            -> ResultsResponse, or an SSE stream of
//	                               one ResultEntry per "data:" event
//	POST /v2/scheme/encrypt     EncryptRequest      -> EncryptResponse
//	GET  /v2/info               -> InfoResponse
//	GET  /v2/keys               -> KeysResponse
//	GET  /v2/keys/{scheme}/{id} -> KeyResponse (404 key_unknown)
//	POST /v2/keys               GenerateKeyRequest  -> GenerateKeyResponse
//	POST /v2/keys/{id}/reshare  ReshareKeyRequest   -> ReshareKeyResponse
//
// Non-2xx responses carry ErrorResponse. Batch submission is partial:
// invalid items fail individually inside SubmitBatchResponse while the
// rest of the batch proceeds.

// SubmitItem is one protocol request of a v2 submission.
type SubmitItem struct {
	Scheme string `json:"scheme"`
	// KeyID names the key the operation runs under; empty selects the
	// scheme's default key.
	KeyID   string `json:"key_id,omitempty"`
	Op      string `json:"op"` // "sign" | "decrypt" | "coin" | "keygen"
	Payload []byte `json:"payload"`
	// Session distinguishes repeated requests over the same payload.
	Session string `json:"session,omitempty"`
	// Epoch pins the request to one key epoch: the instance runs iff
	// the key is at exactly this epoch, and fails with key_epoch
	// otherwise. Zero (the default) selects the node's current epoch.
	Epoch int `json:"epoch,omitempty"`
	// TimeoutMS is the per-request deadline: once elapsed, result
	// queries for this instance report CodeTimeout instead of blocking.
	// Zero means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Item converts a typed request into its wire form.
func Item(req protocols.Request) SubmitItem {
	return SubmitItem{
		Scheme:  string(req.Scheme),
		KeyID:   req.KeyID,
		Op:      req.Op.String(),
		Payload: req.Payload,
		Session: req.Session,
		Epoch:   req.Epoch,
	}
}

// Request converts the wire form back into a typed request.
func (it SubmitItem) Request() (protocols.Request, error) {
	op, err := protocols.ParseOperation(it.Op)
	if err != nil {
		return protocols.Request{}, Errf(CodeOpUnknown, "%v", err)
	}
	req := protocols.Request{
		Scheme:  schemes.ID(it.Scheme),
		KeyID:   it.KeyID,
		Op:      op,
		Payload: it.Payload,
		Session: it.Session,
		Epoch:   it.Epoch,
	}
	return req, nil
}

// SubmitBatchRequest is the body of POST /v2/protocol/submit: 1..N
// requests decoded and dispatched in one round-trip.
type SubmitBatchRequest struct {
	Requests []SubmitItem `json:"requests"`
}

// SubmitEntry is the per-item outcome of a batch submission.
type SubmitEntry struct {
	// InstanceID is the handle of the (new or joined) instance; empty
	// when Error is set.
	InstanceID string `json:"instance_id,omitempty"`
	// Duplicate reports that the request joined an instance that
	// already existed (idempotent re-submission).
	Duplicate bool `json:"duplicate,omitempty"`
	// Error classifies a rejected item; the other items of the batch
	// are unaffected.
	Error *Error `json:"error,omitempty"`
}

// SubmitBatchResponse answers a batch submission in request order. The
// HTTP status is 200 when every accepted item joined an existing
// instance and 202 when at least one new instance was started.
type SubmitBatchResponse struct {
	Results []SubmitEntry `json:"results"`
}

// ResultEntry is one instance's state in a results query or stream.
type ResultEntry struct {
	InstanceID string `json:"instance_id"`
	// Done reports whether the instance finished (successfully or not).
	// A long-poll that hits its window returns pending entries with
	// Done=false and no Error; callers re-poll.
	Done  bool   `json:"done"`
	Value []byte `json:"value,omitempty"`
	// Error is set when the instance failed or its per-request deadline
	// expired (CodeTimeout).
	Error *Error `json:"error,omitempty"`
	// LatencyMS is the server-side processing time of a finished
	// instance.
	LatencyMS int64 `json:"latency_ms,omitempty"`
}

// Result converts the wire entry into the typed result.
func (re ResultEntry) Result() Result {
	res := Result{InstanceID: re.InstanceID, Value: re.Value}
	if re.Error != nil {
		res.Err = re.Error
	}
	res.ServerLatency = msToDuration(re.LatencyMS)
	return res
}

// ResultsResponse answers a non-streaming results query.
type ResultsResponse struct {
	Results []ResultEntry `json:"results"`
}

// EncryptRequest is the scheme-API encryption request.
type EncryptRequest struct {
	Scheme string `json:"scheme"`
	// KeyID names the public key to encrypt under; empty selects the
	// scheme's default key.
	KeyID   string `json:"key_id,omitempty"`
	Message []byte `json:"message"`
	Label   []byte `json:"label,omitempty"`
}

// EncryptResponse carries the marshaled ciphertext.
type EncryptResponse struct {
	Ciphertext []byte `json:"ciphertext"`
}

// KeysResponse answers GET /v2/keys with the node's keychain.
type KeysResponse struct {
	Keys []KeyInfo `json:"keys"`
}

// KeyResponse answers GET /v2/keys/{scheme}/{id} with one named key's
// description — epoch, committee membership, and public material —
// without transferring the whole keychain. An unknown scheme answers
// 404 scheme_unknown, an unknown key 404 key_unknown.
type KeyResponse struct {
	Key KeyInfo `json:"key"`
}

// GenerateKeyRequest is the body of POST /v2/keys: start a distributed
// key generation for the scheme. KeyID and Group are optional (random
// ID, edwards25519).
type GenerateKeyRequest struct {
	Scheme string `json:"scheme"`
	KeyID  string `json:"key_id,omitempty"`
	Group  string `json:"group,omitempty"`
}

// GenerateKeyResponse answers with the keygen instance handle and the
// assigned key ID; the instance's result (via /v2/protocol/results)
// carries the same ID once the key is installed on the answering node.
type GenerateKeyResponse struct {
	InstanceID string `json:"instance_id"`
	KeyID      string `json:"key_id"`
}

// ReshareKeyRequest is the body of POST /v2/keys/{id}/reshare: start a
// live resharing of the named key. NewT and Members are optional —
// zero keeps the current threshold, empty keeps the current committee
// (a proactive refresh).
type ReshareKeyRequest struct {
	Scheme  string `json:"scheme"`
	NewT    int    `json:"new_t,omitempty"`
	Members []int  `json:"members,omitempty"`
}

// ReshareKeyResponse answers with the reshare instance handle, the key
// being reshared, and the epoch the key will be at once the instance
// finishes; the instance's result (via /v2/protocol/results) carries
// that epoch in decimal once the new shares are installed on the
// answering node.
type ReshareKeyResponse struct {
	InstanceID string `json:"instance_id"`
	KeyID      string `json:"key_id"`
	Epoch      int    `json:"epoch"`
}

// InfoResponse describes the node, its schemes, its keychain, and its
// engine stats.
type InfoResponse struct {
	APIVersion int          `json:"api_version"`
	NodeIndex  int          `json:"node_index"`
	N          int          `json:"n"`
	T          int          `json:"t"`
	Schemes    []string     `json:"schemes"`
	Keys       []KeyInfo    `json:"keys,omitempty"`
	Stats      *EngineStats `json:"stats,omitempty"`
	// Committees is the per-committee block of a router endpoint; absent
	// on single-committee deployments.
	Committees []CommitteeInfo `json:"committees,omitempty"`
}

// Info converts the wire form into the typed info.
func (ir InfoResponse) Info() Info {
	ids := make([]schemes.ID, len(ir.Schemes))
	for i, s := range ir.Schemes {
		ids[i] = schemes.ID(s)
	}
	return Info{NodeIndex: ir.NodeIndex, N: ir.N, T: ir.T, Schemes: ids, Keys: ir.Keys,
		Stats: ir.Stats, Committees: ir.Committees}
}

// ErrorResponse is the body of every non-2xx v2 response.
type ErrorResponse struct {
	Error *Error `json:"error"`
}
