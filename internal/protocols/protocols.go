// Package protocols implements the core layer's protocol module: the
// Threshold Round Interface (TRI) that unifies non-interactive and
// multi-round threshold protocols, the one share quorum every scheme's
// shares go through, the single-round protocol that runs it for the
// non-interactive schemes, and the two-round FROST protocol.
//
// The TRI reproduces the paper's five functions (Section 3.5): DoRound,
// Update, IsReadyForNextRound, IsReadyToFinalize, and Finalize. A round
// is the local computation performed in response to network input until
// the party produces a result or a message for the other parties.
package protocols

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"

	"thetacrypt/internal/group"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/wire"
)

// Operation is the threshold operation requested by a client.
type Operation int

// Operations offered by the protocol API.
const (
	OpSign Operation = iota + 1
	OpDecrypt
	OpCoin
	// OpKeyGen runs a distributed key generation as a protocol
	// instance: the request's KeyID names the key to create, the
	// payload carries the DL group name (empty = edwards25519), and the
	// instance result is the new key's ID.
	OpKeyGen
	// OpReshare refreshes an existing key's sharing as a protocol
	// instance: the payload carries a marshaled ReshareSpec (the new
	// threshold and committee), the request's epoch pins the sharing
	// being refreshed, and the instance result is the new epoch in
	// decimal. Same-committee specs implement proactive refresh;
	// different committees grow, shrink or replace nodes live.
	OpReshare
)

// String returns the lowercase operation name.
func (o Operation) String() string {
	switch o {
	case OpSign:
		return "sign"
	case OpDecrypt:
		return "decrypt"
	case OpCoin:
		return "coin"
	case OpKeyGen:
		return "keygen"
	case OpReshare:
		return "reshare"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// ParseOperation maps the wire names of the service layer back to
// operations.
func ParseOperation(op string) (Operation, error) {
	switch op {
	case "sign":
		return OpSign, nil
	case "decrypt":
		return OpDecrypt, nil
	case "coin":
		return OpCoin, nil
	case "keygen":
		return OpKeyGen, nil
	case "reshare":
		return OpReshare, nil
	default:
		return 0, fmt.Errorf("protocols: unknown operation %q", op)
	}
}

// MaxPayload bounds the request payload accepted by Validate (and with
// it the service layer); larger messages are hashed or chunked by the
// application.
const MaxPayload = 1 << 20

// Request is a client request for one threshold operation.
type Request struct {
	Scheme schemes.ID
	// KeyID names the key the operation runs under; empty selects the
	// scheme's default key. For OpKeyGen it names the key to create
	// (required — key generation never targets the implicit default).
	KeyID string
	Op    Operation
	// Payload is the message to sign, the marshaled ciphertext to
	// decrypt, the coin name, or (for OpKeyGen) the DL group name.
	Payload []byte
	// Session distinguishes repeated requests on the same payload.
	Session string
	// Epoch pins the request to one version of the key's sharing: a
	// request with Epoch > 0 is rejected unless it equals the key's
	// current epoch, so an old-epoch share can never enter a new-epoch
	// quorum. Zero means "the current epoch, whatever it is" — the
	// back-compatible default. OpReshare alone treats the epoch as
	// always pinned (zero pins a key a v3 or v4 file carries at epoch
	// 0), so nodes mid-reshare cannot deal from different sharings
	// under one instance ID.
	Epoch int
}

// Validation sentinels distinguished by the service layer's error
// model (api.ValidateRequest); scheme failures surface as the scheme
// registry's ErrUnknown.
var (
	ErrUnknownOperation = errors.New("protocols: unknown operation")
	ErrPayloadTooLarge  = errors.New("protocols: payload too large")
	// ErrBadKeyID flags a syntactically invalid key identifier (or a
	// keygen request without one).
	ErrBadKeyID = errors.New("protocols: bad key id")
	// ErrKeygenUnsupported flags a keygen request for a scheme the DKG
	// cannot produce keys for, or an unknown DKG group.
	ErrKeygenUnsupported = errors.New("protocols: keygen unsupported")
	// ErrReshareUnsupported flags a reshare request for a deal-only
	// scheme or with a malformed ReshareSpec payload.
	ErrReshareUnsupported = errors.New("protocols: reshare unsupported")
	// ErrBadEpoch flags a request with a negative epoch.
	ErrBadEpoch = errors.New("protocols: bad epoch")
)

// EffectiveKeyID resolves the key the request addresses: KeyID, or the
// scheme's default key when empty. All derived identity (InstanceID,
// the wire form) uses the effective ID, so "" and "default" name the
// same instance on every node.
func (r Request) EffectiveKeyID() string {
	if r.KeyID == "" {
		return keys.DefaultKeyID
	}
	return r.KeyID
}

// Validate checks the request against the scheme registry and the
// protocol module's structural limits before any instance state is
// created. It is the single validation seam shared by the embedded
// facade and the service layer. Whether the named key exists on a
// node is a runtime property checked at submission and execution, not
// here.
func (r Request) Validate() error {
	// The operation is checked before the scheme, in the order the
	// service layer's wire parse (api.SubmitItem.Request) checks them.
	if r.Op < OpSign || r.Op > OpReshare {
		return fmt.Errorf("%w %d", ErrUnknownOperation, int(r.Op))
	}
	if _, err := schemes.Lookup(r.Scheme); err != nil {
		return err
	}
	switch r.Op {
	case OpSign, OpDecrypt, OpCoin:
		if !keys.ValidKeyID(r.EffectiveKeyID()) {
			return fmt.Errorf("%w %q", ErrBadKeyID, r.KeyID)
		}
	case OpKeyGen:
		if !keys.ValidKeyID(r.KeyID) {
			return fmt.Errorf("%w %q (keygen requires an explicit key id)", ErrBadKeyID, r.KeyID)
		}
		if !keys.SupportsDKG(r.Scheme) {
			return fmt.Errorf("%w: scheme %s is deal-only", ErrKeygenUnsupported, r.Scheme)
		}
		if len(r.Payload) > 0 {
			if _, err := group.ByName(string(r.Payload)); err != nil {
				return fmt.Errorf("%w: %v", ErrKeygenUnsupported, err)
			}
		}
	case OpReshare:
		if !keys.ValidKeyID(r.EffectiveKeyID()) {
			return fmt.Errorf("%w %q", ErrBadKeyID, r.KeyID)
		}
		if !keys.SupportsDKG(r.Scheme) {
			return fmt.Errorf("%w: scheme %s is deal-only", ErrReshareUnsupported, r.Scheme)
		}
		spec, err := UnmarshalReshareSpec(r.Payload)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrReshareUnsupported, err)
		}
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrReshareUnsupported, err)
		}
	}
	if r.Epoch < 0 {
		return fmt.Errorf("%w %d", ErrBadEpoch, r.Epoch)
	}
	if len(r.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes exceeds limit %d", ErrPayloadTooLarge, len(r.Payload), MaxPayload)
	}
	return nil
}

// InstanceID derives the deterministic protocol instance identifier all
// nodes agree on for this request. The key ID and epoch participate,
// so the same operation under two keys — or under two epochs of one
// key — is two instances (idempotency is per-key, per-epoch).
func (r Request) InstanceID() string {
	h := sha256.New()
	h.Write([]byte(r.Scheme))
	h.Write([]byte(r.EffectiveKeyID()))
	h.Write([]byte{byte(r.Op)})
	h.Write([]byte(r.Session))
	h.Write(r.Payload)
	if r.Epoch > 0 {
		// Epoch 0 ("current") hashes like a pre-epoch request, so
		// instance IDs of unpinned requests are unchanged across the
		// wire-format upgrade.
		fmt.Fprintf(h, "epoch:%d", r.Epoch)
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// Marshal encodes the request. The epoch rides last so pre-epoch
// decoders reading a zero-epoch request would only miss a trailing
// zero.
func (r Request) Marshal() []byte {
	return wire.NewWriter().
		String(string(r.Scheme)).Int(int(r.Op)).Bytes(r.Payload).String(r.Session).
		String(r.EffectiveKeyID()).Int(r.Epoch).Out()
}

// UnmarshalRequest decodes a request.
func UnmarshalRequest(data []byte) (Request, error) {
	rd := wire.NewReader(data)
	req := Request{
		Scheme: schemes.ID(rd.String()),
		Op:     Operation(rd.Int()),
	}
	req.Payload = rd.Bytes()
	req.Session = rd.String()
	req.KeyID = rd.String()
	req.Epoch = rd.Int()
	if err := rd.Err(); err != nil {
		return Request{}, fmt.Errorf("protocols request: %w", err)
	}
	return req, nil
}

// ProtocolMessage is one protocol-level message received from or sent to
// the network.
type ProtocolMessage struct {
	Sender  int
	Round   int
	Payload []byte
}

// RoundOutput is the product of one DoRound call: a message to forward
// to the other parties, or nil when the party has nothing to send in
// this round.
type RoundOutput struct {
	Round   int
	Payload []byte
}

// Protocol is the Threshold Round Interface. Implementations are NOT
// safe for concurrent use; the orchestration executor serializes calls.
type Protocol interface {
	// DoRound triggers the local computation of the current round and
	// returns the resulting protocol message, if any. It is called once
	// at the start of the protocol and again whenever
	// IsReadyForNextRound reports true.
	DoRound() (*RoundOutput, error)
	// Update records a message received from the network. An error
	// wrapping ErrShareRejected rejects one or more shares (split them
	// with Rejections) and leaves the instance running, possibly
	// advanced by the same message; any other error ends the instance.
	Update(msg ProtocolMessage) error
	// IsReadyForNextRound reports whether enough messages arrived to
	// advance to the next round.
	IsReadyForNextRound() bool
	// IsReadyToFinalize reports whether the result can be computed.
	IsReadyToFinalize() bool
	// Finalize assembles and returns the final result.
	Finalize() ([]byte, error)
}

// Errors shared by protocol implementations.
var (
	// ErrShareRejected flags an invalid share from a peer; the instance
	// keeps running and waits for further shares (robustness for
	// non-interactive schemes).
	ErrShareRejected = errors.New("protocols: share rejected")
	// ErrNotReady is returned by Finalize before the quorum is reached.
	ErrNotReady = errors.New("protocols: result not ready")
	// ErrAlreadyFinalized is returned when DoRound is called after the
	// protocol terminated.
	ErrAlreadyFinalized = errors.New("protocols: instance already finalized")
)

// shareRejection names the sender of a rejected share. That is not
// always the sender of the message being delivered: a stored share can
// fail when a later one completes the quorum, and a parked FROST share
// when the commitment set completes.
type shareRejection struct {
	sender int
	err    error
}

func (r *shareRejection) Error() string { return fmt.Sprintf("share from %d: %v", r.sender, r.err) }

func (r *shareRejection) Unwrap() error { return r.err }

// rejectShare attributes err, a share check failure, to sender.
func rejectShare(sender int, err error) error {
	return &shareRejection{sender: sender, err: fmt.Errorf("%w: %w", ErrShareRejected, err)}
}

// Rejections splits an Update error into one error per rejected share.
// It is empty when err rejects no share, i.e. when err is a protocol
// failure that ends the instance.
func Rejections(err error) []error {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		if errors.Is(err, ErrShareRejected) {
			return []error{err}
		}
		return nil
	}
	var out []error
	for _, e := range joined.Unwrap() {
		r := Rejections(e)
		if r == nil {
			return nil
		}
		out = append(out, r...)
	}
	return out
}
