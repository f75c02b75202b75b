package api

import (
	"errors"
	"fmt"
	"net/http"
)

// Code is a machine-readable error classification shared by every v2
// endpoint and by every Service implementation (committee.Unit,
// router.Router and client.Client). Clients branch on the code, never
// on error strings.
type Code string

// Error codes of the v2 API.
const (
	// CodeBadRequest flags a request the server could not parse
	// (malformed JSON, missing fields, empty batch).
	CodeBadRequest Code = "bad_request"
	// CodeSchemeUnknown flags a scheme identifier outside Table 1.
	CodeSchemeUnknown Code = "scheme_unknown"
	// CodeOpUnknown flags an operation other than
	// sign|decrypt|coin|keygen|reshare.
	CodeOpUnknown Code = "op_unknown"
	// CodeSchemeNoKeys flags a scheme the node holds no key material
	// for (keys were not dealt for it).
	CodeSchemeNoKeys Code = "scheme_no_keys"
	// CodeSchemeNotCipher flags an encryption request against a
	// signature or coin scheme.
	CodeSchemeNotCipher Code = "scheme_not_cipher"
	// CodeKeyUnknown flags a key ID the node's keystore does not hold
	// for the requested scheme. Transported as HTTP 404.
	CodeKeyUnknown Code = "key_unknown"
	// CodeKeyExists flags a key generation naming a (scheme, key ID)
	// pair that is already installed. Transported as HTTP 409.
	CodeKeyExists Code = "key_exists"
	// CodeKeyEpoch flags a request pinned to a key epoch the answering
	// node is not at: a share from a superseded epoch can never enter a
	// quorum of the current one. Re-submitting unpinned (epoch 0) uses
	// the node's current epoch. Transported as HTTP 409.
	CodeKeyEpoch Code = "key_epoch"
	// CodeKeyNoShare flags a threshold operation under a key the node
	// knows only publicly — after a resharing moved the committee away
	// from it, the node verifies and serves results but holds no share.
	// Transported as HTTP 409.
	CodeKeyNoShare Code = "key_no_share"
	// CodePayloadTooLarge flags a payload above MaxPayload.
	CodePayloadTooLarge Code = "payload_too_large"
	// CodeTimeout flags a per-request deadline or wait deadline that
	// expired before the instance finished.
	CodeTimeout Code = "timeout"
	// CodeOverloaded flags a node whose engine queue is saturated: the
	// request was not admitted and had no effect. Transported as HTTP
	// 429; the client SDK retries these with exponential backoff.
	CodeOverloaded Code = "overloaded"
	// CodeExpired flags an instance whose result passed the node's
	// retention window and was evicted. Re-submitting the request
	// starts a fresh instance.
	CodeExpired Code = "expired"
	// CodeNotFound flags an unknown instance or route.
	CodeNotFound Code = "not_found"
	// CodeUnavailable flags a node that is shutting down or otherwise
	// unable to serve (overload has its own CodeOverloaded).
	CodeUnavailable Code = "unavailable"
	// CodeInternal flags any other server-side failure.
	CodeInternal Code = "internal"
)

// Error is the structured error model of the v2 API. It is the JSON
// body of every non-2xx response ({"error":{"code":...,"message":...}})
// and the error type returned by the client SDK.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Errf builds a structured error.
func Errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// CodeOf extracts the machine-readable code from any error; errors that
// are not (or do not wrap) an *Error report CodeInternal, and nil
// reports the empty code.
func CodeOf(err error) Code {
	if err == nil {
		return ""
	}
	var e *Error
	if errors.As(err, &e) {
		return e.Code
	}
	return CodeInternal
}

// HTTPStatus maps an error code to its transport status.
func HTTPStatus(code Code) int {
	switch code {
	case CodeBadRequest, CodeSchemeUnknown, CodeOpUnknown, CodeSchemeNotCipher:
		return http.StatusBadRequest
	case CodeSchemeNoKeys, CodeKeyUnknown, CodeNotFound:
		return http.StatusNotFound
	case CodeKeyExists, CodeKeyEpoch, CodeKeyNoShare:
		return http.StatusConflict
	case CodePayloadTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeTimeout:
		return http.StatusGatewayTimeout
	case CodeOverloaded:
		return http.StatusTooManyRequests
	case CodeExpired:
		return http.StatusGone
	case CodeUnavailable:
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}
