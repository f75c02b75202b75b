package api

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

func TestCodeOf(t *testing.T) {
	if got := CodeOf(nil); got != "" {
		t.Fatalf("nil error: %q", got)
	}
	if got := CodeOf(Errf(CodeTimeout, "late")); got != CodeTimeout {
		t.Fatalf("direct: %q", got)
	}
	wrapped := fmt.Errorf("outer: %w", Errf(CodeSchemeUnknown, "nope"))
	if got := CodeOf(wrapped); got != CodeSchemeUnknown {
		t.Fatalf("wrapped: %q", got)
	}
	if got := CodeOf(errors.New("plain")); got != CodeInternal {
		t.Fatalf("plain: %q", got)
	}
}

func TestHTTPStatus(t *testing.T) {
	cases := map[Code]int{
		CodeBadRequest:      http.StatusBadRequest,
		CodeSchemeUnknown:   http.StatusBadRequest,
		CodeOpUnknown:       http.StatusBadRequest,
		CodeSchemeNotCipher: http.StatusBadRequest,
		CodeSchemeNoKeys:    http.StatusNotFound,
		CodeKeyUnknown:      http.StatusNotFound,
		CodeKeyExists:       http.StatusConflict,
		CodeNotFound:        http.StatusNotFound,
		CodePayloadTooLarge: http.StatusRequestEntityTooLarge,
		CodeTimeout:         http.StatusGatewayTimeout,
		CodeUnavailable:     http.StatusServiceUnavailable,
		CodeInternal:        http.StatusInternalServerError,
	}
	for code, want := range cases {
		if got := HTTPStatus(code); got != want {
			t.Errorf("%s: got %d want %d", code, got, want)
		}
	}
}

func TestValidateRequest(t *testing.T) {
	ok := protocols.Request{Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: []byte("m")}
	if e := ValidateRequest(ok); e != nil {
		t.Fatalf("valid request rejected: %v", e)
	}
	if e := ValidateRequest(protocols.Request{Scheme: "NOPE", Op: protocols.OpSign}); e == nil || e.Code != CodeSchemeUnknown {
		t.Fatalf("unknown scheme: %v", e)
	}
	big := protocols.Request{Scheme: schemes.BLS04, Op: protocols.OpSign, Payload: make([]byte, protocols.MaxPayload+1)}
	if e := ValidateRequest(big); e == nil || e.Code != CodePayloadTooLarge {
		t.Fatalf("oversized payload: %v", e)
	}
	bad := protocols.Request{Scheme: schemes.BLS04, Op: protocols.Operation(42), Payload: []byte("m")}
	if e := ValidateRequest(bad); e == nil || e.Code != CodeOpUnknown {
		t.Fatalf("bad op: %v", e)
	}
	// Only the scheme-registry lookup may classify as scheme_unknown:
	// new validation failures (bad key IDs, unsupported keygen targets)
	// fall to bad_request instead of masquerading as an unknown scheme.
	badKey := protocols.Request{Scheme: schemes.BLS04, KeyID: "not a key!", Op: protocols.OpSign, Payload: []byte("m")}
	if e := ValidateRequest(badKey); e == nil || e.Code != CodeBadRequest {
		t.Fatalf("bad key id: %v", e)
	}
	rsaGen := protocols.Request{Scheme: schemes.SH00, KeyID: "k1", Op: protocols.OpKeyGen}
	if e := ValidateRequest(rsaGen); e == nil || e.Code != CodeBadRequest {
		t.Fatalf("deal-only keygen: %v", e)
	}
	if e := ValidateRequest(protocols.Request{Scheme: schemes.KG20, KeyID: "k1", Op: protocols.OpKeyGen}); e != nil {
		t.Fatalf("valid keygen rejected: %v", e)
	}
}

func TestKeygenRequestSeam(t *testing.T) {
	req, e := KeygenRequest(schemes.CKS05, GenerateKeyOptions{})
	if e != nil {
		t.Fatal(e)
	}
	if req.Op != protocols.OpKeyGen || req.KeyID == "" {
		t.Fatalf("auto-named keygen request wrong: %+v", req)
	}
	req2, e := KeygenRequest(schemes.CKS05, GenerateKeyOptions{KeyID: "named", Group: "p256"})
	if e != nil {
		t.Fatal(e)
	}
	if req2.KeyID != "named" || string(req2.Payload) != "p256" {
		t.Fatalf("named keygen request wrong: %+v", req2)
	}
	if _, e := KeygenRequest(schemes.BLS04, GenerateKeyOptions{}); e == nil || e.Code != CodeBadRequest {
		t.Fatalf("pairing keygen: %v", e)
	}
	if _, e := KeygenRequest(schemes.KG20, GenerateKeyOptions{Group: "nope"}); e == nil || e.Code != CodeBadRequest {
		t.Fatalf("unknown group: %v", e)
	}
}

func TestItemRoundTrip(t *testing.T) {
	req := protocols.Request{
		Scheme: schemes.SG02, Op: protocols.OpDecrypt,
		Payload: []byte("ct"), Session: "s-1",
	}
	it := Item(req)
	back, err := it.Request()
	if err != nil {
		t.Fatal(err)
	}
	if back.InstanceID() != req.InstanceID() {
		t.Fatal("wire round-trip changed the instance identity")
	}
	it.Op = "frobnicate"
	if _, err := it.Request(); CodeOf(err) != CodeOpUnknown {
		t.Fatalf("bad op: %v", err)
	}
}
