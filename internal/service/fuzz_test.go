package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"thetacrypt/api"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// acceptAll is a Service that accepts every request and finishes every
// instance at once, so any error the Front answers is its own.
type acceptAll struct{}

func (acceptAll) Submit(_ context.Context, req protocols.Request) (api.Handle, error) {
	return api.Handle{InstanceID: req.InstanceID()}, nil
}

func (acceptAll) SubmitBatch(_ context.Context, reqs []protocols.Request) ([]api.Handle, error) {
	hs := make([]api.Handle, len(reqs))
	for i, req := range reqs {
		hs[i] = api.Handle{InstanceID: req.InstanceID()}
	}
	return hs, nil
}

func (acceptAll) Wait(_ context.Context, h api.Handle) (api.Result, error) {
	return api.Result{InstanceID: h.InstanceID, Value: []byte("ok")}, nil
}

func (acceptAll) Encrypt(context.Context, schemes.ID, string, []byte, []byte) ([]byte, error) {
	return []byte("ct"), nil
}

func (acceptAll) Info(context.Context) (api.Info, error) { return api.Info{N: 4, T: 1}, nil }

func (acceptAll) Keys(context.Context) ([]api.KeyInfo, error) { return nil, nil }

func (acceptAll) GenerateKey(_ context.Context, _ schemes.ID, opts api.GenerateKeyOptions) (api.Handle, error) {
	return api.Handle{InstanceID: "keygen-" + opts.KeyID}, nil
}

func (acceptAll) ReshareKey(_ context.Context, _ schemes.ID, keyID string, _ api.ReshareOptions) (api.Handle, error) {
	return api.Handle{InstanceID: "reshare-" + keyID}, nil
}

// FuzzFrontRequests drives raw bodies into POST /v2/protocol/submit
// and raw query strings into GET /v2/protocol/results through NewFront
// over a Service that accepts everything. It asserts that no input
// panics, that no request answers 5xx (the service never fails, so a
// malformed request is the client's fault: 4xx), and that every error
// body, and every per-item error of a batch, decodes as an api.Error
// whose known code maps to a 4xx status; an error response carries the
// status of its code.
func FuzzFrontRequests(f *testing.F) {
	item := `{"scheme":"SG02","op":"decrypt","payload":"bXNn"}`
	batch := func(items ...string) []byte {
		return []byte(`{"requests":[` + strings.Join(items, ",") + `]}`)
	}
	over := make([]string, maxBatchItems+1)
	for i := range over {
		over[i] = item
	}
	// A valid batch whose payload pushes the body one byte past the cap.
	head, tail := `{"requests":[{"scheme":"SG02","op":"decrypt","payload":"`, `"}]}`
	huge := head + strings.Repeat("A", maxSubmitBody+1-len(head)-len(tail)) + tail

	f.Add(batch(item, `{"scheme":"BLS04","op":"sign","payload":"bXNn","timeout_ms":50}`), "ids=a,b&timeout_ms=10")
	f.Add(batch(), "ids=")
	f.Add(batch(over...), "ids=a&stream=1")
	f.Add(batch(`{"scheme":"SG02","op":"decrypt","payload":"bXNn","timeout_ms":"soon"}`), "ids=a&timeout_ms=-5")
	f.Add([]byte(huge), "timeout_ms=1e3&ids=a")
	f.Fuzz(func(t *testing.T, body []byte, query string) {
		front := NewFront(acceptAll{})

		w := httptest.NewRecorder()
		front.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/protocol/submit", bytes.NewReader(body)))
		checkFrontAnswer(t, "submit", w)
		if w.Code/100 == 2 {
			var resp api.SubmitBatchResponse
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatalf("submit: %d body does not decode: %v", w.Code, err)
			}
			for i, e := range resp.Results {
				if e.Error != nil && api.HTTPStatus(e.Error.Code)/100 != 4 {
					t.Fatalf("submit: item %d fails with code %q", i, e.Error.Code)
				}
			}
		}

		r := httptest.NewRequest(http.MethodGet, "/v2/protocol/results", nil)
		r.URL.RawQuery = query
		w = httptest.NewRecorder()
		front.ServeHTTP(w, r)
		checkFrontAnswer(t, "results", w)
	})
}

// checkFrontAnswer fails the test when w is a 5xx, or a non-2xx whose
// body is not an api.Error with a known code of that status.
func checkFrontAnswer(t *testing.T, what string, w *httptest.ResponseRecorder) {
	t.Helper()
	switch w.Code / 100 {
	case 2:
		return
	case 4:
	default:
		t.Fatalf("%s answered %d: %s", what, w.Code, w.Body.Bytes())
	}
	var resp api.ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Error == nil {
		t.Fatalf("%s: %d body is not an api.Error (%v): %s", what, w.Code, err, w.Body.Bytes())
	}
	if got := api.HTTPStatus(resp.Error.Code); got != w.Code {
		t.Fatalf("%s answered %d with code %q (status %d)", what, w.Code, resp.Error.Code, got)
	}
}
