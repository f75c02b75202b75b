// Package client is the typed Go SDK for a remote Thetacrypt
// deployment. It speaks the /v2 HTTP API — batch submission, long-poll
// and SSE result streaming, structured errors — and implements
// api.Service, so applications written against the interface swap
// between an embedded thetacrypt.Cluster and a remote node by changing
// one constructor call.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// pollWindow is the server-side long-poll window requested per result
// round-trip when the caller's context does not impose a tighter one.
const pollWindow = 30 * time.Second

// Overload retry defaults: a submission rejected with HTTP 429
// (api.CodeOverloaded) is retried with exponential backoff, since the
// server guarantees a rejected submission had no effect.
const (
	defaultRetryAttempts = 4
	defaultRetryBase     = 50 * time.Millisecond
	maxRetryDelay        = 2 * time.Second
)

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying HTTP client (timeouts,
// transports, instrumentation). The client must tolerate long-running
// requests: result waits hold connections open up to the poll window.
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithRetry tunes the overload retry policy: up to attempts re-issues
// of a submission rejected with api.CodeOverloaded, starting at base
// delay and doubling per attempt. attempts = 0 disables retries and
// surfaces the 429 to the caller.
func WithRetry(attempts int, base time.Duration) Option {
	return func(c *Client) {
		c.retryAttempts = attempts
		c.retryBase = base
	}
}

// Client talks to one node's service layer, e.g.
// client.New("http://127.0.0.1:8081").
type Client struct {
	base          string
	hc            *http.Client
	retryAttempts int
	retryBase     time.Duration
	trips         atomic.Int64
}

// New targets a node's service endpoint.
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		// No global timeout: waits are bounded by contexts and the
		// server's poll window, not by a transport-wide cutoff.
		hc:            &http.Client{},
		retryAttempts: defaultRetryAttempts,
		retryBase:     defaultRetryBase,
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// retryOverload runs fn, re-issuing it with exponential backoff while
// it fails with api.CodeOverloaded (the server sheds load before any
// state is created, so the re-issue is safe). Any other outcome is
// returned as is.
func (c *Client) retryOverload(ctx context.Context, fn func() error) error {
	delay := c.retryBase
	if delay <= 0 {
		delay = defaultRetryBase
	}
	for attempt := 0; ; attempt++ {
		err := fn()
		if err == nil || api.CodeOf(err) != api.CodeOverloaded || attempt >= c.retryAttempts {
			return err
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
		delay = min(2*delay, maxRetryDelay)
	}
}

var (
	_ api.Service           = (*Client)(nil)
	_ api.EachWaiter        = (*Client)(nil)
	_ api.DetailedSubmitter = (*Client)(nil)
)

// RoundTrips reports the number of HTTP requests issued so far; the
// benchmark harness uses it to demonstrate batch amortization.
func (c *Client) RoundTrips() int64 { return c.trips.Load() }

// BaseURL returns the service endpoint this client targets.
func (c *Client) BaseURL() string { return c.base }

// do issues one HTTP request and decodes a JSON response, mapping
// non-2xx bodies to *api.Error.
func (c *Client) do(req *http.Request, out any) error {
	c.trips.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	var body api.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil && body.Error != nil {
		return body.Error
	}
	return api.Errf(api.CodeInternal, "unexpected response %s", resp.Status)
}

func (c *Client) postJSON(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("client: encode request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, out)
}

// items converts requests to wire form, propagating the caller's
// context deadline as the per-request deadline on every item.
func items(ctx context.Context, reqs []protocols.Request) []api.SubmitItem {
	var timeoutMS int64
	if d, ok := ctx.Deadline(); ok {
		timeoutMS = max(time.Until(d).Milliseconds(), 1)
	}
	out := make([]api.SubmitItem, len(reqs))
	for i, req := range reqs {
		out[i] = api.Item(req)
		out[i].TimeoutMS = timeoutMS
	}
	return out
}

// SubmitDetailed submits a batch and returns the raw per-item entries,
// including idempotent-duplicate flags and per-item errors. Most
// callers use Submit or SubmitBatch. An overloaded node (HTTP 429) is
// retried with backoff per the client's retry policy before the error
// surfaces.
func (c *Client) SubmitDetailed(ctx context.Context, reqs []protocols.Request) ([]api.SubmitEntry, error) {
	var out api.SubmitBatchResponse
	err := c.retryOverload(ctx, func() error {
		out = api.SubmitBatchResponse{}
		return c.postJSON(ctx, "/v2/protocol/submit", api.SubmitBatchRequest{Requests: items(ctx, reqs)}, &out)
	})
	if err != nil {
		return nil, err
	}
	if len(out.Results) != len(reqs) {
		return nil, api.Errf(api.CodeInternal, "submit returned %d entries for %d requests", len(out.Results), len(reqs))
	}
	return out.Results, nil
}

// Submit starts one protocol instance.
func (c *Client) Submit(ctx context.Context, req protocols.Request) (api.Handle, error) {
	hs, err := c.SubmitBatch(ctx, []protocols.Request{req})
	if err != nil {
		return api.Handle{}, err
	}
	return hs[0], nil
}

// SubmitBatch starts 1..N instances in one round-trip. Any rejected
// item fails the call; use SubmitDetailed for partial acceptance.
func (c *Client) SubmitBatch(ctx context.Context, reqs []protocols.Request) ([]api.Handle, error) {
	entries, err := c.SubmitDetailed(ctx, reqs)
	if err != nil {
		return nil, err
	}
	hs := make([]api.Handle, len(entries))
	for i, e := range entries {
		if e.Error != nil {
			return nil, fmt.Errorf("client: request %d rejected: %w", i, e.Error)
		}
		hs[i] = api.Handle{InstanceID: e.InstanceID}
	}
	return hs, nil
}

// resultsURL builds the results query for one poll round.
func (c *Client) resultsURL(ctx context.Context, ids []string, stream bool) string {
	window := pollWindow
	if d, ok := ctx.Deadline(); ok {
		window = min(window, max(time.Until(d), time.Millisecond))
	}
	q := url.Values{}
	q.Set("ids", strings.Join(ids, ","))
	q.Set("timeout_ms", strconv.FormatInt(window.Milliseconds(), 10))
	if stream {
		q.Set("stream", "1")
	}
	return c.base + "/v2/protocol/results?" + q.Encode()
}

// Wait long-polls until the instance is final or ctx expires. Instance
// failures and expired per-request deadlines are reported inside the
// Result (Result.Err); transport failures and the caller's own deadline
// surface as the second return value.
func (c *Client) Wait(ctx context.Context, h api.Handle) (api.Result, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.resultsURL(ctx, []string{h.InstanceID}, false), nil)
		if err != nil {
			return api.Result{}, err
		}
		var out api.ResultsResponse
		if err := c.do(req, &out); err != nil {
			return api.Result{}, err
		}
		for _, entry := range out.Results {
			if entry.InstanceID == h.InstanceID && (entry.Done || entry.Error != nil) {
				return entry.Result(), nil
			}
		}
		// Poll window elapsed with the instance still pending.
		if err := ctx.Err(); err != nil {
			return api.Result{}, err
		}
	}
}

// WaitEach streams all results over a single SSE connection (one
// round-trip per stream window instead of one per instance) and hands
// each one to fn the moment its entry arrives, in completion order —
// per-request completion times are observable instead of being
// flattened to the batch's wall clock.
func (c *Client) WaitEach(ctx context.Context, hs []api.Handle, fn func(i int, res api.Result)) error {
	// The same handle may appear several times (idempotent duplicates);
	// every final entry fires fn for all its positions.
	pending := make(map[string][]int, len(hs))
	for i, h := range hs {
		pending[h.InstanceID] = append(pending[h.InstanceID], i)
	}
	for len(pending) > 0 {
		ids := make([]string, 0, len(pending))
		for id := range pending {
			ids = append(ids, id)
		}
		if err := c.streamOnce(ctx, ids, func(entry api.ResultEntry) {
			for _, i := range pending[entry.InstanceID] {
				fn(i, entry.Result())
			}
			delete(pending, entry.InstanceID)
		}); err != nil {
			return err
		}
		if len(pending) > 0 {
			// Stream window closed with instances still pending.
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// streamOnce consumes one SSE results stream, invoking fn per final
// entry, until the server closes the window or ctx expires.
func (c *Client) streamOnce(ctx context.Context, ids []string, fn func(api.ResultEntry)) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.resultsURL(ctx, ids, true), nil)
	if err != nil {
		return err
	}
	c.trips.Add(1)
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue // comments / blank keep-alive lines
		}
		var entry api.ResultEntry
		if err := json.Unmarshal([]byte(data), &entry); err != nil {
			return api.Errf(api.CodeInternal, "bad stream entry: %v", err)
		}
		fn(entry)
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil && err != io.ErrUnexpectedEOF {
		return err
	}
	return nil
}

// Encrypt calls the scheme API's local encryption at the remote node;
// the empty keyID selects the scheme's default key.
func (c *Client) Encrypt(ctx context.Context, scheme schemes.ID, keyID string, message, label []byte) ([]byte, error) {
	var out api.EncryptResponse
	err := c.postJSON(ctx, "/v2/scheme/encrypt", api.EncryptRequest{
		Scheme: string(scheme), KeyID: keyID, Message: message, Label: label,
	}, &out)
	if err != nil {
		return nil, err
	}
	return out.Ciphertext, nil
}

// Info fetches deployment metadata.
func (c *Client) Info(ctx context.Context) (api.Info, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/info", nil)
	if err != nil {
		return api.Info{}, err
	}
	var out api.InfoResponse
	if err := c.do(req, &out); err != nil {
		return api.Info{}, err
	}
	return out.Info(), nil
}

// Keys lists the remote node's keychain (GET /v2/keys).
func (c *Client) Keys(ctx context.Context) ([]api.KeyInfo, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v2/keys", nil)
	if err != nil {
		return nil, err
	}
	var out api.KeysResponse
	if err := c.do(req, &out); err != nil {
		return nil, err
	}
	return out.Keys, nil
}

// Key resolves one named key of the remote keychain without
// transferring the whole listing (GET /v2/keys/{scheme}/{id}); the
// empty keyID selects the scheme's default key. A missing key reports
// CodeKeyUnknown (api.KeyFetcher).
func (c *Client) Key(ctx context.Context, scheme schemes.ID, keyID string) (api.KeyInfo, error) {
	if keyID == "" {
		keyID = keys.DefaultKeyID
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		c.base+"/v2/keys/"+url.PathEscape(string(scheme))+"/"+url.PathEscape(keyID), nil)
	if err != nil {
		return api.KeyInfo{}, err
	}
	var out api.KeyResponse
	if err := c.do(req, &out); err != nil {
		return api.KeyInfo{}, err
	}
	return out.Key, nil
}

// GenerateKey starts a distributed key generation at the remote
// deployment (POST /v2/keys) and returns the keygen instance's handle;
// waiting on it yields the new key's ID as the result value. An
// overloaded node is retried with backoff like a submission.
func (c *Client) GenerateKey(ctx context.Context, scheme schemes.ID, opts api.GenerateKeyOptions) (api.Handle, error) {
	var out api.GenerateKeyResponse
	err := c.retryOverload(ctx, func() error {
		out = api.GenerateKeyResponse{}
		return c.postJSON(ctx, "/v2/keys", api.GenerateKeyRequest{
			Scheme: string(scheme), KeyID: opts.KeyID, Group: opts.Group,
		}, &out)
	})
	if err != nil {
		return api.Handle{}, err
	}
	return api.Handle{InstanceID: out.InstanceID}, nil
}

// ReshareKey starts a live resharing of a named key at the remote
// deployment (POST /v2/keys/{id}/reshare) and returns the reshare
// instance's handle; waiting on it yields the key's new epoch in
// decimal. The empty keyID selects the scheme's default key. An
// overloaded node is retried with backoff like a submission.
func (c *Client) ReshareKey(ctx context.Context, scheme schemes.ID, keyID string, opts api.ReshareOptions) (api.Handle, error) {
	if keyID == "" {
		keyID = keys.DefaultKeyID
	}
	var out api.ReshareKeyResponse
	err := c.retryOverload(ctx, func() error {
		out = api.ReshareKeyResponse{}
		return c.postJSON(ctx, "/v2/keys/"+url.PathEscape(keyID)+"/reshare", api.ReshareKeyRequest{
			Scheme: string(scheme), NewT: opts.NewT, Members: opts.Members,
		}, &out)
	})
	if err != nil {
		return api.Handle{}, err
	}
	return api.Handle{InstanceID: out.InstanceID}, nil
}
