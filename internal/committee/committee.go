// Package committee extracts the reusable committee unit from the
// embedded cluster: one node's keystore plus orchestration engine
// (Unit), and a self-contained in-process Θ-network of n such units
// over a simulated transport (Committee). Unit is the one node-side
// api.Service and Committee serves through its node 1 Unit, so a
// process can host one committee (the classic embedded cluster), point
// a standalone node's service layer at a Unit, or front several
// committees with the router tier — the same protocol, scheme, and
// keychain paths in every arrangement.
package committee

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/sg02"
)

// Unit is one committee member: a keystore and the engine running its
// protocol instances. It is the one node-side api.Service: Committee,
// Cluster and Node serve its methods as their own, and the router and
// the HTTP front forward to it. Every submission — Submit,
// SubmitBatch, SubmitDetailed, GenerateKey, ReshareKey — passes check
// before it reaches the engine.
type Unit struct {
	Store  *keys.Keystore
	Engine *orchestration.Engine
}

// check validates a request and resolves its named key against the
// unit's keystore, before any instance state is created.
func (u Unit) check(req protocols.Request) *api.Error {
	if e := api.ValidateRequest(req); e != nil {
		return e
	}
	return api.CheckRequestKey(u.Store, req)
}

// Submit starts one threshold operation on this unit's engine: a
// SubmitDetailed of one, its entry's error returned as the call's.
func (u Unit) Submit(ctx context.Context, req protocols.Request) (api.Handle, error) {
	entries, err := u.SubmitDetailed(ctx, []protocols.Request{req})
	if err != nil {
		return api.Handle{}, err
	}
	if e := entries[0].Error; e != nil {
		return api.Handle{}, e
	}
	return api.Handle{InstanceID: entries[0].InstanceID}, nil
}

// SubmitBatch starts 1..N operations with a single engine hand-off,
// amortizing dispatch across the batch. Invalid requests fail the whole
// call (the engine is never reached).
func (u Unit) SubmitBatch(ctx context.Context, reqs []protocols.Request) ([]api.Handle, error) {
	for i, req := range reqs {
		if e := u.check(req); e != nil {
			return nil, fmt.Errorf("thetacrypt: request %d rejected: %w", i, e)
		}
	}
	subs, err := u.Engine.SubmitBatch(ctx, reqs)
	if err != nil {
		return nil, EngineErr(err)
	}
	hs := make([]api.Handle, len(subs))
	for i, sub := range subs {
		hs[i] = api.Handle{InstanceID: sub.InstanceID}
	}
	return hs, nil
}

// SubmitDetailed starts 1..N operations and reports each on its own
// (api.DetailedSubmitter): invalid requests and unknown keys fail their
// own entries, the valid rest go to the engine in one hand-off with the
// idempotent-duplicate flag on every entry, and only an engine failure
// fails the whole call.
func (u Unit) SubmitDetailed(ctx context.Context, reqs []protocols.Request) ([]api.SubmitEntry, error) {
	entries := make([]api.SubmitEntry, len(reqs))
	var valid []protocols.Request
	var validIdx []int // position of valid[j] in entries
	for i, req := range reqs {
		if e := u.check(req); e != nil {
			entries[i].Error = e
			continue
		}
		valid = append(valid, req)
		validIdx = append(validIdx, i)
	}
	if len(valid) == 0 {
		return entries, nil
	}
	subs, err := u.Engine.SubmitBatch(ctx, valid)
	if err != nil {
		return nil, EngineErr(err)
	}
	for j, sub := range subs {
		entries[validIdx[j]] = api.SubmitEntry{InstanceID: sub.InstanceID, Duplicate: sub.Duplicate}
	}
	return entries, nil
}

// Wait blocks until the instance finishes or ctx expires.
func (u Unit) Wait(ctx context.Context, h api.Handle) (api.Result, error) {
	res, err := u.Engine.Attach(h.InstanceID).Wait(ctx)
	if err != nil {
		return api.Result{}, err
	}
	return ResultOf(h.InstanceID, res), nil
}

// Encrypt creates a ciphertext under a named public key of an
// encryption scheme — a local computation against the unit's keystore.
func (u Unit) Encrypt(_ context.Context, scheme schemes.ID, keyID string, message, label []byte) ([]byte, error) {
	return EncryptLocal(u.Store, scheme, keyID, message, label)
}

// Info reports the deployment parameters, the keychain, and this
// unit's engine snapshot.
func (u Unit) Info(context.Context) (api.Info, error) {
	return api.Info{
		NodeIndex: u.Store.Index,
		N:         u.Store.N,
		T:         u.Store.T,
		Schemes:   u.Store.Schemes(),
		Keys:      api.KeyInfosOf(u.Store.List()),
		Stats:     api.EngineStatsOf(u.Engine.Stats()),
	}, nil
}

// Keys lists the named keys of the unit's keystore.
func (u Unit) Keys(context.Context) ([]api.KeyInfo, error) {
	return api.KeyInfosOf(u.Store.List()), nil
}

// Key resolves one named key of the unit's keystore (api.KeyFetcher).
func (u Unit) Key(_ context.Context, scheme schemes.ID, keyID string) (api.KeyInfo, error) {
	info, e := api.KeyInfoFromStore(u.Store, scheme, keyID)
	if e != nil {
		return api.KeyInfo{}, e
	}
	return info, nil
}

// GenerateKey starts a distributed key generation: build the keygen
// request through the shared api seam and submit it like any protocol
// instance.
func (u Unit) GenerateKey(ctx context.Context, scheme schemes.ID, opts api.GenerateKeyOptions) (api.Handle, error) {
	req, e := api.KeygenRequest(scheme, opts)
	if e != nil {
		return api.Handle{}, e
	}
	return u.Submit(ctx, req)
}

// ReshareKey starts a live resharing of a named key: build the reshare
// request through the shared api seam — which pins it to the key's
// current epoch and fills threshold/committee defaults from the local
// keystore — and submit it like any protocol instance.
func (u Unit) ReshareKey(ctx context.Context, scheme schemes.ID, keyID string, opts api.ReshareOptions) (api.Handle, error) {
	req, e := api.ReshareRequest(u.Store, scheme, keyID, opts)
	if e != nil {
		return api.Handle{}, e
	}
	return u.Submit(ctx, req)
}

// Stats snapshots the unit's engine: instance lifecycle and flow
// control counters.
func (u Unit) Stats() api.EngineStats {
	return *api.EngineStatsOf(u.Engine.Stats())
}

// EngineErr maps engine submission failures onto the structured error
// model, so embedded deployments classify overload and shutdown exactly
// like the remote client does (api.CodeOf branches work against any
// Service implementation).
func EngineErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, orchestration.ErrOverloaded):
		return api.Errf(api.CodeOverloaded, "%v", err)
	case errors.Is(err, orchestration.ErrStopped):
		return api.Errf(api.CodeUnavailable, "%v", err)
	default:
		return err
	}
}

// ResultOf converts an engine result into the client-facing shape,
// classifying failures into the structured error model exactly like
// the HTTP service layer does.
func ResultOf(id string, res orchestration.Result) api.Result {
	out := api.Result{InstanceID: id, Value: res.Value, Err: res.Err}
	if e := api.ClassifyResultErr(res.Err); e != nil && e.Code != api.CodeInternal {
		out.Err = e
	}
	if !res.Started.IsZero() && !res.Finished.IsZero() {
		out.ServerLatency = res.Finished.Sub(res.Started)
	}
	return out
}

// EncryptLocal is the scheme API's local encryption against a node's
// named public keys, shared by every deployment style. The check order
// (unknown scheme, non-cipher scheme, scheme without keys, unknown key)
// is part of the conformance contract.
func EncryptLocal(store *keys.Keystore, scheme schemes.ID, keyID string, message, label []byte) ([]byte, error) {
	if _, err := schemes.Lookup(scheme); err != nil {
		return nil, api.Errf(api.CodeSchemeUnknown, "%v", err)
	}
	switch scheme {
	case schemes.SG02, schemes.BZ03:
	default:
		return nil, api.Errf(api.CodeSchemeNotCipher, "scheme %s does not encrypt", scheme)
	}
	if !store.Has(scheme) {
		return nil, api.Errf(api.CodeSchemeNoKeys, "no %s keys dealt", scheme)
	}
	key, err := store.Get(scheme, keyID)
	if err != nil {
		return nil, api.Errf(api.CodeKeyUnknown, "%v", err)
	}
	switch pk := key.Public.(type) {
	case *sg02.PublicKey:
		ct, err := sg02.Encrypt(rand.Reader, pk, message, label)
		if err != nil {
			return nil, err
		}
		return ct.Marshal(), nil
	case *bz03.PublicKey:
		ct, err := bz03.Encrypt(rand.Reader, pk, message, label)
		if err != nil {
			return nil, err
		}
		return ct.Marshal(), nil
	default:
		return nil, api.Errf(api.CodeInternal, "key %s/%s holds %T", scheme, key.ID, key.Public)
	}
}

// Config configures an embedded committee.
type Config struct {
	// Schemes to deal keys for; empty means all six.
	Schemes []schemes.ID
	// KeyID names the dealt keys; empty selects keys.DefaultKeyID.
	// Sharded deployments give each committee distinct key names so the
	// router's placement map spreads traffic instead of shadowing
	// duplicates.
	KeyID string
	// Latency is the simulated one-way network delay between nodes.
	Latency time.Duration
	// Engine post-processes each node's engine config; nil keeps the
	// defaults. It is the seam through which a harness wraps each
	// node's transport.
	Engine func(orchestration.Config) orchestration.Config
}

// Committee is an embedded in-process Θ-network of n units over a
// simulated transport. It embeds node 1's Unit, so node 1 answers the
// Service methods (Submit, SubmitBatch, SubmitDetailed, Wait, Encrypt,
// Info, Keys, Key, GenerateKey, ReshareKey) and Stats, like a client
// talking to one deployment member.
type Committee struct {
	Unit
	units []Unit
	hub   *memnet.Hub
}

var (
	_ api.Service           = (*Committee)(nil)
	_ api.KeyFetcher        = (*Committee)(nil)
	_ api.DetailedSubmitter = (*Committee)(nil)
)

// New deals fresh keys and identities and starts n in-process units
// with threshold t (any t+1 cooperate, up to t may be corrupted). Every
// engine holds its identity, so its dealings are sealed.
func New(t, n int, cfg Config) (*Committee, error) {
	stores, err := keys.Deal(rand.Reader, t, n, keys.Options{
		Schemes:       cfg.Schemes,
		UseRSAFixture: true,
		KeyID:         cfg.KeyID,
	})
	if err != nil {
		return nil, fmt.Errorf("thetacrypt: deal keys: %w", err)
	}
	ids, roster, err := identity.GenerateMesh(rand.Reader, n)
	if err != nil {
		return nil, fmt.Errorf("thetacrypt: generate identities: %w", err)
	}
	hub := memnet.NewHub(n, memnet.Options{Latency: cfg.Latency})
	units := make([]Unit, n)
	for i := 0; i < n; i++ {
		ecfg := orchestration.Config{
			Keys:     stores[i],
			Net:      hub.Endpoint(i + 1),
			Identity: ids[i],
			Roster:   roster,
		}
		if cfg.Engine != nil {
			ecfg = cfg.Engine(ecfg)
		}
		units[i] = Unit{Store: stores[i], Engine: orchestration.New(ecfg)}
	}
	return &Committee{Unit: units[0], units: units, hub: hub}, nil
}

// Close stops all units.
func (c *Committee) Close() {
	for _, u := range c.units {
		u.Engine.Stop()
	}
	c.hub.Close()
}

// N returns the committee size.
func (c *Committee) N() int { return len(c.units) }

// UnitAt returns node i's unit (1-indexed).
func (c *Committee) UnitAt(i int) Unit { return c.units[i-1] }
