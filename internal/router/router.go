// Package router implements the stateless router tier: one of three
// api.Service implementations (with committee.Unit, the one node-side
// implementation that committee.Committee and the root package's
// Cluster and Node serve through, and client.Client), fronting N
// independent committees and owning the placement map key_id ->
// committee. One committee's throughput is hard-capped by n and its
// sequencer; the router turns "a cluster" into "a fleet" by
// partitioning keys across committees and forwarding each request to
// the committee that holds its key.
//
// The router holds no protocol state: the placement map is seeded from
// the committees' own keystore metadata (Keys listings) and updated on
// GenerateKey/ReshareKey, and the handle-owner cache is a bounded
// routing shortcut, not a source of truth — a Wait for a handle the
// router has never seen (or has forgotten) is scattered to every
// committee and answered by the first that knows it. Any number of
// router replicas can therefore front the same fleet.
package router

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"

	"thetacrypt/api"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
)

// Backend is one committee behind the router: a name for listings and
// any api.Service fronting that committee (an embedded cluster, a
// client.Client pointed at a deployment, a single unit).
type Backend struct {
	Name    string
	Service api.Service
}

// ownerCacheMax bounds the handle -> committee shortcut cache; beyond
// it the oldest entries are forgotten and their Waits fall back to
// scatter/gather.
const ownerCacheMax = 65536

// placeKey addresses one named key in the placement map.
type placeKey struct {
	scheme schemes.ID
	id     string
}

// ownerEntry is one handle -> backend record in the bounded FIFO.
type ownerEntry struct {
	id  string
	idx int
}

// Router fronts several committees behind the one Service interface.
type Router struct {
	backends []Backend

	mu sync.Mutex
	// place maps each named key to the index of its owning backend.
	// First backend wins on duplicates (committees dealt the same
	// default key IDs): the shadowed copies are unreachable through the
	// router, which keeps listings and routing consistent.
	place map[placeKey]int
	// owners is the bounded handle -> backend cache (id -> element of
	// ownerOrder) recorded at submission, so Wait usually forwards
	// directly instead of scattering.
	owners     map[string]*list.Element
	ownerOrder *list.List
}

var (
	_ api.Service    = (*Router)(nil)
	_ api.EachWaiter = (*Router)(nil)
	_ api.KeyFetcher = (*Router)(nil)
)

// New creates a router over the given committees. Backends without a
// name are named committee-1, committee-2, ... in order.
func New(backends []Backend) *Router {
	bs := make([]Backend, len(backends))
	copy(bs, backends)
	for i := range bs {
		if bs[i].Name == "" {
			bs[i].Name = fmt.Sprintf("committee-%d", i+1)
		}
	}
	return &Router{
		backends:   bs,
		place:      make(map[placeKey]int),
		owners:     make(map[string]*list.Element),
		ownerOrder: list.New(),
	}
}

func effectiveKeyID(id string) string {
	if id == "" {
		return keys.DefaultKeyID
	}
	return id
}

// recordOwner caches which backend owns a handle, bounded FIFO.
func (r *Router) recordOwner(instanceID string, idx int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if elem, ok := r.owners[instanceID]; ok {
		elem.Value = ownerEntry{id: instanceID, idx: idx}
		return
	}
	r.owners[instanceID] = r.ownerOrder.PushBack(ownerEntry{id: instanceID, idx: idx})
	for r.ownerOrder.Len() > ownerCacheMax {
		front := r.ownerOrder.Front()
		r.ownerOrder.Remove(front)
		delete(r.owners, front.Value.(ownerEntry).id)
	}
}

// ownerIdx looks up the cached owner of a handle.
func (r *Router) ownerIdx(instanceID string) (int, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if elem, ok := r.owners[instanceID]; ok {
		return elem.Value.(ownerEntry).idx, true
	}
	return 0, false
}

// recordPlacement maps a key to its owning backend; an existing
// placement wins (first owner keeps the key until a reshare or keygen
// on another committee would collide, which the owner rejects).
func (r *Router) recordPlacement(scheme schemes.ID, keyID string, idx int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	pk := placeKey{scheme: scheme, id: effectiveKeyID(keyID)}
	if _, ok := r.place[pk]; !ok {
		r.place[pk] = idx
	}
}

// ownerOf resolves the committee holding a key, refreshing the
// placement map from the committees' keystore metadata on a miss (a
// key generated through another router replica, or the first call).
func (r *Router) ownerOf(ctx context.Context, scheme schemes.ID, keyID string) (int, bool) {
	pk := placeKey{scheme: scheme, id: effectiveKeyID(keyID)}
	r.mu.Lock()
	idx, ok := r.place[pk]
	r.mu.Unlock()
	if ok {
		return idx, true
	}
	r.refreshPlacement(ctx)
	r.mu.Lock()
	idx, ok = r.place[pk]
	r.mu.Unlock()
	return idx, ok
}

// refreshPlacement seeds the placement map from every reachable
// committee's Keys listing, first backend winning on duplicates.
// Unreachable committees are skipped: their keys stay unplaced and
// requests for them fail with key_unknown until they return.
func (r *Router) refreshPlacement(ctx context.Context) {
	for i, b := range r.backends {
		list, err := b.Service.Keys(ctx)
		if err != nil {
			continue
		}
		for _, k := range list {
			r.recordPlacement(schemes.ID(k.Scheme), k.KeyID, i)
		}
	}
}

// schemeHasKeys reports whether any committee holds a key of the
// scheme (placement map only; callers refresh first).
func (r *Router) schemeHasKeys(scheme schemes.ID) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for pk := range r.place {
		if pk.scheme == scheme {
			return true
		}
	}
	return false
}

// pickLeastLoaded chooses the committee for a new key: fewest placed
// keys, ties to the lowest index — a simple balance that spreads
// generated keys across the fleet.
func (r *Router) pickLeastLoaded() int {
	counts := make([]int, len(r.backends))
	r.mu.Lock()
	for _, idx := range r.place {
		counts[idx]++
	}
	r.mu.Unlock()
	best := 0
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[best] {
			best = i
		}
	}
	return best
}

// route resolves the committee a request belongs to. Keygens for a key
// nobody holds go to the least-loaded committee; keygens for an
// existing key go to its owner (which answers key_exists); everything
// else requires an owner or fails with key_unknown.
func (r *Router) route(ctx context.Context, req protocols.Request) (int, *api.Error) {
	if req.Op == protocols.OpKeyGen {
		if idx, ok := r.ownerOf(ctx, req.Scheme, req.KeyID); ok {
			return idx, nil
		}
		return r.pickLeastLoaded(), nil
	}
	idx, ok := r.ownerOf(ctx, req.Scheme, req.EffectiveKeyID())
	if !ok {
		return 0, api.Errf(api.CodeKeyUnknown, "no committee holds key %s/%s",
			req.Scheme, effectiveKeyID(req.KeyID))
	}
	return idx, nil
}

// Submit validates the request, forwards it to the owning committee,
// and records the handle's owner for Wait (Service interface).
func (r *Router) Submit(ctx context.Context, req protocols.Request) (api.Handle, error) {
	if e := api.ValidateRequest(req); e != nil {
		return api.Handle{}, e
	}
	idx, e := r.route(ctx, req)
	if e != nil {
		return api.Handle{}, e
	}
	h, err := r.backends[idx].Service.Submit(ctx, req)
	if err != nil {
		return api.Handle{}, err
	}
	r.recordOwner(h.InstanceID, idx)
	if req.Op == protocols.OpKeyGen {
		r.recordPlacement(req.Scheme, req.KeyID, idx)
	}
	return h, nil
}

// SubmitBatch validates and routes every request, then scatters the
// batch across the owning committees and gathers the handles back into
// request order. Routing failures reject the whole call like invalid
// requests do on a single committee; a committee's submission failure
// is reported per committee with the typed-code vocabulary intact
// (api.CodeOf sees through the aggregation).
func (r *Router) SubmitBatch(ctx context.Context, reqs []protocols.Request) ([]api.Handle, error) {
	routes := make([]int, len(reqs))
	for i, req := range reqs {
		if e := api.ValidateRequest(req); e != nil {
			return nil, fmt.Errorf("thetacrypt: request %d rejected: %w", i, e)
		}
		idx, e := r.route(ctx, req)
		if e != nil {
			return nil, fmt.Errorf("thetacrypt: request %d rejected: %w", i, e)
		}
		routes[i] = idx
	}
	// Scatter: one sub-batch per distinct committee, concurrently.
	groups := make(map[int][]int)
	for i, idx := range routes {
		groups[idx] = append(groups[idx], i)
	}
	handles := make([]api.Handle, len(reqs))
	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
		errs  []error
	)
	for idx, positions := range groups {
		wg.Add(1)
		go func(idx int, positions []int) {
			defer wg.Done()
			sub := make([]protocols.Request, len(positions))
			for j, p := range positions {
				sub[j] = reqs[p]
			}
			hs, err := r.backends[idx].Service.SubmitBatch(ctx, sub)
			if err != nil {
				errMu.Lock()
				errs = append(errs, fmt.Errorf("committee %q: %w", r.backends[idx].Name, err))
				errMu.Unlock()
				return
			}
			for j, p := range positions {
				handles[p] = hs[j]
			}
		}(idx, positions)
	}
	wg.Wait()
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	for i, h := range handles {
		r.recordOwner(h.InstanceID, routes[i])
		if reqs[i].Op == protocols.OpKeyGen {
			r.recordPlacement(reqs[i].Scheme, reqs[i].KeyID, routes[i])
		}
	}
	return handles, nil
}

// Wait forwards to the handle's cached owner; a handle the router does
// not remember (another replica accepted it, or the cache evicted it)
// is scattered to every committee and the first final result wins.
func (r *Router) Wait(ctx context.Context, h api.Handle) (api.Result, error) {
	if idx, ok := r.ownerIdx(h.InstanceID); ok {
		return r.backends[idx].Service.Wait(ctx, h)
	}
	return r.scatterWait(ctx, h)
}

// scatterWait races a Wait on every committee. Non-owners park a
// bounded placeholder that their engines expire on their own; the
// losers' waits are canceled as soon as a winner answers.
func (r *Router) scatterWait(ctx context.Context, h api.Handle) (api.Result, error) {
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res api.Result
		err error
		idx int
	}
	ch := make(chan outcome, len(r.backends))
	for i, b := range r.backends {
		go func(i int, b Backend) {
			res, err := b.Service.Wait(sctx, h)
			ch <- outcome{res: res, err: err, idx: i}
		}(i, b)
	}
	var firstErr error
	for range r.backends {
		o := <-ch
		if o.err == nil {
			r.recordOwner(h.InstanceID, o.idx)
			return o.res, nil
		}
		if firstErr == nil && !errors.Is(o.err, context.Canceled) {
			firstErr = o.err
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return api.Result{}, firstErr
}

// WaitEach groups the handles by owning committee and streams each
// group through the backend's own per-completion delivery, so results
// flow to fn as they finish across the fleet (api.EachWaiter). fn
// calls are serialized. Handles with no cached owner fall back to
// scatter waits.
func (r *Router) WaitEach(ctx context.Context, hs []api.Handle, fn func(i int, res api.Result)) error {
	var fnMu sync.Mutex
	groups := make(map[int][]int)
	var unknown []int
	for i, h := range hs {
		if idx, ok := r.ownerIdx(h.InstanceID); ok {
			groups[idx] = append(groups[idx], i)
		} else {
			unknown = append(unknown, i)
		}
	}
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	recordErr := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	for idx, positions := range groups {
		wg.Add(1)
		go func(idx int, positions []int) {
			defer wg.Done()
			sub := make([]api.Handle, len(positions))
			for j, p := range positions {
				sub[j] = hs[p]
			}
			err := api.WaitEach(ctx, r.backends[idx].Service, sub, func(j int, res api.Result) {
				fnMu.Lock()
				fn(positions[j], res)
				fnMu.Unlock()
			})
			if err != nil {
				recordErr(fmt.Errorf("committee %q: %w", r.backends[idx].Name, err))
			}
		}(idx, positions)
	}
	for _, i := range unknown {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.scatterWait(ctx, hs[i])
			if err != nil {
				recordErr(err)
				return
			}
			fnMu.Lock()
			fn(i, res)
			fnMu.Unlock()
		}(i)
	}
	wg.Wait()
	return firstErr
}

// Encrypt resolves the key's committee and forwards the local
// encryption there. The check order (unknown scheme, non-cipher
// scheme, scheme without keys anywhere, unknown key) matches the
// single-committee implementations, so the router classifies identical
// requests with identical codes.
func (r *Router) Encrypt(ctx context.Context, scheme schemes.ID, keyID string, message, label []byte) ([]byte, error) {
	if _, err := schemes.Lookup(scheme); err != nil {
		return nil, api.Errf(api.CodeSchemeUnknown, "%v", err)
	}
	switch scheme {
	case schemes.SG02, schemes.BZ03:
	default:
		return nil, api.Errf(api.CodeSchemeNotCipher, "scheme %s does not encrypt", scheme)
	}
	idx, ok := r.ownerOf(ctx, scheme, keyID)
	if !ok {
		if !r.schemeHasKeys(scheme) {
			return nil, api.Errf(api.CodeSchemeNoKeys, "no %s keys dealt", scheme)
		}
		return nil, api.Errf(api.CodeKeyUnknown, "no committee holds key %s/%s",
			scheme, effectiveKeyID(keyID))
	}
	return r.backends[idx].Service.Encrypt(ctx, scheme, keyID, message, label)
}

// Info merges the fleet view: the union of the committees' keychains,
// the union of their schemes, uniform N/T when the committees agree
// (zero when they differ), and one CommitteeInfo block per backend —
// including Down markers for committees that did not answer. NodeIndex
// is zero: the router is not a committee member.
func (r *Router) Info(ctx context.Context) (api.Info, error) {
	infos := make([]*api.Info, len(r.backends))
	errs := make([]error, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			info, err := b.Service.Info(ctx)
			if err != nil {
				errs[i] = err
				return
			}
			infos[i] = &info
		}(i, b)
	}
	wg.Wait()

	merged := api.Info{Committees: make([]api.CommitteeInfo, len(r.backends))}
	var lists [][]api.KeyInfo
	allDown := true
	for i := range r.backends {
		if infos[i] == nil {
			merged.Committees[i] = api.CommitteeInfo{
				Name:  r.backends[i].Name,
				Down:  true,
				Error: errs[i].Error(),
			}
			lists = append(lists, nil)
			continue
		}
		allDown = false
		info := infos[i]
		schemeNames := make([]string, len(info.Schemes))
		for j, s := range info.Schemes {
			schemeNames[j] = string(s)
		}
		merged.Committees[i] = api.CommitteeInfo{
			Name:    r.backends[i].Name,
			N:       info.N,
			T:       info.T,
			Schemes: schemeNames,
			Keys:    len(info.Keys),
			Stats:   info.Stats,
		}
		lists = append(lists, info.Keys)
		// N/T report the committees' shared parameters when uniform;
		// heterogeneous fleets report zero (per-committee values live in
		// the Committees block).
		switch {
		case merged.N == 0 && merged.T == 0:
			merged.N, merged.T = info.N, info.T
		case merged.N != info.N || merged.T != info.T:
			merged.N, merged.T = 0, 0
		}
		for _, s := range info.Schemes {
			if !containsScheme(merged.Schemes, s) {
				merged.Schemes = append(merged.Schemes, s)
			}
		}
	}
	if allDown {
		return api.Info{}, fmt.Errorf("all %d committees unreachable: %w", len(r.backends), errs[0])
	}
	merged.Keys = r.mergeKeyLists(lists)
	return merged, nil
}

// Key resolves the committee holding the named key and fetches its
// metadata from there, so the router answers single-key lookups with
// the same 404 vocabulary as a single committee: unknown schemes are
// scheme_unknown, keys no committee holds are key_unknown
// (api.KeyFetcher).
func (r *Router) Key(ctx context.Context, scheme schemes.ID, keyID string) (api.KeyInfo, error) {
	if _, err := schemes.Lookup(scheme); err != nil {
		return api.KeyInfo{}, api.Errf(api.CodeSchemeUnknown, "%v", err)
	}
	idx, ok := r.ownerOf(ctx, scheme, keyID)
	if !ok {
		return api.KeyInfo{}, api.Errf(api.CodeKeyUnknown, "no committee holds key %s/%s",
			scheme, effectiveKeyID(keyID))
	}
	return api.FetchKey(ctx, r.backends[idx].Service, scheme, keyID)
}

// Keys lists the union of the committees' keychains, deduplicated by
// (scheme, key ID) with the placement owner's listing winning — the
// fleet's addressable key set (Service interface). Committees that do
// not answer are skipped (their keys vanish from the listing until
// they return); only a fully unreachable fleet is an error.
func (r *Router) Keys(ctx context.Context) ([]api.KeyInfo, error) {
	lists := make([][]api.KeyInfo, len(r.backends))
	errs := make([]error, len(r.backends))
	var wg sync.WaitGroup
	for i, b := range r.backends {
		wg.Add(1)
		go func(i int, b Backend) {
			defer wg.Done()
			lists[i], errs[i] = b.Service.Keys(ctx)
		}(i, b)
	}
	wg.Wait()
	reachable := false
	for i := range r.backends {
		if errs[i] == nil {
			reachable = true
		}
	}
	if !reachable {
		return nil, fmt.Errorf("all %d committees unreachable: %w", len(r.backends), errs[0])
	}
	return r.mergeKeyLists(lists), nil
}

// mergeKeyLists unions per-backend keychain listings: the placement
// owner's entry wins for each (scheme, key ID); unplaced keys are
// placed on the first backend that lists them.
func (r *Router) mergeKeyLists(lists [][]api.KeyInfo) []api.KeyInfo {
	var out []api.KeyInfo
	seen := make(map[placeKey]bool)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, list := range lists {
		for _, k := range list {
			pk := placeKey{scheme: schemes.ID(k.Scheme), id: effectiveKeyID(k.KeyID)}
			owner, placed := r.place[pk]
			if !placed {
				r.place[pk] = i
				owner = i
			}
			if owner != i || seen[pk] {
				continue // shadowed duplicate of another committee's key
			}
			seen[pk] = true
			out = append(out, k)
		}
	}
	return out
}

func containsScheme(ids []schemes.ID, s schemes.ID) bool {
	for _, id := range ids {
		if id == s {
			return true
		}
	}
	return false
}

// GenerateKey places the new key on the least-loaded committee (or the
// owner of an existing key with the same ID, which rejects with
// key_exists) and forwards the keygen there. The key ID is assigned
// here when the caller left it empty, so placement and forwarding
// agree on the name (Service interface).
func (r *Router) GenerateKey(ctx context.Context, scheme schemes.ID, opts api.GenerateKeyOptions) (api.Handle, error) {
	req, e := api.KeygenRequest(scheme, opts)
	if e != nil {
		return api.Handle{}, e
	}
	opts.KeyID = req.KeyID
	idx, ok := r.ownerOf(ctx, scheme, req.KeyID)
	if !ok {
		idx = r.pickLeastLoaded()
	}
	h, err := r.backends[idx].Service.GenerateKey(ctx, scheme, opts)
	if err != nil {
		return api.Handle{}, err
	}
	r.recordOwner(h.InstanceID, idx)
	r.recordPlacement(scheme, req.KeyID, idx)
	return h, nil
}

// ReshareKey forwards the resharing to the committee owning the key —
// the natural home for reshare-driven membership change, since member
// indices are committee-local (Service interface).
func (r *Router) ReshareKey(ctx context.Context, scheme schemes.ID, keyID string, opts api.ReshareOptions) (api.Handle, error) {
	idx, ok := r.ownerOf(ctx, scheme, keyID)
	if !ok {
		return api.Handle{}, api.Errf(api.CodeKeyUnknown, "no committee holds key %s/%s",
			scheme, effectiveKeyID(keyID))
	}
	h, err := r.backends[idx].Service.ReshareKey(ctx, scheme, keyID, opts)
	if err != nil {
		return api.Handle{}, err
	}
	r.recordOwner(h.InstanceID, idx)
	return h, nil
}
