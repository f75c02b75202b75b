package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"time"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/internal/group"
	"thetacrypt/internal/pairing"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/wire"
)

// waveSize is the number of requests in flight in the saturated phase.
const waveSize = 8

// requestTimeout bounds one request; an expiry counts as a failure.
const requestTimeout = 30 * time.Second

// inputs derives every request input — payload bytes, session names,
// key IDs — from the run's seed. The program under test only ever sees
// the generated requests.
type inputs struct {
	seed int64
	r    *rand.Rand
}

func newInputs(seed int64) *inputs {
	return &inputs{seed: seed, r: rand.New(rand.NewSource(seed))}
}

func (in *inputs) bytes(n int) []byte {
	b := make([]byte, n)
	in.r.Read(b) // math/rand's Read never fails
	return b
}

// name returns prefix plus 12 seeded hex digits; it is a valid session
// name and a valid key ID.
func (in *inputs) name(prefix string) string {
	return prefix + "-" + hex.EncodeToString(in.bytes(6))
}

// check verifies one finished unit of work after the timed phases.
type check func(ctx context.Context) error

// session is a workload set up on one deployment: one runs a single
// unit of work and returns its latency (the unloaded phase), wave runs
// waveSize units concurrently (the saturated phase). Both return the
// checks of the units that completed; units that erred or timed out
// are counted in failed.
type session struct {
	d    *deployment
	one  func(ctx context.Context) (lat time.Duration, c check, err error)
	wave func(ctx context.Context) (cs []check, failed int, err error)
}

// workload is one named entry of the benchmark. The reasons for each
// are in BENCHMARK.json and README.md.
type workload struct {
	name string
	// warmup is the number of untimed units run during set-up.
	warmup int
	// unloadedRate and waveRate, when set, fix the work of the timed
	// phases instead of their length: so many units, or waves, per second
	// the phase is given. They are set where a unit leaves state behind
	// that makes the next one dearer, so that the state a run ends in does
	// not depend on the speed of the code under test.
	unloadedRate, waveRate float64
	// Shape of the system under test, used by the traced run's layer
	// timings and budget.
	scheme  schemes.ID
	group   group.Group // nil for the pairing scheme
	t, n    int
	payload int
	// dealing marks the key lifecycle workload, whose units are
	// dealings among all n nodes instead of share-and-combine requests.
	dealing bool
	// build starts a deployment and binds the workload's inputs to it.
	build func(ctx context.Context, in *inputs, tr *tracer) (*session, error)
}

var workloads = []workload{
	{
		name: "kg20-sign-ed25519-sharded", warmup: 4,
		scheme: schemes.KG20, group: group.Edwards25519(), t: 2, n: 7, payload: 32,
		build: buildKG20Sharded,
	},
	{
		name: "bls04-sign-stack", warmup: 3,
		scheme: schemes.BLS04, t: 1, n: 4, payload: 32,
		build: buildBLS04Stack,
	},
	{
		name: "sg02-decrypt-p256-stack", warmup: 300,
		scheme: schemes.SG02, group: group.P256(), t: 1, n: 4, payload: 256,
		build: buildSG02Stack,
	},
	{
		name: "keylife-p256-stack", warmup: 12,
		// Every cycle adds a key to the file each node rewrites on every
		// install: 480 cycles and 30 waves in a run of 20 seconds, which
		// this host takes about 11 and 8 seconds for.
		unloadedRate: 40, waveRate: 3.75,
		scheme: schemes.SG02, group: group.P256(), t: 1, n: 4, payload: 256, dealing: true,
		build: buildKeylifeStack,
	},
}

// quorum is the number of peer messages that complete a protocol round
// at the submitting node: t for share-and-combine (its own share is the
// t+1st), n-1 for dealings.
func (w workload) quorum() int {
	if w.dealing {
		return w.n - 1
	}
	return w.t
}

// fixedWorkCap is how many times its allotted length a phase of fixed
// work may take before it is cut short.
const fixedWorkCap = 3

// limit is where a timed phase ends: after units units of work when
// units is set, and in any case once budget has passed.
type limit struct {
	budget time.Duration
	units  int
}

func (l limit) reached(done int, start time.Time) bool {
	return (l.units > 0 && done >= l.units) || time.Since(start) >= l.budget
}

// phaseLimit is the end of a phase that is given d of the run: d for a
// rate of 0, otherwise rate·d units of work with d only scaling the cap.
func phaseLimit(d time.Duration, rate float64) limit {
	if rate == 0 {
		return limit{budget: d}
	}
	return limit{budget: fixedWorkCap * d, units: max(1, int(math.Round(rate*d.Seconds())))}
}

// finalKeys is the number of keys in each node's keystore at the end of
// an untraced run of defaultSeconds: the dealt key, plus for the key
// lifecycle workload one per warm-up and timed cycle.
func (w workload) finalKeys() int {
	if !w.dealing {
		return 1
	}
	window := defaultSeconds * time.Second
	unloaded := time.Duration(unloadedShare * float64(window))
	return 1 + w.warmup + waveSize +
		phaseLimit(unloaded, w.unloadedRate).units + waveSize*phaseLimit(window-unloaded, w.waveRate).units
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// ---- serving workloads: one request in, one value out ----

// servingSession drives a stream of threshold requests. next yields the
// stream's following request and the check of its result value.
func servingSession(d *deployment, next func() (thetacrypt.Request, func([]byte) error)) *session {
	s := &session{d: d}
	s.one = func(ctx context.Context) (time.Duration, check, error) {
		req, verify := next()
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		start := time.Now()
		value, err := api.Execute(ctx, d.svc, req)
		lat := time.Since(start)
		if err != nil {
			return 0, nil, err
		}
		return lat, func(context.Context) error { return verify(value) }, nil
	}
	s.wave = func(ctx context.Context) ([]check, int, error) {
		reqs := make([]thetacrypt.Request, waveSize)
		verifies := make([]func([]byte) error, waveSize)
		for i := range reqs {
			reqs[i], verifies[i] = next()
		}
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		hs, err := d.svc.SubmitBatch(ctx, reqs)
		if err != nil {
			return nil, waveSize, err
		}
		var cs []check
		err = api.WaitEach(ctx, d.svc, hs, func(i int, res api.Result) {
			if res.Err != nil {
				return
			}
			cs = append(cs, func(context.Context) error { return verifies[i](res.Value) })
		})
		return cs, waveSize - len(cs), err
	}
	return s
}

// keyPoint decodes the marshaled public key of a discrete-log scheme
// as Service.Key reports it.
func keyPoint(info api.KeyInfo) (group.Group, group.Point, error) {
	g, err := group.ByName(info.Group)
	if err != nil {
		return nil, nil, err
	}
	y, err := g.UnmarshalPoint(wire.NewReader(info.PublicKey).Bytes())
	return g, y, err
}

func buildKG20Sharded(ctx context.Context, in *inputs, tr *tracer) (*session, error) {
	keyIDs := []string{in.name("shard-a"), in.name("shard-b")}
	d, err := newSharded(shardedConfig{t: 2, n: 7, scheme: schemes.KG20, keyIDs: keyIDs}, tr)
	if err != nil {
		return nil, err
	}
	pks := make([]*frost.PublicKey, len(keyIDs))
	for i, id := range keyIDs {
		info, err := api.FetchKey(ctx, d.svc, schemes.KG20, id)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("fetch key %s: %w", id, err)
		}
		g, y, err := keyPoint(info)
		if err != nil {
			d.Close()
			return nil, fmt.Errorf("decode key %s: %w", id, err)
		}
		pks[i] = &frost.PublicKey{Group: g, Y: y}
	}
	turn := 0
	return servingSession(d, func() (thetacrypt.Request, func([]byte) error) {
		k := turn % len(keyIDs)
		turn++
		msg := in.bytes(32)
		req := thetacrypt.Request{Scheme: schemes.KG20, KeyID: keyIDs[k], Op: thetacrypt.OpSign, Payload: msg, Session: in.name("s")}
		return req, func(value []byte) error {
			sig, err := frost.UnmarshalSignature(pks[k].Group, value)
			if err != nil {
				return err
			}
			return frost.Verify(pks[k], msg, sig)
		}
	}), nil
}

func buildBLS04Stack(ctx context.Context, in *inputs, tr *tracer) (*session, error) {
	d, err := newStack(stackConfig{t: 1, n: 4, scheme: schemes.BLS04}, tr)
	if err != nil {
		return nil, err
	}
	info, err := api.FetchKey(ctx, d.svc, schemes.BLS04, "")
	if err != nil {
		d.Close()
		return nil, fmt.Errorf("fetch key: %w", err)
	}
	y, ok := pairing.UnmarshalG2(wire.NewReader(info.PublicKey).Bytes())
	if !ok {
		d.Close()
		return nil, fmt.Errorf("decode BLS04 public key")
	}
	pk := &bls04.PublicKey{Y: y}
	return servingSession(d, func() (thetacrypt.Request, func([]byte) error) {
		msg := in.bytes(32)
		req := thetacrypt.Request{Scheme: schemes.BLS04, Op: thetacrypt.OpSign, Payload: msg, Session: in.name("s")}
		return req, func(value []byte) error {
			sig, err := bls04.UnmarshalSignature(value)
			if err != nil {
				return err
			}
			return bls04.Verify(pk, msg, sig)
		}
	}), nil
}

// ciphertextPool is the number of distinct plaintexts encrypted during
// set-up; requests cycle through them under fresh session names, so
// every request is a distinct protocol instance.
const ciphertextPool = 256

func buildSG02Stack(ctx context.Context, in *inputs, tr *tracer) (*session, error) {
	d, err := newStack(stackConfig{t: 1, n: 4, scheme: schemes.SG02, group: group.P256()}, tr)
	if err != nil {
		return nil, err
	}
	plain := make([][]byte, ciphertextPool)
	cipher := make([][]byte, ciphertextPool)
	for i := range plain {
		plain[i] = in.bytes(256)
		if cipher[i], err = d.svc.Encrypt(ctx, schemes.SG02, "", plain[i], nil); err != nil {
			d.Close()
			return nil, fmt.Errorf("pre-encrypt input %d: %w", i, err)
		}
	}
	turn := 0
	return servingSession(d, func() (thetacrypt.Request, func([]byte) error) {
		k := turn % ciphertextPool
		turn++
		req := thetacrypt.Request{Scheme: schemes.SG02, Op: thetacrypt.OpDecrypt, Payload: cipher[k], Session: in.name("s")}
		return req, func(value []byte) error {
			if !bytes.Equal(value, plain[k]) {
				return fmt.Errorf("decrypted %d bytes that differ from the plaintext", len(value))
			}
			return nil
		}
	}), nil
}

// ---- key lifecycle workload: one unit is GenerateKey then ReshareKey ----

func buildKeylifeStack(_ context.Context, in *inputs, tr *tracer) (*session, error) {
	d, err := newStack(stackConfig{t: 1, n: 4, scheme: schemes.SG02, group: group.P256(), persist: true}, tr)
	if err != nil {
		return nil, err
	}
	s := &session{d: d}

	// wait runs one lifecycle operation to its end and returns its value.
	wait := func(ctx context.Context, h api.Handle, err error) ([]byte, error) {
		if err != nil {
			return nil, err
		}
		res, err := d.svc.Wait(ctx, h)
		if err != nil {
			return nil, err
		}
		return res.Value, res.Err
	}
	// between runs after a key's generation and before its resharing,
	// in-process at node 1 and off the HTTP path: it records the public
	// key and encrypts the plaintext the final check decrypts.
	type fresh struct {
		keyID     string
		before    api.KeyInfo
		plain, ct []byte
	}
	between := func(ctx context.Context, keyID string) (fresh, error) {
		f := fresh{keyID: keyID, plain: in.bytes(256)}
		var err error
		if f.before, err = api.FetchKey(ctx, d.nodes[0], schemes.SG02, keyID); err != nil {
			return f, err
		}
		f.ct, err = d.nodes[0].Encrypt(ctx, schemes.SG02, keyID, f.plain, nil)
		return f, err
	}
	verify := func(f fresh, newEpoch []byte) check {
		return func(ctx context.Context) error {
			if got, want := string(newEpoch), strconv.Itoa(f.before.Epoch+1); got != want {
				return fmt.Errorf("key %s: reshare reported epoch %s, want %s", f.keyID, got, want)
			}
			for i, node := range d.nodes {
				after, err := api.FetchKey(ctx, node, schemes.SG02, f.keyID)
				if err != nil {
					return fmt.Errorf("key %s at node %d: %w", f.keyID, i+1, err)
				}
				if after.Epoch != f.before.Epoch+1 {
					return fmt.Errorf("key %s at node %d: epoch %d, want %d", f.keyID, i+1, after.Epoch, f.before.Epoch+1)
				}
				if !bytes.Equal(after.PublicKey, f.before.PublicKey) {
					return fmt.Errorf("key %s at node %d: public key changed across the reshare", f.keyID, i+1)
				}
			}
			got, err := api.Execute(ctx, d.svc, thetacrypt.Request{
				Scheme: schemes.SG02, KeyID: f.keyID, Op: thetacrypt.OpDecrypt, Payload: f.ct,
			})
			if err != nil {
				return fmt.Errorf("key %s: decrypt after reshare: %w", f.keyID, err)
			}
			if !bytes.Equal(got, f.plain) {
				return fmt.Errorf("key %s: ciphertext from before the reshare decrypts to other bytes", f.keyID)
			}
			return nil
		}
	}
	genOpts := func() api.GenerateKeyOptions {
		return api.GenerateKeyOptions{KeyID: in.name("k"), Group: "p256"}
	}

	s.one = func(ctx context.Context) (time.Duration, check, error) {
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		opts := genOpts()
		start := time.Now()
		h, err := d.svc.GenerateKey(ctx, schemes.SG02, opts)
		if _, err = wait(ctx, h, err); err != nil {
			return 0, nil, err
		}
		lat := time.Since(start)
		f, err := between(ctx, opts.KeyID)
		if err != nil {
			return 0, nil, err
		}
		start = time.Now()
		h, err = d.svc.ReshareKey(ctx, schemes.SG02, opts.KeyID, api.ReshareOptions{})
		epoch, err := wait(ctx, h, err)
		if err != nil {
			return 0, nil, err
		}
		return lat + time.Since(start), verify(f, epoch), nil
	}

	// waitAll collects the values of the operations that succeeded,
	// keyed by position.
	waitAll := func(ctx context.Context, hs []api.Handle) (map[int][]byte, error) {
		values := make(map[int][]byte, len(hs))
		err := api.WaitEach(ctx, d.svc, hs, func(i int, res api.Result) {
			if res.Err == nil {
				values[i] = res.Value
			}
		})
		return values, err
	}
	s.wave = func(ctx context.Context) ([]check, int, error) {
		ctx, cancel := context.WithTimeout(ctx, requestTimeout)
		defer cancel()
		var ids []string
		var hs []api.Handle
		for i := 0; i < waveSize; i++ {
			opts := genOpts()
			if h, err := d.svc.GenerateKey(ctx, schemes.SG02, opts); err == nil {
				ids, hs = append(ids, opts.KeyID), append(hs, h)
			}
		}
		generated, err := waitAll(ctx, hs)
		if err != nil {
			return nil, waveSize, err
		}
		var made []fresh
		hs = hs[:0]
		for i, id := range ids {
			if _, ok := generated[i]; !ok {
				continue
			}
			f, err := between(ctx, id)
			if err != nil {
				continue
			}
			if h, err := d.svc.ReshareKey(ctx, schemes.SG02, id, api.ReshareOptions{}); err == nil {
				made, hs = append(made, f), append(hs, h)
			}
		}
		epochs, err := waitAll(ctx, hs)
		if err != nil {
			return nil, waveSize, err
		}
		var cs []check
		for i, f := range made {
			if epoch, ok := epochs[i]; ok {
				cs = append(cs, verify(f, epoch))
			}
		}
		return cs, waveSize - len(cs), nil
	}
	return s, nil
}
