package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"thetacrypt/internal/dkg"
	"thetacrypt/internal/group"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network"
	"thetacrypt/internal/network/outq"
	"thetacrypt/internal/network/relink"
	"thetacrypt/internal/network/securelink"
	"thetacrypt/internal/pairing"
	"thetacrypt/internal/precompute"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/schemes/sh00"
	"thetacrypt/internal/share"
	"thetacrypt/internal/zkp"
)

// microReps is the number of timed repetitions behind every layer
// timing; the median is reported.
const microReps = 15

// timeOp returns the median duration of fn over microReps calls, each
// call timed on its own, from this one goroutine.
func timeOp(fn func()) time.Duration {
	samples := make([]time.Duration, microReps)
	for i := range samples {
		start := time.Now()
		fn()
		samples[i] = time.Since(start)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[microReps/2]
}

// loopCalls is the number of back-to-back calls timeLoop times at once.
const loopCalls = 32

// timeLoop is timeOp for operations too short to time singly: each
// repetition times loopCalls back-to-back calls and divides.
func timeLoop(fn func()) time.Duration {
	return timeOp(func() {
		for i := 0; i < loopCalls; i++ {
			fn()
		}
	}) / loopCalls
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ns(d time.Duration) float64 { return float64(d) }

// schemeCost is the single-goroutine cost of one scheme's four public
// steps at one (group, t, n, payload).
type schemeCost struct{ round1, shareGen, shareVerify, combine time.Duration }

// timeScheme deals a key and times the scheme's public functions: nonce
// generation (FROST only), share generation, verification of one peer
// share, and combination of a t+1 quorum.
func timeScheme(id schemes.ID, g group.Group, t, n, payloadSize int) (schemeCost, error) {
	var c schemeCost
	stores, err := keys.Deal(rand.Reader, t, n, keys.Options{
		Schemes: []schemes.ID{id}, Group: g, UseRSAFixture: true,
	})
	if err != nil {
		return c, err
	}
	payload := make([]byte, payloadSize)
	if _, err := rand.Read(payload); err != nil {
		return c, err
	}
	quorum := t + 1
	// fail records the first error of the untimed preparation below.
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	switch id {
	case schemes.SG02:
		pk := keys.MustPublic[*sg02.PublicKey](stores[0], id)
		ks := func(i int) sg02.KeyShare { return keys.MustShare[sg02.KeyShare](stores[i], id) }
		ct, e := sg02.Encrypt(rand.Reader, pk, payload, nil)
		if e != nil {
			return c, e
		}
		shares := make([]*sg02.DecShare, quorum)
		for i := range shares {
			shares[i], e = sg02.DecryptShare(rand.Reader, pk, ks(i), ct)
			fail(e)
		}
		if err != nil {
			return c, err
		}
		c.shareGen = timeOp(func() { _, _ = sg02.DecryptShare(rand.Reader, pk, ks(0), ct) })
		c.shareVerify = timeOp(func() { _ = sg02.VerifyShare(pk, ct, shares[1]) })
		c.combine = timeOp(func() { _, _ = sg02.Combine(pk, ct, shares) })
	case schemes.BZ03:
		pk := keys.MustPublic[*bz03.PublicKey](stores[0], id)
		ks := func(i int) bz03.KeyShare { return keys.MustShare[bz03.KeyShare](stores[i], id) }
		ct, e := bz03.Encrypt(rand.Reader, pk, payload, nil)
		if e != nil {
			return c, e
		}
		shares := make([]*bz03.DecShare, quorum)
		for i := range shares {
			shares[i], e = bz03.DecryptShare(pk, ks(i), ct)
			fail(e)
		}
		if err != nil {
			return c, err
		}
		c.shareGen = timeOp(func() { _, _ = bz03.DecryptShare(pk, ks(0), ct) })
		c.shareVerify = timeOp(func() { _ = bz03.VerifyShare(pk, ct, shares[1]) })
		c.combine = timeOp(func() { _, _ = bz03.Combine(pk, ct, shares) })
	case schemes.SH00:
		pk := keys.MustPublic[*sh00.PublicKey](stores[0], id)
		ks := func(i int) sh00.KeyShare { return keys.MustShare[sh00.KeyShare](stores[i], id) }
		shares := make([]*sh00.SigShare, quorum)
		for i := range shares {
			var e error
			shares[i], e = sh00.SignShare(rand.Reader, pk, ks(i), payload)
			fail(e)
		}
		if err != nil {
			return c, err
		}
		c.shareGen = timeOp(func() { _, _ = sh00.SignShare(rand.Reader, pk, ks(0), payload) })
		c.shareVerify = timeOp(func() { _ = sh00.VerifyShare(pk, payload, shares[1]) })
		c.combine = timeOp(func() { _, _ = sh00.Combine(pk, payload, shares) })
	case schemes.BLS04:
		pk := keys.MustPublic[*bls04.PublicKey](stores[0], id)
		ks := func(i int) bls04.KeyShare { return keys.MustShare[bls04.KeyShare](stores[i], id) }
		shares := make([]*bls04.SigShare, quorum)
		for i := range shares {
			shares[i] = bls04.SignShare(ks(i), payload)
		}
		c.shareGen = timeOp(func() { _ = bls04.SignShare(ks(0), payload) })
		c.shareVerify = timeOp(func() { _ = bls04.VerifyShare(pk, payload, shares[1]) })
		c.combine = timeOp(func() { _, _ = bls04.Combine(pk, payload, shares) })
	case schemes.KG20:
		pk := keys.MustPublic[*frost.PublicKey](stores[0], id)
		ks := func(i int) frost.KeyShare { return keys.MustShare[frost.KeyShare](stores[i], id) }
		nonces := make([]*frost.Nonce, quorum)
		comms := make([]*frost.NonceCommitment, quorum)
		for i := range nonces {
			var e error
			nonces[i], comms[i], e = frost.GenerateNonce(rand.Reader, pk.Group, i+1)
			fail(e)
		}
		shares := make([]*frost.SignatureShare, quorum)
		for i := range shares {
			var e error
			shares[i], e = frost.Sign(pk, ks(i), nonces[i], payload, comms)
			fail(e)
		}
		if err != nil {
			return c, err
		}
		c.round1 = timeOp(func() { _, _, _ = frost.GenerateNonce(rand.Reader, pk.Group, 1) })
		c.shareGen = timeOp(func() { _, _ = frost.Sign(pk, ks(0), nonces[0], payload, comms) })
		c.shareVerify = timeOp(func() { _ = frost.VerifyShare(pk, payload, comms, shares[1]) })
		c.combine = timeOp(func() { _, _ = frost.Combine(pk, payload, comms, shares) })
	case schemes.CKS05:
		pk := keys.MustPublic[*cks05.PublicKey](stores[0], id)
		ks := func(i int) cks05.KeyShare { return keys.MustShare[cks05.KeyShare](stores[i], id) }
		shares := make([]*cks05.CoinShare, quorum)
		for i := range shares {
			var e error
			shares[i], e = cks05.Share(rand.Reader, pk, ks(i), payload)
			fail(e)
		}
		if err != nil {
			return c, err
		}
		c.shareGen = timeOp(func() { _, _ = cks05.Share(rand.Reader, pk, ks(0), payload) })
		c.shareVerify = timeOp(func() { _ = cks05.VerifyShare(pk, payload, shares[1]) })
		c.combine = timeOp(func() { _, _ = cks05.Combine(pk, payload, shares) })
	default:
		return c, fmt.Errorf("no timing for scheme %q", id)
	}
	return c, nil
}

func (c schemeCost) into(out map[string]metric, prefix string) {
	out[prefix+"round1_ms"] = metric{ms(c.round1), "ms"}
	out[prefix+"share_gen_ms"] = metric{ms(c.shareGen), "ms"}
	out[prefix+"share_verify_ms"] = metric{ms(c.shareVerify), "ms"}
	out[prefix+"combine_ms"] = metric{ms(c.combine), "ms"}
}

// msmTerms is the size of the multi-scalar multiplication timed per
// group; the batch verifier's combinations are of this order.
const msmTerms = 16

func timeGroup(g group.Group, out map[string]metric) error {
	k, err := g.RandomScalar(rand.Reader)
	if err != nil {
		return err
	}
	p := g.BaseMul(k)
	enc := p.Marshal()
	points := make([]group.Point, msmTerms)
	scalars := make([]*big.Int, msmTerms)
	for i := range points {
		if scalars[i], err = g.RandomScalar(rand.Reader); err != nil {
			return err
		}
		points[i] = g.BaseMul(scalars[i])
	}
	prefix := "group." + g.Name() + "."
	out[prefix+"base_mul_us"] = metric{us(timeOp(func() { _ = g.BaseMul(k) })), "us"}
	out[prefix+"mul_us"] = metric{us(timeOp(func() { _ = p.Mul(k) })), "us"}
	out[prefix+"msm_us_per_term"] = metric{us(timeOp(func() { _ = group.MultiScalarMul(g, points, scalars) })) / msmTerms, "us"}
	out[prefix+"hash_to_point_us"] = metric{us(timeOp(func() { _ = g.HashToPoint("bench", enc) })), "us"}
	out[prefix+"unmarshal_point_us"] = metric{us(timeOp(func() { _, _ = g.UnmarshalPoint(enc) })), "us"}
	return nil
}

func timePairing(out map[string]metric) error {
	k, p, err := pairing.RandomG1(rand.Reader)
	if err != nil {
		return err
	}
	_, q, err := pairing.RandomG2(rand.Reader)
	if err != nil {
		return err
	}
	out["pairing.pair_ms"] = metric{ms(timeOp(func() { _ = pairing.Pair(p, q) })), "ms"}
	out["pairing.check_ms"] = metric{ms(timeOp(func() { _ = pairing.PairingCheck(p, q, p, q) })), "ms"}
	out["pairing.g1_mul_ms"] = metric{ms(timeOp(func() { _ = p.Mul(k) })), "ms"}
	out["pairing.g2_mul_ms"] = metric{ms(timeOp(func() { _ = q.Mul(k) })), "ms"}
	return nil
}

// timeProofsAndShares times the DLEQ proof, Lagrange arithmetic and the
// batch verifier on group g at threshold t.
func timeProofsAndShares(g group.Group, t int, out map[string]metric) error {
	x, err := g.RandomScalar(rand.Reader)
	if err != nil {
		return err
	}
	g1, g2 := g.Generator(), g.HashToPoint("bench", []byte("second base"))
	h1, h2 := g1.Mul(x), g2.Mul(x)
	proof, err := zkp.ProveDLEQ(rand.Reader, g, "bench", g1, h1, g2, h2, x)
	if err != nil {
		return err
	}
	out["zkp.dleq_prove_ms"] = metric{ms(timeOp(func() { _, _ = zkp.ProveDLEQ(rand.Reader, g, "bench", g1, h1, g2, h2, x) })), "ms"}
	out["zkp.dleq_verify_ms"] = metric{ms(timeOp(func() { _ = zkp.VerifyDLEQ(g, "bench", g1, h1, g2, h2, proof) })), "ms"}

	subset := make([]int, t+1)
	points := make(map[int]group.Point, t+1)
	for i := range subset {
		subset[i] = i + 1
		points[i+1] = h1
	}
	out["share.coefficients_us"] = metric{us(timeOp(func() { _, _ = share.Coefficients(subset, g.Order()) })), "us"}
	out["share.interpolate_exp_ms"] = metric{ms(timeOp(func() { _, _ = share.InterpolateInExponent(g, points) })), "ms"}

	rels, err := zkp.DLEQRelations(g, "bench", g1, h1, g2, h2, proof)
	if err != nil {
		return err
	}
	verifier := precompute.NewSuite(rand.Reader, precompute.Options{}).Verifier()
	out["precompute.batch_verify_us_per_relation"] = metric{
		us(timeOp(func() { _ = verifier.Verify(g, rels) })) / float64(len(rels)), "us"}
	return nil
}

// timeDealing times what one node does for a key's generation and its
// resharing, on group g at (t, n), and what it does to store n keys.
func timeDealing(g group.Group, t, n, keyCount int, out map[string]metric) error {
	dealer, err := dkg.NewParticipant(g, 1, t, n)
	if err != nil {
		return err
	}
	receiver, err := dkg.NewParticipant(g, 2, t, n)
	if err != nil {
		return err
	}
	dealing, err := dealer.Deal(rand.Reader)
	if err != nil {
		return err
	}
	out["dkg.deal_ms"] = metric{ms(timeOp(func() { _, _ = dealer.Deal(rand.Reader) })), "ms"}
	pub := &dkg.PublicDealing{Dealer: 1, Commitment: dealing.Commitment}
	out["dkg.verify_ms"] = metric{ms(timeOp(func() {
		_ = receiver.ReceiveCommitment(pub)
		_ = receiver.ReceiveSubShare(1, dealing.SubShares[1])
	})), "ms"}

	old := share.Share{Index: 1, Value: dealing.SubShares[0].Value}
	oldVK := g.BaseMul(old.Value)
	re, err := share.Reshare(rand.Reader, g, old, t, n)
	if err != nil {
		return err
	}
	out["share.reshare_deal_ms"] = metric{ms(timeOp(func() { _, _ = share.Reshare(rand.Reader, g, old, t, n) })), "ms"}
	out["share.reshare_verify_ms"] = metric{ms(timeOp(func() {
		_ = share.VerifyReshareDealing(g, re, oldVK, t)
		_ = re.Commitment.VerifyShare(re.SubShares[1])
	})), "ms"}

	id, err := identity.Generate(rand.Reader, 2)
	if err != nil {
		return err
	}
	ctxBytes, sub := []byte("bench|1|2"), dealing.SubShares[1].Value.Bytes()
	box, err := identity.Seal(rand.Reader, id.Public(), ctxBytes, sub)
	if err != nil {
		return err
	}
	out["identity.seal_us"] = metric{us(timeOp(func() { _, _ = identity.Seal(rand.Reader, id.Public(), ctxBytes, sub) })), "us"}
	out["identity.open_us"] = metric{us(timeOp(func() { _, _ = id.Open(ctxBytes, box) })), "us"}

	// A keystore as large as the key lifecycle workload leaves behind.
	stores, err := keys.Deal(rand.Reader, t, n, keys.Options{Schemes: []schemes.ID{schemes.SG02}, Group: g})
	if err != nil {
		return err
	}
	store := stores[0]
	template, err := store.Get(schemes.SG02, "")
	if err != nil {
		return err
	}
	for i := 1; i < keyCount; i++ {
		k := *template
		k.ID = fmt.Sprintf("k-%06d", i)
		if err := store.Add(&k); err != nil {
			return err
		}
	}
	dir, err := os.MkdirTemp("", "thetabench-store-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store.SetPersistPath(filepath.Join(dir, "node.key"))
	if err := store.Save(); err != nil {
		return err
	}
	out["keys.marshal_us"] = metric{us(timeOp(func() { _ = store.Marshal() })), "us"}
	out["keys.save_ms"] = metric{ms(timeOp(func() { _ = store.Save() })), "ms"}
	return nil
}

// frameSizes are the envelope payload sizes the link layers are timed
// at: a share, a batch, and the largest payload class.
var frameSizes = []struct {
	label string
	bytes int
}{{"256B", 256}, {"16KiB", 16 << 10}, {"256KiB", 256 << 10}}

// timeLinks times the per-frame cost of each link layer in isolation.
func timeLinks(out map[string]metric) error {
	ids := make([]*identity.Key, 2)
	roster := make(identity.Roster, 2)
	for i := range ids {
		k, err := identity.Generate(rand.Reader, i+1)
		if err != nil {
			return err
		}
		ids[i], roster[i+1] = k, k.Public()
	}
	// handshake runs one mutual authentication over an in-memory pipe
	// and returns both ends.
	handshake := func() (cli, srv *securelink.Conn, err error) {
		cc, sc := net.Pipe()
		done := make(chan error, 1)
		go func() {
			var e error
			srv, _, e = securelink.Server(sc, securelink.Config{Key: ids[1], Roster: roster})
			done <- e
		}()
		cli, err = securelink.Client(cc, securelink.Config{Key: ids[0], Roster: roster}, 2)
		if e := <-done; err == nil {
			err = e
		}
		if err != nil {
			cc.Close()
			sc.Close()
		}
		return cli, srv, err
	}
	var hsErr error
	out["securelink.handshake_ms"] = metric{ms(timeOp(func() {
		cli, srv, err := handshake()
		if err != nil {
			hsErr = err
			return
		}
		cli.Close()
		srv.Close()
	})), "ms"}
	if hsErr != nil {
		return fmt.Errorf("securelink handshake: %w", hsErr)
	}

	cli, srv, err := handshake()
	if err != nil {
		return err
	}
	defer cli.Close()
	defer srv.Close()

	ctx := context.Background()
	for _, fs := range frameSizes {
		env := network.Envelope{
			From: 1, To: 2, Instance: "0123456789abcdef0123456789abcdef", Kind: network.KindProto,
			Round: 1, Gen: 1, Payload: make([]byte, fs.bytes),
		}
		frame := env.Marshal()
		out["wire.envelope_marshal_ns."+fs.label] = metric{ns(timeLoop(func() { _ = env.Marshal() })), "ns"}
		out["wire.envelope_unmarshal_ns."+fs.label] = metric{ns(timeLoop(func() { _, _ = network.UnmarshalEnvelope(frame) })), "ns"}

		// One record: sealed and written by one end, read and opened by
		// the other; the pipe hands bytes over without a socket.
		got := make(chan error, 1)
		buf := make([]byte, len(frame))
		var recErr error
		out["securelink.record_us."+fs.label] = metric{us(timeOp(func() {
			go func() {
				_, err := io.ReadFull(srv, buf)
				got <- err
			}()
			if _, err := cli.Write(frame); err != nil {
				recErr = err
			}
			if err := <-got; err != nil {
				recErr = err
			}
		})), "us"}
		if recErr != nil {
			return fmt.Errorf("securelink record: %w", recErr)
		}

		// One relink cycle: stage, accept in order, acknowledge.
		link := relink.NewLink(relink.NewEpoch(), relink.Config{})
		inbox := relink.NewInbox(0)
		out["relink.cycle_ns."+fs.label] = metric{ns(timeLoop(func() {
			staged, _ := link.Stage(ctx, env)
			inbox.Accept(staged)
			if epoch, upTo, ok := inbox.AckValue(); ok {
				link.Ack(epoch, upTo)
			}
		})), "ns"}

		q := outq.New[[]byte](16, network.PolicyBlock)
		out["outq.cycle_ns."+fs.label] = metric{ns(timeLoop(func() {
			_ = q.Enqueue(ctx, frame)
			_, _ = q.Dequeue(nil)
		})), "ns"}
	}
	return nil
}

// layerTimings times the layers' public functions directly: the
// workload's scheme at the workload's shape, every scheme at (2, 7),
// both groups, the pairing, proofs, dealing, and the link layers.
func layerTimings(w workload, keyCount int) (map[string]metric, error) {
	out := make(map[string]metric)
	own, err := timeScheme(w.scheme, w.group, w.t, w.n, w.payload)
	if err != nil {
		return nil, fmt.Errorf("time %s: %w", w.scheme, err)
	}
	own.into(out, "schemes.")
	for _, id := range schemes.All() {
		c, err := timeScheme(id, nil, 2, 7, 256)
		if err != nil {
			return nil, fmt.Errorf("time %s: %w", id, err)
		}
		c.into(out, "schemes."+string(id)+".")
	}
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		if err := timeGroup(g, out); err != nil {
			return nil, err
		}
	}
	if err := timePairing(out); err != nil {
		return nil, err
	}
	g := w.group
	if g == nil {
		g = group.Edwards25519()
	}
	if err := timeProofsAndShares(g, w.t, out); err != nil {
		return nil, err
	}
	if err := timeDealing(g, w.t, w.n, keyCount, out); err != nil {
		return nil, err
	}
	if err := timeLinks(out); err != nil {
		return nil, err
	}
	return out, nil
}
