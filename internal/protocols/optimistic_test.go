package protocols

import (
	"crypto/rand"
	"errors"
	"math/big"
	mrand "math/rand"
	"strings"
	"testing"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/pairing"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/frost"
)

// bls04Run is one n=4, t=1 BLS04 sign instance per node, each started,
// with the share every node broadcast.
type bls04Run struct {
	protos []Protocol
	shares [][]byte
	pk     *bls04.PublicKey
	msg    []byte
}

func startBLS04(t *testing.T, nodes []*keys.Keystore, msg []byte) *bls04Run {
	t.Helper()
	r := &bls04Run{pk: keys.MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04), msg: msg}
	req := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: msg}
	for _, nk := range nodes {
		p, err := New(rand.Reader, nk, req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.DoRound()
		if err != nil {
			t.Fatal(err)
		}
		r.protos = append(r.protos, p)
		r.shares = append(r.shares, out.Payload)
	}
	return r
}

// deliver hands node to the share of sender and returns the pairing
// checks the update ran.
func (r *bls04Run) deliver(t *testing.T, to, sender int, payload []byte) (uint64, error) {
	t.Helper()
	before := pairing.Checks()
	err := r.protos[to-1].Update(ProtocolMessage{Sender: sender, Round: 1, Payload: payload})
	return pairing.Checks() - before, err
}

// finish finalizes node, which must run no pairing check: the quorum
// was checked at Update.
func (r *bls04Run) finish(t *testing.T, node int) []byte {
	t.Helper()
	p := r.protos[node-1]
	if !p.IsReadyToFinalize() {
		t.Fatalf("node %d not ready after a valid quorum", node)
	}
	before := pairing.Checks()
	out, err := p.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if n := pairing.Checks() - before; n != 0 {
		t.Fatalf("node %d: Finalize ran %d pairing checks, want 0", node, n)
	}
	return out
}

// verify checks the signatures the nodes released, outside any counted
// window.
func (r *bls04Run) verify(t *testing.T, sigs map[int][]byte) {
	t.Helper()
	for node, raw := range sigs {
		sig, err := bls04.UnmarshalSignature(raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := bls04.Verify(r.pk, r.msg, sig); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
	}
}

// TestBLS04PairingChecksPerRequest pins the pairing checks of one BLS04
// sign at n=4, t=1: the own share is never checked, and the quorum is
// checked once, by the pairing check its combine ends in. An honest
// instance costs 4 checks, one per node, in any delivery order. A bad
// share arriving first costs each honest node 3: the failed combine,
// the one unchecked share, and the combine that succeeds; a resend of
// it costs nothing. Not parallel: the pairing counter is process-wide.
func TestBLS04PairingChecksPerRequest(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.BLS04)
	rng := mrand.New(mrand.NewSource(1))

	t.Run("honest", func(t *testing.T) {
		for trial := 0; trial < 6; trial++ {
			before := pairing.Checks()
			r := startBLS04(t, nodes, []byte("honest"))
			if n := pairing.Checks() - before; n != 0 {
				t.Fatalf("making and storing the own shares ran %d pairing checks", n)
			}
			type delivery struct{ to, from int }
			var order []delivery
			for to := 1; to <= 4; to++ {
				for from := 1; from <= 4; from++ {
					if from != to {
						order = append(order, delivery{to, from})
					}
				}
			}
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			perNode := make([]uint64, 5)
			sigs := make(map[int][]byte)
			for _, d := range order {
				n, err := r.deliver(t, d.to, d.from, r.shares[d.from-1])
				if err != nil {
					t.Fatalf("honest share from %d to %d: %v", d.from, d.to, err)
				}
				perNode[d.to] += n
				if sigs[d.to] == nil && r.protos[d.to-1].IsReadyToFinalize() {
					sigs[d.to] = r.finish(t, d.to)
				}
			}
			for node := 1; node <= 4; node++ {
				if perNode[node] != 1 {
					t.Fatalf("trial %d: node %d ran %d pairing checks, want 1", trial, node, perNode[node])
				}
			}
			if total := pairing.Checks() - before; total != 4 {
				t.Fatalf("trial %d: instance ran %d pairing checks, want 4", trial, total)
			}
			r.verify(t, sigs)
		}
	})

	t.Run("bad-share-first", func(t *testing.T) {
		r := startBLS04(t, nodes, []byte("liar first"))
		bad := bls04.SignShare(keys.MustShare[bls04.KeyShare](nodes[3], schemes.BLS04), []byte("other")).Marshal()
		for node := 1; node <= 3; node++ {
			n, err := r.deliver(t, node, 4, bad)
			if !errors.Is(err, ErrShareRejected) || !strings.Contains(err.Error(), "share from 4") ||
				len(Rejections(err)) != 1 {
				t.Fatalf("node %d: bad share not rejected and attributed: %v", node, err)
			}
			if n != 2 {
				t.Fatalf("node %d: failed quorum ran %d pairing checks, want 2", node, n)
			}
			spent := n
			if n, err := r.deliver(t, node, 4, bad); err != nil || n != 0 {
				t.Fatalf("node %d: resend cost %d pairing checks (err %v), want 0 and no rejection", node, n, err)
			}
			peers := []int{1, 2, 3}
			rng.Shuffle(len(peers), func(i, j int) { peers[i], peers[j] = peers[j], peers[i] })
			for _, from := range peers {
				if from == node {
					continue
				}
				n, err = r.deliver(t, node, from, r.shares[from-1])
				if err != nil || n != 1 {
					t.Fatalf("node %d: share from %d ran %d pairing checks (err %v), want 1", node, from, n, err)
				}
				spent += n
				break
			}
			if spent != 3 {
				t.Fatalf("node %d ran %d pairing checks, want 3", node, spent)
			}
			r.verify(t, map[int][]byte{node: r.finish(t, node)})
		}
	})
}

// TestBLS04OwnBadShareFailsInstance: when every peer share checks out
// but the quorum still does not combine, the node's own share is bad —
// a local fault that ends the instance instead of blaming a peer.
func TestBLS04OwnBadShareFailsInstance(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.BLS04)
	pk := keys.MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04)
	ks := keys.MustShare[bls04.KeyShare](nodes[0], schemes.BLS04)
	ks.X = new(big.Int).Add(ks.X, big.NewInt(1))
	msg := []byte("own share corrupted")
	p := newNonInteractive(rand.Reader, &bls04Adapter{pk: pk, ks: ks, msg: msg,
		shares: make(map[int]*bls04.SigShare)})
	if _, err := p.DoRound(); err != nil {
		t.Fatal(err)
	}
	peer := bls04.SignShare(keys.MustShare[bls04.KeyShare](nodes[1], schemes.BLS04), msg).Marshal()
	err := p.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: peer})
	if err == nil || Rejections(err) != nil || !errors.Is(err, bls04.ErrInvalidSignature) {
		t.Fatalf("want a protocol failure, got %v", err)
	}
}

// frostRun is a fresh (unpooled) n=4, t=1 KG20 run: signers 1 and 2
// have committed, and each has signed against the other's commitment.
type frostRun struct {
	protos       []Protocol
	comm1, comm2 []byte
	share1       []byte
	share2       *frost.SignatureShare
	pk           *frost.PublicKey
	msg          []byte
}

func startFrost(t *testing.T, nodes []*keys.Keystore, msg []byte) *frostRun {
	t.Helper()
	r := &frostRun{pk: keys.MustPublic[*frost.PublicKey](nodes[0], schemes.KG20), msg: msg}
	req := Request{Scheme: schemes.KG20, Op: OpSign, Payload: msg}
	for _, nk := range nodes {
		p, err := New(rand.Reader, nk, req)
		if err != nil {
			t.Fatal(err)
		}
		r.protos = append(r.protos, p)
	}
	first := func(node int) []byte {
		out, err := r.protos[node-1].DoRound()
		if err != nil || out == nil || out.Round != 1 {
			t.Fatalf("signer %d round 1: %+v, %v", node, out, err)
		}
		return out.Payload
	}
	r.comm1, r.comm2 = first(1), first(2)
	second := func(node, peer int, comm []byte) []byte {
		p := r.protos[node-1]
		if err := p.Update(ProtocolMessage{Sender: peer, Round: 1, Payload: comm}); err != nil {
			t.Fatal(err)
		}
		if !p.IsReadyForNextRound() {
			t.Fatalf("signer %d not ready to send its share", node)
		}
		out, err := p.DoRound()
		if err != nil || out == nil || out.Round != 2 {
			t.Fatalf("signer %d round 2: %+v, %v", node, out, err)
		}
		return out.Payload
	}
	r.share1 = second(1, 2, r.comm2)
	ss, err := frost.UnmarshalSignatureShare(second(2, 1, r.comm1))
	if err != nil {
		t.Fatal(err)
	}
	r.share2 = ss
	return r
}

// TestFrostParkedRejectionsSurface: shares that arrive before the
// commitment set completes are parked, and the commitment that
// completes it returns every parked share's rejection, each naming its
// sender. Here observer 3 parks a share from non-signer 4 and signer
// 2's share with z+1, plus signer 1's valid share; the completing
// commitment rejects both bad shares, the first on its structure, the
// second by the failed aggregate check.
func TestFrostParkedRejectionsSurface(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.KG20)
	r := startFrost(t, nodes, []byte("parked"))
	observer := r.protos[2]
	bad := *r.share2
	bad.Z = new(big.Int).Mod(new(big.Int).Add(bad.Z, big.NewInt(1)), r.pk.Group.Order())
	outsider := (&frost.SignatureShare{Index: 4, Z: big.NewInt(7)}).Marshal()
	for _, m := range []ProtocolMessage{
		{Sender: 2, Round: 1, Payload: r.comm2},
		{Sender: 4, Round: 2, Payload: outsider},
		{Sender: 2, Round: 2, Payload: bad.Marshal()},
		{Sender: 1, Round: 2, Payload: r.share1},
	} {
		if err := observer.Update(m); err != nil {
			t.Fatalf("parking round %d from %d: %v", m.Round, m.Sender, err)
		}
	}
	err := observer.Update(ProtocolMessage{Sender: 1, Round: 1, Payload: r.comm1})
	rejected := Rejections(err)
	if len(rejected) != 2 {
		t.Fatalf("completing the set returned %v, want two rejections", err)
	}
	for _, want := range []string{"share from 4", "share from 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("rejections %v do not name %q", err, want)
		}
	}
	if !errors.Is(err, frost.ErrInvalidShare) || !errors.Is(err, frost.ErrNotInSignerSet) {
		t.Fatalf("rejections %v lack their causes", err)
	}
	// FROST is not robust: signer 2 is remembered, so even its valid
	// share no longer completes the set.
	if err := observer.Update(ProtocolMessage{Sender: 2, Round: 2, Payload: r.share2.Marshal()}); err != nil {
		t.Fatalf("later share from the rejected signer: %v", err)
	}
	if observer.IsReadyToFinalize() {
		t.Fatal("observer finalized without signer 2")
	}
}

// TestFrostOwnBadShareFailsInstance: a quorum of valid peer shares
// that does not combine convicts the node's own share, a local fault
// that ends the instance instead of blaming a peer.
func TestFrostOwnBadShareFailsInstance(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.KG20)
	msg := []byte("own share corrupted")
	pk := keys.MustPublic[*frost.PublicKey](nodes[0], schemes.KG20)
	ks := keys.MustShare[frost.KeyShare](nodes[0], schemes.KG20)
	ks.X = new(big.Int).Add(ks.X, big.NewInt(1))
	p := newFrost(rand.Reader, pk, ks, msg)
	out, err := p.DoRound()
	if err != nil {
		t.Fatal(err)
	}
	// Signer 2 signs against this instance's commitment.
	nonce2, comm2, err := frost.GenerateNonce(rand.Reader, pk.Group, 2)
	if err != nil {
		t.Fatal(err)
	}
	comm1, err := frost.UnmarshalNonceCommitment(pk.Group, out.Payload)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := frost.Sign(pk, keys.MustShare[frost.KeyShare](nodes[1], schemes.KG20), nonce2, msg,
		[]*frost.NonceCommitment{comm1, comm2})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: comm2.Marshal()}); err != nil {
		t.Fatal(err)
	}
	err = p.Update(ProtocolMessage{Sender: 2, Round: 2, Payload: ss.Marshal()})
	if err == nil || Rejections(err) != nil || !errors.Is(err, frost.ErrInvalidSignature) {
		t.Fatalf("want a protocol failure, got %v", err)
	}
}

// TestFrostShareBeforeCommitment: a signer whose peer share arrives
// before the last commitment signs inside that commitment's Update,
// checks the complete set there, and finalizes only after its own share
// went out, since the other signer waits for it.
func TestFrostShareBeforeCommitment(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.KG20)
	msg := []byte("late commitment")
	req := Request{Scheme: schemes.KG20, Op: OpSign, Payload: msg}
	signers := make([]Protocol, 2)
	comms := make([][]byte, 2)
	for i := range signers {
		p, err := New(rand.Reader, nodes[i], req)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.DoRound()
		if err != nil {
			t.Fatal(err)
		}
		signers[i], comms[i] = p, out.Payload
	}
	if err := signers[1].Update(ProtocolMessage{Sender: 1, Round: 1, Payload: comms[0]}); err != nil {
		t.Fatal(err)
	}
	share2, err := signers[1].DoRound()
	if err != nil {
		t.Fatal(err)
	}
	p := signers[0]
	if err := p.Update(ProtocolMessage{Sender: 2, Round: 2, Payload: share2.Payload}); err != nil {
		t.Fatalf("parking the early share: %v", err)
	}
	if err := p.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: comms[1]}); err != nil {
		t.Fatalf("completing the set: %v", err)
	}
	if p.IsReadyToFinalize() || !p.IsReadyForNextRound() {
		t.Fatal("signer 1 must send its share before it finalizes")
	}
	out, err := p.DoRound()
	if err != nil || out == nil || out.Round != 2 {
		t.Fatalf("own share: %+v, %v", out, err)
	}
	if err := signers[1].Update(ProtocolMessage{Sender: 1, Round: 2, Payload: out.Payload}); err != nil {
		t.Fatal(err)
	}
	pk := keys.MustPublic[*frost.PublicKey](nodes[0], schemes.KG20)
	for i, s := range signers {
		if !s.IsReadyToFinalize() {
			t.Fatalf("signer %d not ready", i+1)
		}
		raw, err := s.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		sig, err := frost.UnmarshalSignature(pk.Group, raw)
		if err != nil {
			t.Fatal(err)
		}
		if err := frost.Verify(pk, msg, sig); err != nil {
			t.Fatalf("signer %d: %v", i+1, err)
		}
	}
}
