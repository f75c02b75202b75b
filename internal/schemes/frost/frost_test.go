package frost

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"runtime"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

type signer struct {
	ks    KeyShare
	nonce *Nonce
	comm  *NonceCommitment
}

func setup(t *testing.T, g group.Group, tt, n int, signerIdx []int) (*PublicKey, []signer, []*NonceCommitment) {
	t.Helper()
	pk, ks, err := share.Deal(rand.Reader, g, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	var signers []signer
	var comms []*NonceCommitment
	for _, i := range signerIdx {
		nonce, comm, err := GenerateNonce(rand.Reader, g, ks[i].Index)
		if err != nil {
			t.Fatal(err)
		}
		signers = append(signers, signer{ks: ks[i], nonce: nonce, comm: comm})
		comms = append(comms, comm)
	}
	return pk, signers, comms
}

func TestTwoRoundSigning(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			pk, signers, comms := setup(t, g, 2, 5, []int{0, 2, 4})
			msg := []byte("transfer 10 coins")
			var shares []*SignatureShare
			for _, s := range signers {
				ss, err := Sign(pk, s.ks, s.nonce, msg, comms)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyShare(pk, msg, comms, ss); err != nil {
					t.Fatalf("valid share %d rejected: %v", ss.Index, err)
				}
				shares = append(shares, ss)
			}
			sig, err := Combine(pk, msg, comms, shares)
			if err != nil {
				t.Fatal(err)
			}
			if err := Verify(pk, msg, sig); err != nil {
				t.Fatal(err)
			}
			if err := Verify(pk, []byte("other"), sig); err == nil {
				t.Fatal("signature verified for wrong message")
			}
		})
	}
}

func TestPrecomputedOneRoundSigning(t *testing.T) {
	// With nonce batches generated and exchanged ahead of time (FROST's
	// preprocessing), signing needs only round 2.
	g := group.Edwards25519()
	pk, ks, err := share.Deal(rand.Reader, g, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	nonces := make(map[int][]*Nonce)
	comms := make(map[int][]*NonceCommitment)
	for _, k := range ks[:2] {
		for i := 0; i < batch; i++ {
			n, c, err := GenerateNonce(rand.Reader, g, k.Index)
			if err != nil {
				t.Fatal(err)
			}
			nonces[k.Index] = append(nonces[k.Index], n)
			comms[k.Index] = append(comms[k.Index], c)
		}
	}
	// Sign `batch` messages, consuming one precomputed nonce each.
	for round := 0; round < batch; round++ {
		msg := []byte{byte(round)}
		set := []*NonceCommitment{comms[1][round], comms[2][round]}
		var shares []*SignatureShare
		for _, k := range ks[:2] {
			ss, err := Sign(pk, k, nonces[k.Index][round], msg, set)
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, ss)
		}
		if _, err := Combine(pk, msg, set, shares); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestNonceReuseAcrossSetsRejected(t *testing.T) {
	// Using a nonce that does not match the signer's broadcast
	// commitment must be refused (nonce reuse leaks the key share).
	g := group.Edwards25519()
	pk, signers, comms := setup(t, g, 1, 3, []int{0, 1})
	otherNonce, _, _ := GenerateNonce(rand.Reader, g, 1)
	if _, err := Sign(pk, signers[0].ks, otherNonce, []byte("m"), comms); err == nil {
		t.Fatal("nonce/commitment mismatch accepted")
	}
}

func TestMisbehavingSignerIdentified(t *testing.T) {
	// FROST is not robust: a bad share aborts the signature, but the
	// culprit is identified by VerifyShare.
	g := group.Edwards25519()
	pk, signers, comms := setup(t, g, 1, 3, []int{0, 1})
	msg := []byte("m")
	good, err := Sign(pk, signers[0].ks, signers[0].nonce, msg, comms)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Sign(pk, signers[1].ks, signers[1].nonce, msg, comms)
	if err != nil {
		t.Fatal(err)
	}
	bad.Z = new(big.Int).Add(bad.Z, big.NewInt(1))

	if err := VerifyShare(pk, msg, comms, good); err != nil {
		t.Fatal("honest signer flagged")
	}
	if err := VerifyShare(pk, msg, comms, bad); !errors.Is(err, ErrInvalidShare) {
		t.Fatal("misbehaving signer not identified")
	}
	// Combining with the bad share fails result verification (abort).
	if _, err := Combine(pk, msg, comms, []*SignatureShare{good, bad}); err == nil {
		t.Fatal("combine succeeded despite bad share")
	}
}

func TestCombineRequiresFullSignerSet(t *testing.T) {
	g := group.Edwards25519()
	pk, signers, comms := setup(t, g, 2, 5, []int{0, 1, 2})
	msg := []byte("m")
	var shares []*SignatureShare
	for _, s := range signers[:2] { // one signer missing
		ss, _ := Sign(pk, s.ks, s.nonce, msg, comms)
		shares = append(shares, ss)
	}
	if _, err := Combine(pk, msg, comms, shares); err == nil {
		t.Fatal("combine succeeded without the full signer set")
	}
}

func TestSignerOutsideSetRejected(t *testing.T) {
	g := group.Edwards25519()
	pk, ks, _ := share.Deal(rand.Reader, g, 1, 4)
	_, comm1, _ := GenerateNonce(rand.Reader, g, 1)
	_, comm2, _ := GenerateNonce(rand.Reader, g, 2)
	comms := []*NonceCommitment{comm1, comm2}
	outsider, outsiderComm, _ := GenerateNonce(rand.Reader, g, 4)
	_ = outsiderComm
	if _, err := Sign(pk, ks[3], outsider, []byte("m"), comms); !errors.Is(err, ErrNotInSignerSet) {
		t.Fatal("signer outside commitment set accepted")
	}
}

func TestBadCommitmentSets(t *testing.T) {
	g := group.Edwards25519()
	pk, signers, comms := setup(t, g, 2, 5, []int{0, 1, 2})
	msg := []byte("m")
	tooFew := comms[:2]
	if _, err := Sign(pk, signers[0].ks, signers[0].nonce, msg, tooFew); !errors.Is(err, ErrBadCommitmentSet) {
		t.Fatal("undersized commitment set accepted")
	}
	dup := []*NonceCommitment{comms[0], comms[0], comms[1]}
	if _, err := Sign(pk, signers[0].ks, signers[0].nonce, msg, dup); !errors.Is(err, ErrBadCommitmentSet) {
		t.Fatal("duplicate commitment set accepted")
	}
}

func TestShareBoundToCommitmentSet(t *testing.T) {
	// A share computed for one commitment set must not verify against a
	// different set (the binding value ρ covers the whole set).
	g := group.Edwards25519()
	pk, signers, comms := setup(t, g, 1, 4, []int{0, 1})
	msg := []byte("m")
	ss, _ := Sign(pk, signers[0].ks, signers[0].nonce, msg, comms)

	_, comm3, _ := GenerateNonce(rand.Reader, g, signers[1].ks.Index)
	otherSet := []*NonceCommitment{comms[0], comm3}
	if err := VerifyShare(pk, msg, otherSet, ss); err == nil {
		t.Fatal("share accepted under a different commitment set")
	}
}

func TestMarshalRoundTrips(t *testing.T) {
	g := group.Edwards25519()
	pk, signers, comms := setup(t, g, 1, 3, []int{0, 1})
	msg := []byte("wire")

	comm2, err := UnmarshalNonceCommitment(g, comms[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if comm2.Index != comms[0].Index || !comm2.D.Equal(comms[0].D) {
		t.Fatal("commitment round trip mismatch")
	}

	ss, _ := Sign(pk, signers[0].ks, signers[0].nonce, msg, comms)
	ss2, err := UnmarshalSignatureShare(ss.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyShare(pk, msg, comms, ss2); err != nil {
		t.Fatal("round-tripped share invalid")
	}

	ssB, _ := Sign(pk, signers[1].ks, signers[1].nonce, msg, comms)
	sig, err := Combine(pk, msg, comms, []*SignatureShare{ss, ssB})
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := UnmarshalSignature(g, sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pk, msg, sig2); err != nil {
		t.Fatal("round-tripped signature invalid")
	}
}

// TestDecodersRejectNonCanonical pins that the three decoders accept
// only the one encoding Marshal gives: a trailing byte, a zero-padded
// magnitude and a sign byte other than 0 are all rejected.
func TestDecodersRejectNonCanonical(t *testing.T) {
	share := func(z []byte) []byte { return wire.NewWriter().Int(1).Bytes(z).Out() }
	if _, err := UnmarshalSignatureShare(share([]byte{0, 0x30, 0x39})); err != nil {
		t.Fatalf("rejected a canonical share: %v", err)
	}
	for name, z := range map[string][]byte{
		"zero-padded": {0, 0, 0x30, 0x39},
		"sign byte 7": {7, 0x30, 0x39},
		"negative":    {1, 0x30, 0x39},
		"empty":       {},
	} {
		if _, err := UnmarshalSignatureShare(share(z)); err == nil {
			t.Errorf("share with %s z accepted", name)
		}
	}
	for _, dec := range frostDecoders {
		for _, seed := range dec.seeds() {
			if dec.decode(seed) == nil {
				t.Fatalf("%s: rejected its own encoding", dec.name)
			}
			if dec.decode(append(seed, 0)) != nil {
				t.Fatalf("%s: accepted a trailing byte", dec.name)
			}
		}
	}
}

// frostDecoders lists the FROST wire decoders for the fuzz target:
// decode returns nil for a rejected input, and otherwise a function
// re-encoding what was decoded. seeds returns valid encodings.
var frostDecoders = []struct {
	name   string
	decode func([]byte) func() []byte
	seeds  func() [][]byte
}{
	{"commitment/edwards25519", commitmentDecoder(group.Edwards25519()), commitmentSeeds(group.Edwards25519())},
	{"commitment/p256", commitmentDecoder(group.P256()), commitmentSeeds(group.P256())},
	{"share", func(b []byte) func() []byte {
		ss, err := UnmarshalSignatureShare(b)
		if err != nil {
			return nil
		}
		return ss.Marshal
	}, func() [][]byte {
		return [][]byte{(&SignatureShare{Index: 2, Z: big.NewInt(12345)}).Marshal(),
			(&SignatureShare{Index: 1, Z: big.NewInt(0)}).Marshal()}
	}},
	{"signature/edwards25519", signatureDecoder(group.Edwards25519()), signatureSeeds(group.Edwards25519())},
	{"signature/p256", signatureDecoder(group.P256()), signatureSeeds(group.P256())},
}

func commitmentDecoder(g group.Group) func([]byte) func() []byte {
	return func(b []byte) func() []byte {
		c, err := UnmarshalNonceCommitment(g, b)
		if err != nil {
			return nil
		}
		return c.Marshal
	}
}

func commitmentSeeds(g group.Group) func() [][]byte {
	return func() [][]byte {
		return [][]byte{(&NonceCommitment{Index: 3, D: g.Generator(), E: g.Identity()}).Marshal()}
	}
}

func signatureDecoder(g group.Group) func([]byte) func() []byte {
	return func(b []byte) func() []byte {
		sig, err := UnmarshalSignature(g, b)
		if err != nil {
			return nil
		}
		return sig.Marshal
	}
}

func signatureSeeds(g group.Group) func() [][]byte {
	return func() [][]byte {
		return [][]byte{(&Signature{R: g.Generator(), Z: new(big.Int).Sub(g.Order(), big.NewInt(1))}).Marshal()}
	}
}

// FuzzFrostDecoders feeds arbitrary bytes to every FROST wire decoder —
// nonce commitment and signature (over both groups), signature share —
// selected by which. It asserts that no input panics, that decoding
// allocates in proportion to the input, and that every accepted input
// re-encodes to exactly itself.
func FuzzFrostDecoders(f *testing.F) {
	for i, dec := range frostDecoders {
		for _, seed := range dec.seeds() {
			f.Add(uint8(i), seed)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dec := frostDecoders[int(which)%len(frostDecoders)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reencode := dec.decode(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+64*len(data)); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", dec.name, len(data), got, limit)
		}
		if reencode != nil {
			if out := reencode(); !bytes.Equal(out, data) {
				t.Fatalf("%s: accepted %x but re-encodes to %x", dec.name, data, out)
			}
		}
	})
}
