package bls04

import (
	"crypto/rand"
	"errors"
	"testing"

	"thetacrypt/internal/pairing"
	"thetacrypt/internal/share"
)

func deal(t *testing.T, tt, n int) (*PublicKey, []KeyShare) {
	t.Helper()
	pk, ks, err := Deal(rand.Reader, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	return pk, ks
}

func TestSignCombineVerify(t *testing.T) {
	pk, ks := deal(t, 1, 4)
	msg := []byte("block #1337")
	var shares []*SigShare
	for _, k := range []KeyShare{ks[1], ks[3]} {
		ss := SignShare(k, msg)
		if err := VerifyShare(pk, msg, ss); err != nil {
			t.Fatalf("valid share %d rejected: %v", ss.Index, err)
		}
		shares = append(shares, ss)
	}
	sig, err := Combine(pk, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pk, msg, sig); err != nil {
		t.Fatal(err)
	}
	if err := Verify(pk, []byte("other message"), sig); err == nil {
		t.Fatal("signature verified for wrong message")
	}
}

func TestSignatureIsUniqueAcrossQuorums(t *testing.T) {
	// BLS signatures are unique: any quorum combines to the same point.
	pk, ks := deal(t, 2, 7)
	msg := []byte("determinism")
	combineWith := func(idxs []int) *Signature {
		var shares []*SigShare
		for _, i := range idxs {
			shares = append(shares, SignShare(ks[i], msg))
		}
		sig, err := Combine(pk, msg, shares)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	s1 := combineWith([]int{0, 1, 2})
	s2 := combineWith([]int{4, 5, 6})
	if !s1.S.Equal(s2.S) {
		t.Fatal("different quorums produced different signatures")
	}
}

func TestForgedShareRejected(t *testing.T) {
	pk, ks := deal(t, 1, 4)
	msg := []byte("m")
	ss := SignShare(ks[0], msg)

	wrongIndex := &SigShare{Index: 2, S: ss.S}
	if err := VerifyShare(pk, msg, wrongIndex); err == nil {
		t.Fatal("share attributed to wrong party accepted")
	}
	if err := VerifyShare(pk, []byte("other"), ss); err == nil {
		t.Fatal("share verified for wrong message")
	}
	forged := &SigShare{Index: 1, S: pairing.G1Generator()}
	if err := VerifyShare(pk, msg, forged); !errors.Is(err, ErrInvalidShare) {
		t.Fatal("forged share accepted")
	}
	oob := &SigShare{Index: 99, S: ss.S}
	if err := VerifyShare(pk, msg, oob); !errors.Is(err, ErrInvalidShare) {
		t.Fatal("out-of-range index accepted")
	}
}

func TestCombineQuorumRules(t *testing.T) {
	pk, ks := deal(t, 2, 5)
	msg := []byte("m")
	s0 := SignShare(ks[0], msg)
	s1 := SignShare(ks[1], msg)
	if _, err := Combine(pk, msg, []*SigShare{s0, s1}); !errors.Is(err, share.ErrNotEnoughShares) {
		t.Fatalf("want ErrNotEnoughShares, got %v", err)
	}
	if _, err := Combine(pk, msg, []*SigShare{s0, s0, s1}); err == nil {
		t.Fatal("duplicate shares satisfied the quorum")
	}
}

func TestCombineDetectsBadQuorum(t *testing.T) {
	// An unverified bad share reaching Combine is caught by the result
	// verification.
	pk, ks := deal(t, 1, 4)
	msg := []byte("m")
	good := SignShare(ks[0], msg)
	bad := SignShare(ks[1], msg)
	bad.S = bad.S.Add(pairing.G1Generator())
	if _, err := Combine(pk, msg, []*SigShare{good, bad}); err == nil {
		t.Fatal("corrupted quorum produced a verifying signature")
	}
}

func TestShareMarshalRoundTrip(t *testing.T) {
	pk, ks := deal(t, 1, 4)
	msg := []byte("wire")
	ss := SignShare(ks[2], msg)
	ss2, err := UnmarshalSigShare(ss.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyShare(pk, msg, ss2); err != nil {
		t.Fatalf("round-tripped share invalid: %v", err)
	}
	if _, err := UnmarshalSigShare([]byte("junk")); err == nil {
		t.Fatal("junk share decoded")
	}
	sig, _ := Combine(pk, msg, []*SigShare{SignShare(ks[0], msg), ss})
	sig2, err := UnmarshalSignature(sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pk, msg, sig2); err != nil {
		t.Fatalf("round-tripped signature invalid: %v", err)
	}
}

func TestKeyShareConsistency(t *testing.T) {
	// Reconstructing the secret from key shares yields the public key's
	// discrete log.
	pk, ks := deal(t, 1, 3)
	x, err := share.Reconstruct(ks[:2], 1, pairing.Order())
	if err != nil {
		t.Fatal(err)
	}
	if !pairing.G2BaseMul(x).Equal(pk.Y) {
		t.Fatal("reconstructed secret does not match public key")
	}
}
