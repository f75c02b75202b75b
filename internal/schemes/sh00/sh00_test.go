package sh00

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"math/big"
	"testing"
	"time"

	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

func deal(t *testing.T, bits, tt, n int) (*PublicKey, []KeyShare) {
	t.Helper()
	pk, ks, err := FixedTestKey(rand.Reader, bits, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	return pk, ks
}

func TestSignCombineVerify(t *testing.T) {
	for _, bits := range []int{512, 1024} {
		pk, ks := deal(t, bits, 1, 4)
		msg := []byte("certificate request")
		var shares []*SigShare
		for _, k := range []KeyShare{ks[0], ks[2]} {
			ss, err := SignShare(rand.Reader, pk, k, msg)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyShare(pk, msg, ss); err != nil {
				t.Fatalf("bits=%d: valid share %d rejected: %v", bits, ss.Index, err)
			}
			shares = append(shares, ss)
		}
		sig, err := Combine(pk, msg, shares)
		if err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if err := Verify(pk, msg, sig); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
		if err := Verify(pk, []byte("other"), sig); err == nil {
			t.Fatal("signature verified for wrong message")
		}
	}
}

func TestSignatureMatchesPlainRSA(t *testing.T) {
	// The combined signature is an ordinary RSA signature: y^e == H(m).
	pk, ks := deal(t, 512, 1, 3)
	msg := []byte("interop")
	var shares []*SigShare
	for _, k := range ks[:2] {
		ss, _ := SignShare(rand.Reader, pk, k, msg)
		shares = append(shares, ss)
	}
	sig, err := Combine(pk, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if new(big.Int).Exp(sig.Y, pk.E, pk.N).Cmp(digest(pk, msg)) != 0 {
		t.Fatal("combined signature is not a plain RSA signature")
	}
}

func TestAnyQuorumSameSignature(t *testing.T) {
	// RSA signatures are unique, so any quorum combines to the same y.
	pk, ks := deal(t, 512, 2, 7)
	msg := []byte("uniqueness")
	combineWith := func(idxs []int) *Signature {
		var shares []*SigShare
		for _, i := range idxs {
			ss, err := SignShare(rand.Reader, pk, ks[i], msg)
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, ss)
		}
		sig, err := Combine(pk, msg, shares)
		if err != nil {
			t.Fatal(err)
		}
		return sig
	}
	s1 := combineWith([]int{0, 1, 2})
	s2 := combineWith([]int{4, 5, 6})
	if s1.Y.Cmp(s2.Y) != 0 {
		t.Fatal("different quorums produced different RSA signatures")
	}
}

func TestForgedShareRejected(t *testing.T) {
	pk, ks := deal(t, 512, 1, 4)
	msg := []byte("m")
	ss, _ := SignShare(rand.Reader, pk, ks[0], msg)

	mutations := map[string]func(*SigShare){
		"xi":    func(s *SigShare) { s.Xi = new(big.Int).Add(s.Xi, big.NewInt(1)) },
		"c":     func(s *SigShare) { s.C = new(big.Int).Add(s.C, big.NewInt(1)) },
		"z":     func(s *SigShare) { s.Z = new(big.Int).Add(s.Z, big.NewInt(1)) },
		"index": func(s *SigShare) { s.Index = 2 },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			clone, err := UnmarshalSigShare(ss.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			mutate(clone)
			if err := VerifyShare(pk, msg, clone); !errors.Is(err, ErrInvalidShare) {
				t.Fatal("tampered share accepted")
			}
		})
	}
	if err := VerifyShare(pk, []byte("other"), ss); err == nil {
		t.Fatal("share verified for wrong message")
	}
	oob := *ss
	oob.Index = 9
	if err := VerifyShare(pk, msg, &oob); !errors.Is(err, ErrInvalidShare) {
		t.Fatal("out-of-range index accepted")
	}
}

func TestCombineQuorumRules(t *testing.T) {
	pk, ks := deal(t, 512, 2, 5)
	msg := []byte("m")
	s0, _ := SignShare(rand.Reader, pk, ks[0], msg)
	s1, _ := SignShare(rand.Reader, pk, ks[1], msg)
	if _, err := Combine(pk, msg, []*SigShare{s0, s1}); !errors.Is(err, share.ErrNotEnoughShares) {
		t.Fatalf("want ErrNotEnoughShares, got %v", err)
	}
	if _, err := Combine(pk, msg, []*SigShare{s0, s0, s1}); err == nil {
		t.Fatal("duplicate shares satisfied the quorum")
	}
}

func TestCombineDetectsBadQuorum(t *testing.T) {
	pk, ks := deal(t, 512, 1, 4)
	msg := []byte("m")
	good, _ := SignShare(rand.Reader, pk, ks[0], msg)
	bad, _ := SignShare(rand.Reader, pk, ks[1], msg)
	bad.Xi = mathutilMul(bad.Xi, big.NewInt(2), pk.N)
	if _, err := Combine(pk, msg, []*SigShare{good, bad}); err == nil {
		t.Fatal("corrupted quorum produced a verifying signature")
	}
}

func mathutilMul(a, b, m *big.Int) *big.Int {
	return new(big.Int).Mod(new(big.Int).Mul(a, b), m)
}

func TestGenerateKeySmall(t *testing.T) {
	// Full key generation exercised at a small, fast modulus size.
	pk, ks, err := GenerateKey(rand.Reader, 256, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("fresh key")
	var shares []*SigShare
	for _, k := range ks[:2] {
		ss, err := SignShare(rand.Reader, pk, k, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyShare(pk, msg, ss); err != nil {
			t.Fatal(err)
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
}

func TestFixtureErrors(t *testing.T) {
	if _, _, err := FixedTestKey(rand.Reader, 768, 1, 3); err == nil {
		t.Fatal("unknown fixture size accepted")
	}
	if _, _, err := FixedTestKey(rand.Reader, 512, 4, 4); err == nil {
		t.Fatal("bad threshold accepted")
	}
}

// TestDecodersRefuseTrailingBytes: a signature share encoded by an
// earlier release (512-bit fixture key, party 2) still decodes and
// re-encodes to the same bytes, and is refused with one trailing byte
// appended, a negative value or a zero-padded one; so is a fresh
// signature.
func TestDecodersRefuseTrailingBytes(t *testing.T) {
	old, err := hex.DecodeString(goldenShare)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := UnmarshalSigShare(old)
	if err != nil {
		t.Fatalf("earlier release's share rejected: %v", err)
	}
	if ss.Index != 2 || !bytes.Equal(ss.Marshal(), old) {
		t.Fatalf("decoded index %d, re-encodes to %x", ss.Index, ss.Marshal())
	}
	if _, err := UnmarshalSigShare(append(old, 0)); err == nil {
		t.Fatal("share with a trailing byte accepted")
	}

	pk, ks := deal(t, 512, 1, 3)
	msg := []byte("trailing")
	var shares []*SigShare
	for _, k := range ks[:2] {
		s, err := SignShare(rand.Reader, pk, k, msg)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, s)
	}
	sig, err := Combine(pk, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalSignature(append(sig.Marshal(), 0)); err == nil {
		t.Fatal("signature with a trailing byte accepted")
	}

	// Each value has one encoding: sign byte 0 and no leading zero.
	// A negative value or a zero-padded magnitude is refused.
	for name, enc := range map[string]func(*big.Int) []byte{
		"negative":     func(v *big.Int) []byte { return append([]byte{1}, v.Bytes()...) },
		"leading zero": func(v *big.Int) []byte { return append([]byte{0, 0}, v.Bytes()...) },
	} {
		vs := []*big.Int{ss.Xi, ss.C, ss.Z}
		for field := range vs {
			vals := make([][]byte, len(vs))
			for i, v := range vs {
				vals[i] = append([]byte{0}, v.Bytes()...)
			}
			vals[field] = enc(vs[field])
			data := wire.NewWriter().Int(ss.Index).Bytes(vals[0]).Bytes(vals[1]).Bytes(vals[2]).Out()
			if _, err := UnmarshalSigShare(data); err == nil {
				t.Errorf("share with a %s field %d accepted", name, field)
			}
		}
		if _, err := UnmarshalSignature(wire.NewWriter().Bytes(enc(sig.Y)).Out()); err == nil {
			t.Errorf("signature with a %s Y accepted", name)
		}
	}
}

// TestVerifyShareBoundsExponents: a share whose Z or C is longer than
// any honest share's is refused before any exponentiation. Unbounded,
// Z + 2^(2^20) on a 2048-bit key costs seconds to refuse.
func TestVerifyShareBoundsExponents(t *testing.T) {
	pk, ks := deal(t, 2048, 1, 3)
	msg := []byte("bounded")
	ss, err := SignShare(rand.Reader, pk, ks[0], msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyShare(pk, msg, ss); err != nil {
		t.Fatalf("valid share rejected: %v", err)
	}
	huge := new(big.Int).Lsh(big.NewInt(1), 1<<20)
	bigZ := *ss
	bigZ.Z = new(big.Int).Add(ss.Z, huge)
	bigC := *ss
	bigC.C = new(big.Int).Add(ss.C, huge)
	for name, bad := range map[string]*SigShare{"oversize Z": &bigZ, "oversize C": &bigC} {
		start := time.Now()
		err := VerifyShare(pk, msg, bad)
		if !errors.Is(err, ErrInvalidShare) {
			t.Fatalf("%s: got %v, want ErrInvalidShare", name, err)
		}
		if d := time.Since(start); d > 500*time.Millisecond {
			t.Fatalf("%s: refused after %v", name, d)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	pk, ks := deal(t, 512, 1, 3)
	msg := []byte("wire")
	ss, _ := SignShare(rand.Reader, pk, ks[0], msg)
	ss2, err := UnmarshalSigShare(ss.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyShare(pk, msg, ss2); err != nil {
		t.Fatal("round-tripped share invalid")
	}
	other, _ := SignShare(rand.Reader, pk, ks[1], msg)
	sig, err := Combine(pk, msg, []*SigShare{ss2, other})
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := UnmarshalSignature(sig.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pk, msg, sig2); err != nil {
		t.Fatal("round-tripped signature invalid")
	}
	if _, err := UnmarshalSigShare([]byte("junk")); err == nil {
		t.Fatal("junk share decoded")
	}
}

func TestDigestDeterministicAndFullDomain(t *testing.T) {
	pk, _ := deal(t, 512, 1, 3)
	d1 := digest(pk, []byte("a"))
	d2 := digest(pk, []byte("a"))
	d3 := digest(pk, []byte("b"))
	if d1.Cmp(d2) != 0 {
		t.Fatal("digest not deterministic")
	}
	if d1.Cmp(d3) == 0 {
		t.Fatal("distinct messages collide")
	}
	if d1.Cmp(pk.N) >= 0 || d1.Sign() < 0 {
		t.Fatal("digest out of range")
	}
}
