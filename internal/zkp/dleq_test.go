package zkp

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"math/big"
	"testing"

	"thetacrypt/internal/group"
)

// dleqInstance builds a valid DLEQ statement h1 = x*g1, h2 = x*g2 and a
// proof for it.
func dleqInstance(t *testing.T, g group.Group, transcript ...[]byte) (g1, h1, g2, h2 group.Point, proof *DLEQProof) {
	t.Helper()
	x, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	g1 = g.Generator()
	g2 = g.HashToPoint("dleq-test/g2", []byte("base"))
	h1 = g1.Mul(x)
	h2 = g2.Mul(x)
	proof, err = ProveDLEQ(rand.Reader, g, "test", g1, h1, g2, h2, x, transcript...)
	if err != nil {
		t.Fatal(err)
	}
	return
}

func TestDLEQRoundTrip(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			g1, h1, g2, h2, proof := dleqInstance(t, g)
			if !VerifyDLEQ(g, "test", g1, h1, g2, h2, proof) {
				t.Fatal("valid proof rejected")
			}
			// Wrong statement: h2 replaced by an unrelated point.
			if VerifyDLEQ(g, "test", g1, h1, g2, g2, proof) {
				t.Fatal("proof accepted for a statement it does not prove")
			}
			// Wrong domain.
			if VerifyDLEQ(g, "other", g1, h1, g2, h2, proof) {
				t.Fatal("proof accepted under a different domain")
			}
		})
	}
}

func TestDLEQTranscriptBinding(t *testing.T) {
	g := group.Edwards25519()
	g1, h1, g2, h2, proof := dleqInstance(t, g, []byte("ciphertext-A"))
	if !VerifyDLEQ(g, "test", g1, h1, g2, h2, proof, []byte("ciphertext-A")) {
		t.Fatal("valid proof rejected with its own transcript")
	}
	if VerifyDLEQ(g, "test", g1, h1, g2, h2, proof, []byte("ciphertext-B")) {
		t.Fatal("proof replayed under a different transcript")
	}
	if VerifyDLEQ(g, "test", g1, h1, g2, h2, proof) {
		t.Fatal("proof accepted with the transcript stripped")
	}
}

func TestDLEQRelationsEquivalentToVerify(t *testing.T) {
	g := group.Edwards25519()
	g1, h1, g2, h2, proof := dleqInstance(t, g)
	rels, err := DLEQRelations(g, "test", g1, h1, g2, h2, proof)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 2 {
		t.Fatalf("got %d relations, want 2", len(rels))
	}
	for i, r := range rels {
		if !r.Holds(g) {
			t.Fatalf("relation %d of a valid proof does not hold", i)
		}
	}
	// Tamper with the response: relations must break.
	bad := &DLEQProof{A1: proof.A1, A2: proof.A2, F: new(big.Int).Add(proof.F, big.NewInt(1))}
	rels, err = DLEQRelations(g, "test", g1, h1, g2, h2, bad)
	if err != nil {
		t.Fatal(err)
	}
	holds := 0
	for _, r := range rels {
		if r.Holds(g) {
			holds++
		}
	}
	if holds == len(rels) {
		t.Fatal("tampered proof still satisfies all relations")
	}
}

func TestDLEQMarshalRoundTrip(t *testing.T) {
	g := group.Edwards25519()
	g1, h1, g2, h2, proof := dleqInstance(t, g)
	enc := proof.Marshal()
	dec, err := UnmarshalDLEQ(g, enc)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.A1.Equal(proof.A1) || !dec.A2.Equal(proof.A2) || dec.F.Cmp(proof.F) != 0 {
		t.Fatal("decoded proof differs from original")
	}
	if !VerifyDLEQ(g, "test", g1, h1, g2, h2, dec) {
		t.Fatal("decoded proof does not verify")
	}
	if !bytes.Equal(dec.Marshal(), enc) {
		t.Fatal("re-encoding is not canonical")
	}
	// Truncated and garbage inputs are rejected, not panics.
	if _, err := UnmarshalDLEQ(g, enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated encoding accepted")
	}
	if _, err := UnmarshalDLEQ(g, nil); err == nil {
		t.Fatal("empty encoding accepted")
	}
}

func TestDLEQRejectsMalformedProof(t *testing.T) {
	g := group.Edwards25519()
	g1, h1, g2, h2, proof := dleqInstance(t, g)
	cases := map[string]*DLEQProof{
		"nil proof": nil,
		"nil F":     {A1: proof.A1, A2: proof.A2},
		"nil A1":    {A2: proof.A2, F: proof.F},
		"F >= order": {A1: proof.A1, A2: proof.A2,
			F: new(big.Int).Add(proof.F, g.Order())},
		"negative F": {A1: proof.A1, A2: proof.A2,
			F: new(big.Int).Neg(proof.F)},
	}
	for name, p := range cases {
		if VerifyDLEQ(g, "test", g1, h1, g2, h2, p) {
			t.Fatalf("%s accepted", name)
		}
	}
}

// streamReader is a deterministic randomness source: SHA-256 of a seed
// and a counter, so two readers with one seed yield the same nonces.
type streamReader struct {
	seed []byte
	ctr  uint64
	buf  []byte
}

func (r *streamReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			h := sha256.New()
			h.Write(r.seed)
			h.Write(binary.BigEndian.AppendUint64(nil, r.ctr))
			r.ctr++
			r.buf = h.Sum(nil)
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// TestProveDLEQBaseMulPath: proofs verify whether or not g1 is the
// generator — spelled Generator(), reached by arithmetic, or a hashed
// point — on both groups, and the fixed-base path commits to the same
// A1 = s*g1 the variable-base multiplication gives for the same nonce,
// so the proof bytes do not depend on which path ran.
func TestProveDLEQBaseMulPath(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		bases := map[string]group.Point{
			"generator":            g.Generator(),
			"generator-arithmetic": g.BaseMul(big.NewInt(2)).Add(g.Generator().Neg()),
			"hashed":               g.HashToPoint("dleq-test/g1", []byte("not the generator")),
		}
		for name, g1 := range bases {
			t.Run(g.Name()+"/"+name, func(t *testing.T) {
				x, err := g.RandomScalar(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				g2 := g.HashToPoint("dleq-test/g2", []byte("base"))
				h1, h2 := g1.Mul(x), g2.Mul(x)
				seed := []byte(g.Name() + name)
				proof, err := ProveDLEQ(&streamReader{seed: seed}, g, "test", g1, h1, g2, h2, x, []byte("ct"))
				if err != nil {
					t.Fatal(err)
				}
				if !VerifyDLEQ(g, "test", g1, h1, g2, h2, proof, []byte("ct")) {
					t.Fatal("valid proof rejected")
				}
				if VerifyDLEQ(g, "test", g1, h2, g2, h1, proof, []byte("ct")) {
					t.Fatal("proof accepted for swapped statement")
				}
				// The same nonce through Point.Mul, as every commitment
				// was computed before the fixed-base path existed.
				s, err := g.RandomScalar(&streamReader{seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				e := challenge(g, "test", g1, h1, g2, h2, g1.Mul(s), g2.Mul(s), [][]byte{[]byte("ct")})
				want := &DLEQProof{A1: g1.Mul(s), A2: g2.Mul(s),
					F: new(big.Int).Mod(new(big.Int).Add(s, new(big.Int).Mul(x, e)), g.Order())}
				if !bytes.Equal(proof.Marshal(), want.Marshal()) {
					t.Fatalf("proof bytes differ from the variable-base computation:\n got %x\nwant %x", proof.Marshal(), want.Marshal())
				}
			})
		}
	}
}
