package sg02

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
)

func deal(t *testing.T, g group.Group, tt, n int) (*PublicKey, []KeyShare) {
	t.Helper()
	pk, ks, err := share.Deal(rand.Reader, g, tt, n)
	if err != nil {
		t.Fatal(err)
	}
	return pk, ks
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			pk, ks := deal(t, g, 2, 5)
			msg := []byte("the quick brown fox")
			label := []byte("tx-42")
			ct, err := Encrypt(rand.Reader, pk, msg, label)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyCiphertext(pk, ct); err != nil {
				t.Fatalf("fresh ciphertext rejected: %v", err)
			}
			var shares []*DecShare
			for _, k := range []KeyShare{ks[0], ks[2], ks[4]} {
				ds, err := DecryptShare(rand.Reader, pk, k, ct)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyShare(pk, ct, ds); err != nil {
					t.Fatalf("valid share %d rejected: %v", ds.Index, err)
				}
				shares = append(shares, ds)
			}
			got, err := Combine(pk, ct, shares)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("decrypted %q, want %q", got, msg)
			}
		})
	}
}

func TestAnyQuorumDecrypts(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 2, 7)
	msg := []byte("quorum independence")
	ct, _ := Encrypt(rand.Reader, pk, msg, nil)
	for _, subset := range [][]int{{0, 1, 2}, {4, 5, 6}, {0, 3, 6}} {
		var shares []*DecShare
		for _, i := range subset {
			ds, err := DecryptShare(rand.Reader, pk, ks[i], ct)
			if err != nil {
				t.Fatal(err)
			}
			shares = append(shares, ds)
		}
		got, err := Combine(pk, ct, shares)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("subset %v failed: %v", subset, err)
		}
	}
}

func TestTamperedCiphertextRejected(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 4)
	ct, _ := Encrypt(rand.Reader, pk, []byte("secret"), []byte("L"))

	mutations := map[string]func(*Ciphertext){
		"enckey":  func(c *Ciphertext) { c.EncKey[0] ^= 1 },
		"label":   func(c *Ciphertext) { c.Label = []byte("other") },
		"e":       func(c *Ciphertext) { c.E = new(big.Int).Add(c.E, big.NewInt(1)) },
		"f":       func(c *Ciphertext) { c.F = new(big.Int).Add(c.F, big.NewInt(1)) },
		"u":       func(c *Ciphertext) { c.U = g.Generator() },
		"uBarNil": func(c *Ciphertext) { c.UBar = nil },
	}
	for name, mutate := range mutations {
		t.Run(name, func(t *testing.T) {
			clone, err := UnmarshalCiphertext(g, ct.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			mutate(clone)
			if err := VerifyCiphertext(pk, clone); err == nil {
				t.Fatal("tampered ciphertext accepted")
			}
			if _, err := DecryptShare(rand.Reader, pk, ks[0], clone); err == nil {
				t.Fatal("decrypt share produced for tampered ciphertext")
			}
		})
	}
	// Payload tampering is not covered by the validity proof but must be
	// caught by the AEAD at combine time.
	clone, _ := UnmarshalCiphertext(g, ct.Marshal())
	clone.Payload[len(clone.Payload)-1] ^= 1
	var shares []*DecShare
	for _, k := range ks[:2] {
		ds, err := DecryptShare(rand.Reader, pk, k, clone)
		if err != nil {
			t.Fatal(err)
		}
		shares = append(shares, ds)
	}
	if _, err := Combine(pk, clone, shares); err == nil {
		t.Fatal("tampered payload decrypted successfully")
	}
}

func TestForgedShareRejected(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 4)
	ct, _ := Encrypt(rand.Reader, pk, []byte("m"), nil)
	ds, _ := DecryptShare(rand.Reader, pk, ks[0], ct)

	wrongPoint := *ds
	wrongPoint.U = g.Generator()
	if err := VerifyShare(pk, ct, &wrongPoint); err == nil {
		t.Fatal("share with wrong point accepted")
	}
	wrongIndex := *ds
	wrongIndex.Index = 2
	if err := VerifyShare(pk, ct, &wrongIndex); err == nil {
		t.Fatal("share with wrong index accepted")
	}
	outOfRange := *ds
	outOfRange.Index = 9
	if !errors.Is(VerifyShare(pk, ct, &outOfRange), ErrInvalidShare) {
		t.Fatal("out-of-range index not rejected")
	}
	// A share for a different ciphertext must not verify (transcript
	// binding).
	ct2, _ := Encrypt(rand.Reader, pk, []byte("m"), nil)
	if err := VerifyShare(pk, ct2, ds); err == nil {
		t.Fatal("share replayed across ciphertexts")
	}
}

func TestCombineTooFewShares(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 2, 5)
	ct, _ := Encrypt(rand.Reader, pk, []byte("m"), nil)
	ds, _ := DecryptShare(rand.Reader, pk, ks[0], ct)
	if _, err := Combine(pk, ct, []*DecShare{ds}); !errors.Is(err, share.ErrNotEnoughShares) {
		t.Fatalf("want ErrNotEnoughShares, got %v", err)
	}
	// Duplicate shares must not count towards the quorum.
	ds2, _ := DecryptShare(rand.Reader, pk, ks[1], ct)
	if _, err := Combine(pk, ct, []*DecShare{ds, ds, ds2}); err == nil {
		t.Fatal("duplicate shares satisfied the quorum")
	}
}

func TestCorruptQuorumCannotDecrypt(t *testing.T) {
	// A wrong share that somehow reaches Combine produces garbage that
	// the AEAD rejects (result verification).
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 4)
	msg := []byte("m")
	ct, _ := Encrypt(rand.Reader, pk, msg, nil)
	good, _ := DecryptShare(rand.Reader, pk, ks[0], ct)
	bad, _ := DecryptShare(rand.Reader, pk, ks[1], ct)
	bad.U = bad.U.Add(g.Generator()) // corrupt after proof generation
	if _, err := Combine(pk, ct, []*DecShare{good, bad}); err == nil {
		t.Fatal("corrupted quorum still decrypted")
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 4)
	ct, _ := Encrypt(rand.Reader, pk, []byte("roundtrip"), []byte("L"))
	ct2, err := UnmarshalCiphertext(g, ct.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyCiphertext(pk, ct2); err != nil {
		t.Fatalf("round-tripped ciphertext invalid: %v", err)
	}
	ds, _ := DecryptShare(rand.Reader, pk, ks[0], ct2)
	ds2, err := UnmarshalDecShare(g, ds.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyShare(pk, ct2, ds2); err != nil {
		t.Fatalf("round-tripped share invalid: %v", err)
	}
	if _, err := UnmarshalCiphertext(g, []byte("junk")); err == nil {
		t.Fatal("junk ciphertext decoded")
	}
	if _, err := UnmarshalDecShare(g, []byte{1, 2, 3}); err == nil {
		t.Fatal("junk share decoded")
	}
}

func TestDealParamValidation(t *testing.T) {
	g := group.Edwards25519()
	if _, _, err := share.Deal(rand.Reader, g, 5, 5); err == nil {
		t.Fatal("t+1 > n accepted")
	}
	if _, _, err := share.Deal(rand.Reader, g, -1, 3); err == nil {
		t.Fatal("negative t accepted")
	}
}

func TestEmptyAndLargeMessages(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 3)
	for _, size := range []int{0, 1, 4096} {
		msg := bytes.Repeat([]byte{0xab}, size)
		ct, err := Encrypt(rand.Reader, pk, msg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var shares []*DecShare
		for _, k := range ks[:2] {
			ds, _ := DecryptShare(rand.Reader, pk, k, ct)
			shares = append(shares, ds)
		}
		got, err := Combine(pk, ct, shares)
		if err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("size %d round trip failed: %v", size, err)
		}
	}
}
