package sg02

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"sync"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
)

// streamReader is a deterministic randomness source: SHA-256 of a seed
// and a counter.
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

func stream(label string) *streamReader { return &streamReader{seed: []byte(label)} }

// TestWireBytesUnchanged pins the bytes of a ciphertext and of all four
// parties' decryption shares (DLEQ proofs included) drawn from fixed
// randomness. The digests were taken from the code that computed the
// proof commitment with Point.Mul and hashed Ḡ on every call; equal
// digests mean nodes on either side of that change accept each other's
// shares and ciphertexts.
func TestWireBytesUnchanged(t *testing.T) {
	want := map[string]string{
		"edwards25519": "8e04d088a02e2150146f5efd741d04e8044b8f297d614811a9be2026872bbfef",
		"p256":         "0d815373fa86adbec3097a1a895bc3ed0b5bb2b9ed50f5fe6aa77c32aead7198",
	}
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			pk, ks, err := share.Deal(stream(g.Name()+"/deal"), g, 1, 4)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("fixed plaintext")
			ct, err := Encrypt(stream(g.Name()+"/encrypt"), pk, msg, []byte("label"))
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			h.Write(ct.Marshal())
			var dss []*DecShare
			for i := range ks {
				ds, err := DecryptShare(stream(g.Name()+"/share"), pk, ks[i], ct)
				if err != nil {
					t.Fatal(err)
				}
				h.Write(ds.Marshal())
				dss = append(dss, ds)
			}
			if got := hex.EncodeToString(h.Sum(nil)); got != want[g.Name()] {
				t.Fatalf("ciphertext and share bytes changed: digest %s, want %s", got, want[g.Name()])
			}
			out, err := Combine(pk, ct, dss[2:])
			if err != nil || !bytes.Equal(out, msg) {
				t.Fatalf("combine = %q, %v", out, err)
			}
		})
	}
}

// TestCombineVerifiedMatchesCombine: on a ciphertext that passed
// VerifyCiphertext, skipping the second check changes nothing — the same
// plaintext, the same quorum errors — and a wrong interpolation still
// fails at the AEAD tag.
func TestCombineVerifiedMatchesCombine(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			pk, ks := deal(t, g, 1, 4)
			msg := []byte("verified once")
			ct, err := Encrypt(rand.Reader, pk, msg, []byte("L"))
			if err != nil {
				t.Fatal(err)
			}
			var dss []*DecShare
			for _, k := range ks[:2] {
				ds, err := DecryptShare(rand.Reader, pk, k, ct)
				if err != nil {
					t.Fatal(err)
				}
				dss = append(dss, ds)
			}
			a, errA := Combine(pk, ct, dss)
			b, errB := CombineVerified(pk, ct, dss)
			if errA != nil || errB != nil || !bytes.Equal(a, msg) || !bytes.Equal(b, msg) {
				t.Fatalf("Combine = %q, %v; CombineVerified = %q, %v", a, errA, b, errB)
			}
			if _, err := CombineVerified(pk, ct, dss[:1]); err == nil {
				t.Fatal("one share combined at t=1")
			}
			// A share for a different point interpolates to the wrong
			// h^r: the AEAD tag rejects it.
			bad := *dss[1]
			bad.U = bad.U.Add(g.Generator())
			if _, err := CombineVerified(pk, ct, []*DecShare{dss[0], &bad}); err == nil {
				t.Fatal("wrong interpolation opened the payload")
			}
		})
	}
}

// TestGBarCachedAndShared: Ḡ comes from the per-group cache, equals the
// hash it stands for, and is safe to fetch from many goroutines while
// they encrypt and decrypt (run under -race).
func TestGBarCachedAndShared(t *testing.T) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		if !gBar(g).Equal(g.HashToPoint("sg02/gbar", []byte(g.Name()))) {
			t.Fatalf("%s: cached Ḡ differs from its hash", g.Name())
		}
	}
	g := group.P256()
	pk, ks := deal(t, g, 1, 4)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ct, err := Encrypt(rand.Reader, pk, []byte{byte(w)}, nil)
			if err != nil {
				errs <- err
				return
			}
			ds, err := DecryptShare(rand.Reader, pk, ks[w%4], ct)
			if err != nil {
				errs <- err
				return
			}
			if err := VerifyShare(pk, ct, ds); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := VerifyCiphertext(pk, &Ciphertext{}); !errors.Is(err, ErrInvalidCiphertext) {
		t.Fatalf("empty ciphertext: %v", err)
	}
}
