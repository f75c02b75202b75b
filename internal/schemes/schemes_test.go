package schemes

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"
)

func TestRegistryCoversAllSix(t *testing.T) {
	all := All()
	if len(all) != 6 {
		t.Fatalf("registry has %d entries", len(all))
	}
	for _, id := range all {
		info, err := Lookup(id)
		if err != nil || info.ID != id {
			t.Fatalf("Lookup(%s) = %+v, %v", id, info, err)
		}
	}
	if _, err := Lookup("XX99"); !errors.Is(err, ErrUnknown) {
		t.Fatalf("unknown scheme: %v, want ErrUnknown", err)
	}
	all[0] = "XX99"
	if All()[0] == "XX99" {
		t.Fatal("All() shares the registry with its caller")
	}
}

func TestHybridSealOpen(t *testing.T) {
	key, err := NewDEK(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("payload under the DEK")
	label := []byte("assoc")
	sealed, err := SealPayload(rand.Reader, key, msg, label)
	if err != nil {
		t.Fatal(err)
	}
	got, err := OpenPayload(key, sealed, label)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round trip mismatch")
	}
}

func TestHybridAuthFailures(t *testing.T) {
	key, _ := NewDEK(rand.Reader)
	sealed, _ := SealPayload(rand.Reader, key, []byte("m"), []byte("L"))

	// Wrong key.
	other, _ := NewDEK(rand.Reader)
	if _, err := OpenPayload(other, sealed, []byte("L")); err == nil {
		t.Fatal("wrong key accepted")
	}
	// Wrong label (associated data).
	if _, err := OpenPayload(key, sealed, []byte("M")); err == nil {
		t.Fatal("wrong label accepted")
	}
	// Flipped ciphertext bit.
	bad := append([]byte(nil), sealed...)
	bad[len(bad)-1] ^= 1
	if _, err := OpenPayload(key, bad, []byte("L")); err == nil {
		t.Fatal("tampered payload accepted")
	}
	// Truncated.
	if _, err := OpenPayload(key, sealed[:4], []byte("L")); err == nil {
		t.Fatal("truncated payload accepted")
	}
	// Bad key sizes.
	if _, err := SealPayload(rand.Reader, key[:7], []byte("m"), nil); err == nil {
		t.Fatal("short key accepted")
	}
}

func TestXORBytes(t *testing.T) {
	a := []byte{0xff, 0x00, 0xaa}
	b := []byte{0x0f, 0xf0, 0x55}
	out, err := XORBytes(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, []byte{0xf0, 0xf0, 0xff}) {
		t.Fatalf("xor = %x", out)
	}
	again, _ := XORBytes(out, b)
	if !bytes.Equal(again, a) {
		t.Fatal("xor not involutive")
	}
	if _, err := XORBytes(a, b[:2]); err == nil {
		t.Fatal("length mismatch accepted")
	}
}
