package identity

import (
	"bytes"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

func TestKeyRoundTrip(t *testing.T) {
	k, err := Generate(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "node3.identity")
	if err := k.Save(path); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := fi.Mode().Perm(); perm != 0o600 {
		t.Fatalf("identity file mode %o, want 600", perm)
	}
	got, err := LoadKey(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != 3 {
		t.Fatalf("node = %d, want 3", got.Node)
	}
	if !got.Sign.Equal(k.Sign) {
		t.Fatal("sign key did not round-trip")
	}
	if !got.Box.Equal(k.Box) {
		t.Fatal("box key did not round-trip")
	}
}

// TestGenerateMesh: keys[i] speaks for node i+1 and proves exactly its
// roster entry, and no two nodes share a key.
func TestGenerateMesh(t *testing.T) {
	keys, roster, err := GenerateMesh(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 3 || len(roster) != 3 {
		t.Fatalf("%d keys and %d roster entries, want 3 and 3", len(keys), len(roster))
	}
	for i, k := range keys {
		pub, err := roster.Lookup(i + 1)
		if err != nil || k.Node != i+1 || !pub.Sign.Equal(k.Public().Sign) || !pub.Box.Equal(k.Public().Box) {
			t.Fatalf("key %d (node %d) does not prove roster entry %d: %v", i, k.Node, i+1, err)
		}
	}
	if keys[0].Sign.Equal(keys[1].Sign) {
		t.Fatal("two nodes share a signing key")
	}
}

func TestLoadKeyRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"missing":  "", // never written
		"garbage":  "not json",
		"version":  `{"version":9,"node":1,"sign":"00","box":"00"}`,
		"badsign":  `{"version":1,"node":1,"sign":"zz","box":"00"}`,
		"badnode":  `{"version":1,"node":0,"sign":"` + hex64() + `","box":"` + hex64() + `"}`,
		"shortbox": `{"version":1,"node":1,"sign":"` + hex64() + `","box":"00"}`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if content != "" {
			if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := LoadKey(path); err == nil {
			t.Errorf("LoadKey(%s) accepted a bad file", name)
		}
	}
}

// hex64 returns 32 zero bytes in hex — a structurally valid scalar.
func hex64() string {
	return "0000000000000000000000000000000000000000000000000000000000000001"
}

func TestRosterRoundTrip(t *testing.T) {
	r := make(Roster)
	for i := 1; i <= 4; i++ {
		k, err := Generate(rand.Reader, i)
		if err != nil {
			t.Fatal(err)
		}
		r[i] = k.Public()
	}
	path := filepath.Join(t.TempDir(), "roster.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRoster(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(r) {
		t.Fatalf("roster size %d, want %d", len(got), len(r))
	}
	for i, p := range r {
		gp, err := got.Lookup(i)
		if err != nil {
			t.Fatal(err)
		}
		if !gp.Sign.Equal(p.Sign) || !gp.Box.Equal(p.Box) {
			t.Fatalf("node %d identity did not round-trip", i)
		}
	}
	if _, err := got.Lookup(99); err == nil {
		t.Fatal("Lookup(99) found an unrostered node")
	}
	nodes := got.Nodes()
	for i, n := range nodes {
		if n != i+1 {
			t.Fatalf("Nodes() = %v, want 1..4 ascending", nodes)
		}
	}
}

// TestParseRosterCanonicalIndex: a roster key is a node index only in
// its canonical decimal spelling. Earlier releases read "01", "+1",
// " 1", "1x" and "1 2" all as node 1, so two spellings of one node in
// one roster collapsed and map order picked the surviving key.
func TestParseRosterCanonicalIndex(t *testing.T) {
	k, err := Generate(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	pj := MarshalPublic(k.Public())
	for _, tc := range []struct {
		key string
		ok  bool
	}{
		{"1", true}, {"12", true},
		{"01", false}, {"+1", false}, {" 1", false}, {"1x", false}, {"1 2", false},
		{"0", false}, {"-1", false}, {"", false},
	} {
		r, err := ParseRoster(map[string]PublicJSON{tc.key: pj})
		if (err == nil) != tc.ok {
			t.Errorf("roster key %q: err = %v, want accepted %v", tc.key, err, tc.ok)
		}
		if tc.ok && len(r) != 1 {
			t.Errorf("roster key %q: %d entries", tc.key, len(r))
		}
	}
	if _, err := ParseRoster(map[string]PublicJSON{"1": pj, "01": pj}); err == nil {
		t.Error("a roster naming node 1 twice loaded")
	}
}

func TestSealOpen(t *testing.T) {
	alice, _ := Generate(rand.Reader, 1)
	bob, _ := Generate(rand.Reader, 2)
	ctx := []byte("dkg/conf-genkey/dealer=1/to=2")
	msg := []byte("the sub-share")

	box, err := Seal(rand.Reader, bob.Public(), ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(box, msg) {
		t.Fatal("sealed box contains the plaintext")
	}
	got, err := bob.Open(ctx, box)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("opened %q, want %q", got, msg)
	}

	// Wrong recipient, wrong context, and tampering all fail closed.
	if _, err := alice.Open(ctx, box); err == nil {
		t.Fatal("wrong recipient opened the box")
	}
	if _, err := bob.Open([]byte("other context"), box); err == nil {
		t.Fatal("wrong context opened the box")
	}
	flipped := bytes.Clone(box)
	flipped[len(flipped)-1] ^= 1
	if _, err := bob.Open(ctx, flipped); err == nil {
		t.Fatal("tampered box opened")
	}
	if _, err := bob.Open(ctx, box[:boxOverhead-1]); err == nil {
		t.Fatal("truncated box opened")
	}
}

// TestHKDFVector pins the expansion against RFC 5869 test case 1, so
// the hand-rolled derivation cannot drift from the standard.
func TestHKDFVector(t *testing.T) {
	ikm := bytes.Repeat([]byte{0x0b}, 22)
	salt := []byte{0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c}
	info := []byte{0xf0, 0xf1, 0xf2, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0xf9}
	want := "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
	got := HKDF(ikm, salt, info, 42)
	if len(got) != 42 {
		t.Fatalf("len = %d, want 42", len(got))
	}
	if gotHex := hexEncode(got); gotHex != want {
		t.Fatalf("HKDF = %s, want %s", gotHex, want)
	}
	// A nil salt must behave as the RFC's zero-filled default.
	zero := make([]byte, sha256.Size)
	a := HKDF([]byte("secret"), nil, []byte("info"), 32)
	b := HKDF([]byte("secret"), zero, []byte("info"), 32)
	if !hmac.Equal(a, b) {
		t.Fatal("nil salt differs from zero-filled salt")
	}
}

func hexEncode(b []byte) string {
	const digits = "0123456789abcdef"
	out := make([]byte, 0, 2*len(b))
	for _, c := range b {
		out = append(out, digits[c>>4], digits[c&0xf])
	}
	return string(out)
}

// TestIdentityFilesAreStrict: encoding/json matches field names
// case-insensitively and keeps the last of a repeated name, so a key
// file holding both "node":1 and "Node":2 used to load as node 2. Both
// readers now accept exactly the declared names, each at most once.
func TestIdentityFilesAreStrict(t *testing.T) {
	k, err := Generate(rand.Reader, 1)
	if err != nil {
		t.Fatal(err)
	}
	pj := MarshalPublic(k.Public())
	sign, box := hex.EncodeToString(k.Sign.Seed()), hex.EncodeToString(k.Box.Bytes())
	keyBody := `"sign":"` + sign + `","box":"` + box + `"`
	peer := `{"sign":"` + pj.Sign + `","box":"` + pj.Box + `"}`
	dir := t.TempDir()
	for _, tc := range []struct {
		name   string
		roster bool
		file   string
		ok     bool
	}{
		{"key", false, `{"version":1,"node":1,` + keyBody + `}`, true},
		{"key node twice", false, `{"version":1,"node":1,"node":2,` + keyBody + `}`, false},
		{"key node and Node", false, `{"version":1,"node":1,"Node":2,` + keyBody + `}`, false},
		{"key Node alone", false, `{"version":1,"Node":1,` + keyBody + `}`, false},
		{"key unknown field", false, `{"version":1,"node":1,"extra":0,` + keyBody + `}`, false},
		{"roster", true, `{"version":1,"peers":{"1":` + peer + `}}`, true},
		{"roster VERSION", true, `{"VERSION":1,"peers":{"1":` + peer + `}}`, false},
		{"roster peers twice", true, `{"version":1,"peers":{"1":` + peer + `},"peers":{}}`, false},
		{"roster node twice", true, `{"version":1,"peers":{"1":` + peer + `,"1":` + peer + `}}`, false},
		{"roster peer Sign", true, `{"version":1,"peers":{"1":{"Sign":"` + pj.Sign + `","box":"` + pj.Box + `"}}}`, false},
		{"roster peer unknown field", true, `{"version":1,"peers":{"1":{"sign":"` + pj.Sign + `","box":"` + pj.Box + `","x":[{}]}}}`, false},
		{"roster unknown field", true, `{"version":1,"peers":{"1":` + peer + `},"extra":{"a":1}}`, false},
	} {
		path := filepath.Join(dir, "file")
		if err := os.WriteFile(path, []byte(tc.file), 0o600); err != nil {
			t.Fatal(err)
		}
		if tc.roster {
			_, err = LoadRoster(path)
		} else {
			_, err = LoadKey(path)
		}
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted %v", tc.name, err, tc.ok)
		}
	}
}
