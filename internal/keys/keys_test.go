package keys

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/schemes/sh00"
)

func TestDealAllSchemes(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{RSABits: 512, UseRSAFixture: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 4 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	for i, nk := range nodes {
		if nk.Index != i+1 || nk.N != 4 || nk.T != 1 {
			t.Fatalf("node %d header wrong: %+v", i, nk)
		}
		for _, id := range schemes.All() {
			if !nk.Has(id) {
				t.Fatalf("node %d missing %s", i+1, id)
			}
			if _, err := nk.Get(id, ""); err != nil {
				t.Fatalf("node %d default key for %s: %v", i+1, id, err)
			}
		}
		if nk.Len() != len(schemes.All()) {
			t.Fatalf("node %d holds %d keys", i+1, nk.Len())
		}
	}
	// Shared public keys must be identical across nodes.
	pk0 := MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04)
	pk3 := MustPublic[*bls04.PublicKey](nodes[3], schemes.BLS04)
	if !pk0.Y.Equal(pk3.Y) {
		t.Fatal("BLS04 public keys differ across nodes")
	}
	// ...and so must the listed public bytes.
	l0, l3 := nodes[0].List(), nodes[3].List()
	for i := range l0 {
		if !bytes.Equal(l0[i].Public, l3[i].Public) {
			t.Fatalf("listed public material differs for %s/%s", l0[i].Scheme, l0[i].ID)
		}
	}
}

func TestDealSubsetAndNamedKeys(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{Schemes: []schemes.ID{schemes.CKS05}, KeyID: "beacon-1"})
	if err != nil {
		t.Fatal(err)
	}
	if nodes[0].Has(schemes.SG02) || !nodes[0].Has(schemes.CKS05) {
		t.Fatal("subset dealing wrong")
	}
	if _, err := nodes[0].Get(schemes.CKS05, "beacon-1"); err != nil {
		t.Fatal(err)
	}
	// The named key is not the default.
	if _, err := nodes[0].Get(schemes.CKS05, ""); err == nil {
		t.Fatal("default lookup found a non-default key")
	}
	if _, err := nodes[0].Get(schemes.SG02, "beacon-1"); err == nil {
		t.Fatal("missing scheme not reported")
	}
}

func TestKeystoreAddGetErrors(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{Schemes: []schemes.ID{schemes.CKS05}})
	if err != nil {
		t.Fatal(err)
	}
	ks := nodes[0]
	cur, _ := ks.Get(schemes.CKS05, "")
	dup := &Key{ID: DefaultKeyID, Scheme: schemes.CKS05, Public: cur.Public, Share: cur.Share}
	if err := ks.Add(dup); !errors.Is(err, ErrKeyExists) {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := ks.Add(&Key{ID: "bad id!", Scheme: schemes.CKS05, Public: cur.Public, Share: cur.Share}); !errors.Is(err, ErrKeyID) {
		t.Fatalf("bad id add: %v", err)
	}
	if _, err := ks.Get(schemes.CKS05, "nope"); !errors.Is(err, ErrKeyUnknown) {
		t.Fatalf("unknown get: %v", err)
	}
	other := &Key{ID: "second", Scheme: schemes.CKS05, Public: cur.Public, Share: cur.Share}
	if err := ks.Add(other); err != nil {
		t.Fatal(err)
	}
	if got, _ := ks.Get(schemes.CKS05, "second"); got != other {
		t.Fatal("named lookup returned wrong key")
	}
	list := ks.List()
	if len(list) != 2 || !list[0].Default || list[1].ID != "second" {
		t.Fatalf("listing wrong: %+v", list)
	}
}

func TestValidKeyID(t *testing.T) {
	for _, ok := range []string{"default", "k-0a1b2c", "A.B_c-9"} {
		if !ValidKeyID(ok) {
			t.Fatalf("%q rejected", ok)
		}
	}
	long := make([]byte, MaxKeyIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "has space", "sl/ash", string(long)} {
		if ValidKeyID(bad) {
			t.Fatalf("%q accepted", bad)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{RSABits: 512, UseRSAFixture: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, nk := range nodes {
		got, err := UnmarshalKeystore(nk.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		if got.Index != nk.Index || got.N != nk.N || got.T != nk.T {
			t.Fatal("header mismatch")
		}
		for _, id := range schemes.All() {
			if !got.Has(id) {
				t.Fatalf("round trip lost %s", id)
			}
		}
		if MustShare[sg02.KeyShare](got, schemes.SG02).Value.Cmp(MustShare[sg02.KeyShare](nk, schemes.SG02).Value) != 0 {
			t.Fatal("share mismatch")
		}
		if !MustPublic[*cks05.PublicKey](got, schemes.CKS05).Y.Equal(MustPublic[*cks05.PublicKey](nk, schemes.CKS05).Y) {
			t.Fatal("cks05 pubkey mismatch")
		}
	}
	if _, err := UnmarshalKeystore([]byte("garbage")); err == nil {
		t.Fatal("garbage key file accepted")
	}
}

func TestNamedKeysSurviveRoundTrip(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{Schemes: []schemes.ID{schemes.CKS05}, KeyID: "beacon-1"})
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := nodes[0].Get(schemes.CKS05, "beacon-1")
	if err := nodes[0].Add(&Key{ID: "beacon-2", Scheme: schemes.CKS05, Public: cur.Public, Share: cur.Share}); err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalKeystore(nodes[0].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("round trip kept %d keys", got.Len())
	}
	for _, id := range []string{"beacon-1", "beacon-2"} {
		if _, err := got.Get(schemes.CKS05, id); err != nil {
			t.Fatalf("lost %s: %v", id, err)
		}
	}
}

func TestRoundTrippedKeysStillWork(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 3, Options{RSABits: 512, UseRSAFixture: true})
	if err != nil {
		t.Fatal(err)
	}
	restored := make([]*Keystore, len(nodes))
	for i, nk := range nodes {
		r, err := UnmarshalKeystore(nk.Marshal())
		if err != nil {
			t.Fatal(err)
		}
		restored[i] = r
	}
	// BLS threshold signature with restored keys.
	msg := []byte("restored")
	var sss []*bls04.SigShare
	for _, nk := range restored[:2] {
		ss := bls04.SignShare(MustShare[bls04.KeyShare](nk, schemes.BLS04), msg)
		if err := bls04.VerifyShare(MustPublic[*bls04.PublicKey](nk, schemes.BLS04), msg, ss); err != nil {
			t.Fatal(err)
		}
		sss = append(sss, ss)
	}
	if _, err := bls04.Combine(MustPublic[*bls04.PublicKey](restored[0], schemes.BLS04), msg, sss); err != nil {
		t.Fatal(err)
	}
	// SH00 with restored keys (exercises the recomputed Delta).
	var rs []*sh00.SigShare
	for _, nk := range restored[:2] {
		pk := MustPublic[*sh00.PublicKey](nk, schemes.SH00)
		ss, err := sh00.SignShare(rand.Reader, pk, MustShare[sh00.KeyShare](nk, schemes.SH00), msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sh00.VerifyShare(pk, msg, ss); err != nil {
			t.Fatal(err)
		}
		rs = append(rs, ss)
	}
	if _, err := sh00.Combine(MustPublic[*sh00.PublicKey](restored[0], schemes.SH00), msg, rs); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKeystoreLookup measures the executor's hot-path resolution
// of a request's key material (CI bench smoke gates it).
func BenchmarkKeystoreLookup(b *testing.B) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{Schemes: []schemes.ID{schemes.CKS05}})
	if err != nil {
		b.Fatal(err)
	}
	ks := nodes[0]
	cur, _ := ks.Get(schemes.CKS05, "")
	for i := 0; i < 64; i++ {
		id := "k-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		if err := ks.Add(&Key{ID: id + "x", Scheme: schemes.CKS05, Public: cur.Public, Share: cur.Share}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ks.Get(schemes.CKS05, DefaultKeyID); err != nil {
			b.Fatal(err)
		}
	}
}
