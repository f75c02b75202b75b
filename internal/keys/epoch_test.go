package keys

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"crypto/rand"

	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/sg02"
)

func TestDealtKeysStartAtFirstEpoch(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{RSABits: 512, UseRSAFixture: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, info := range nodes[0].List() {
		if info.Epoch != FirstEpoch {
			t.Fatalf("dealt %s/%s at epoch %d, want %d", info.Scheme, info.ID, info.Epoch, FirstEpoch)
		}
		if info.T != nodes[0].T || info.N != nodes[0].N {
			t.Fatalf("dealt %s/%s reports (t=%d, n=%d), want (%d, %d)",
				info.Scheme, info.ID, info.T, info.N, nodes[0].T, nodes[0].N)
		}
		if info.Members != nil {
			t.Fatalf("dealt %s/%s has explicit members %v, want identity", info.Scheme, info.ID, info.Members)
		}
	}
}

// TestEpochedKeystoreRoundTrip serializes a keystore holding the full
// post-reshare state — an advanced epoch, an explicit committee with a
// different threshold, and a public-only record on an excluded node —
// and verifies every field survives the keystore-file round trip.
func TestEpochedKeystoreRoundTrip(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := nodes[0].Get(schemes.SG02, "")

	// Node 1 stayed in the reshared committee {1, 3} at threshold 1.
	member := &Key{
		ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: 2, Members: []int{1, 3},
		Public: &sg02.PublicKey{
			Group: cur.Public.(*sg02.PublicKey).Group,
			Y:     cur.Public.(*sg02.PublicKey).Y,
			VK:    cur.Public.(*sg02.PublicKey).VK[:2],
			T:     1, N: 2,
		},
		Share: sg02.KeyShare{Index: 1, Value: cur.Share.(sg02.KeyShare).Value},
	}
	if err := nodes[0].Replace(member); err != nil {
		t.Fatal(err)
	}
	// Node 2 left the committee: public-only record, no share.
	observer := &Key{
		ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: 2, Members: []int{1, 3},
		Public: member.Public,
	}
	if err := nodes[1].Replace(observer); err != nil {
		t.Fatal(err)
	}

	for i, want := range []*Key{member, observer} {
		got, err := UnmarshalKeystore(nodes[i].Marshal())
		if err != nil {
			t.Fatal(err)
		}
		k, err := got.Get(schemes.SG02, DefaultKeyID)
		if err != nil {
			t.Fatal(err)
		}
		if k.Epoch != 2 {
			t.Fatalf("node %d round-tripped epoch %d, want 2", i+1, k.Epoch)
		}
		if len(k.Members) != 2 || k.Members[0] != 1 || k.Members[1] != 3 {
			t.Fatalf("node %d round-tripped members %v, want [1 3]", i+1, k.Members)
		}
		if tt, nn := k.Params(); tt != 1 || nn != 2 {
			t.Fatalf("node %d round-tripped params (t=%d, n=%d), want (1, 2)", i+1, tt, nn)
		}
		if (k.Share == nil) != (want.Share == nil) {
			t.Fatalf("node %d share presence changed across round trip", i+1)
		}
	}

	// The public-only record answers quorum lookups with the typed
	// no-share error, not a type confusion.
	got, err := UnmarshalKeystore(nodes[1].Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ShareOf[sg02.KeyShare](got, schemes.SG02, ""); !errors.Is(err, ErrKeyNoShare) {
		t.Fatalf("public-only ShareOf = %v, want ErrKeyNoShare", err)
	}
}

func TestReplaceRequiresEpochAdvance(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 3, Options{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	cur, _ := nodes[0].Get(schemes.SG02, "")
	stale := &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch, Public: cur.Public, Share: cur.Share}
	if err := nodes[0].Replace(stale); !errors.Is(err, ErrKeyEpoch) {
		t.Fatalf("same-epoch replace = %v, want ErrKeyEpoch", err)
	}
	missing := &Key{ID: "no-such", Scheme: schemes.SG02, Epoch: 5, Public: cur.Public}
	if err := nodes[0].Replace(missing); !errors.Is(err, ErrKeyUnknown) {
		t.Fatalf("replace of unknown key = %v, want ErrKeyUnknown", err)
	}
}

// TestKeystorePersistSpillsMutations attaches a persist path and
// verifies that Save, Add, and Replace each leave a loadable file whose
// contents match the in-memory keystore — the durability contract a
// restarted node relies on.
func TestKeystorePersistSpillsMutations(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 3, Options{Schemes: []schemes.ID{schemes.SG02}})
	if err != nil {
		t.Fatal(err)
	}
	ks := nodes[0]
	path := filepath.Join(t.TempDir(), "node1.key")
	ks.SetPersistPath(path)
	if err := ks.Save(); err != nil {
		t.Fatal(err)
	}
	reload := func() *Keystore {
		t.Helper()
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		got, err := UnmarshalKeystore(raw)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	if got := reload(); got.Len() != ks.Len() {
		t.Fatalf("saved file holds %d keys, want %d", got.Len(), ks.Len())
	}

	cur, _ := ks.Get(schemes.SG02, "")
	if err := ks.Add(&Key{ID: "spare", Scheme: schemes.SG02, Public: cur.Public, Share: cur.Share}); err != nil {
		t.Fatal(err)
	}
	if _, err := reload().Get(schemes.SG02, "spare"); err != nil {
		t.Fatalf("Add was not spilled: %v", err)
	}

	bump := &Key{ID: DefaultKeyID, Scheme: schemes.SG02, Epoch: cur.Epoch + 1, Public: cur.Public, Share: cur.Share}
	if err := ks.Replace(bump); err != nil {
		t.Fatal(err)
	}
	if k, _ := reload().Get(schemes.SG02, DefaultKeyID); k == nil || k.Epoch != cur.Epoch+1 {
		t.Fatalf("Replace was not spilled: reloaded epoch %v", k)
	}
	// The atomic writer must not leave temp debris next to the file.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != filepath.Base(path) {
			t.Fatalf("unexpected file %q next to keystore", e.Name())
		}
	}
}
