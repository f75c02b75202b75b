package keys

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
)

// TestKeystoreRefusesMismatchedShare: Add, Replace and loading a key
// file refuse a discrete-log key whose share x_i does not give its
// verification key, and leave the store as it was. The protocols never
// check the share a node makes itself, so this is where a corrupt local
// share is caught.
func TestKeystoreRefusesMismatchedShare(t *testing.T) {
	for _, tc := range []struct {
		scheme schemes.ID
		share  func(index int, x *big.Int) any
	}{
		{schemes.SG02, func(i int, x *big.Int) any { return sg02.KeyShare{Index: i, X: x} }},
		{schemes.KG20, func(i int, x *big.Int) any { return frost.KeyShare{Index: i, X: x} }},
		{schemes.CKS05, func(i int, x *big.Int) any { return cks05.KeyShare{Index: i, X: x} }},
	} {
		t.Run(string(tc.scheme), func(t *testing.T) {
			nodes, err := Deal(rand.Reader, 1, 3, Options{Schemes: []schemes.ID{tc.scheme}})
			if err != nil {
				t.Fatal(err)
			}
			ks := nodes[1]
			cur, _ := ks.Get(tc.scheme, "")
			idx, x := shareRef(cur)
			bad := map[string]any{
				"value":        tc.share(idx, new(big.Int).Add(x, big.NewInt(1))),
				"peer-index":   tc.share(idx+1, x),
				"index-zero":   tc.share(0, x),
				"index-past-n": tc.share(4, x),
			}
			for name, shr := range bad {
				add := &Key{ID: "bad", Scheme: tc.scheme, Epoch: FirstEpoch, Public: cur.Public, Share: shr}
				if err := ks.Add(add); !errors.Is(err, ErrKeyShare) {
					t.Fatalf("%s: Add = %v, want ErrKeyShare", name, err)
				}
				if _, err := ks.Get(tc.scheme, "bad"); !errors.Is(err, ErrKeyUnknown) {
					t.Fatalf("%s: a refused Add installed the key: %v", name, err)
				}
				next := &Key{ID: DefaultKeyID, Scheme: tc.scheme, Epoch: cur.Epoch + 1, Public: cur.Public, Share: shr}
				if err := ks.Replace(next); !errors.Is(err, ErrKeyShare) {
					t.Fatalf("%s: Replace = %v, want ErrKeyShare", name, err)
				}
				if k, _ := ks.Get(tc.scheme, ""); k != cur {
					t.Fatalf("%s: a refused Replace swapped the key", name)
				}
			}

			// A key file carrying a corrupt share fails to load. The
			// store is written past the check, as a file edited or
			// damaged on disk would be.
			file := NewKeystore(ks.Index, ks.T, ks.N)
			corrupt := &Key{ID: DefaultKeyID, Scheme: tc.scheme, Epoch: FirstEpoch,
				Public: cur.Public, Share: bad["value"]}
			file.byRef[keyRef{scheme: tc.scheme, id: DefaultKeyID}] = corrupt
			file.order = append(file.order, corrupt)
			if _, err := UnmarshalKeystore(file.Marshal()); !errors.Is(err, ErrKeyShare) {
				t.Fatalf("loading a corrupt share = %v, want ErrKeyShare", err)
			}
			// The intact store still loads, and a public-only key needs
			// no share check.
			if _, err := UnmarshalKeystore(ks.Marshal()); err != nil {
				t.Fatal(err)
			}
			observer := &Key{ID: "observer", Scheme: tc.scheme, Epoch: FirstEpoch, Public: cur.Public}
			if err := ks.Add(observer); err != nil {
				t.Fatal(err)
			}
		})
	}
}
