package keys

import (
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"testing"

	"thetacrypt/internal/schemes"
	"thetacrypt/internal/share"
)

// TestKeystoreRefusesMismatchedShare: Add, Replace and loading a key
// file refuse a discrete-log key whose share x_i does not give its
// verification key, and leave the store as it was. The protocols never
// check the share a node makes itself, so this is where a corrupt local
// share is caught.
func TestKeystoreRefusesMismatchedShare(t *testing.T) {
	for _, scheme := range []schemes.ID{schemes.SG02, schemes.KG20, schemes.CKS05} {
		t.Run(string(scheme), func(t *testing.T) {
			nodes, err := Deal(rand.Reader, 1, 3, Options{Schemes: []schemes.ID{scheme}})
			if err != nil {
				t.Fatal(err)
			}
			ks := nodes[1]
			cur, _ := ks.Get(scheme, "")
			idx, x := shareRef(cur)
			bad := map[string]any{
				"value":        share.Share{Index: idx, Value: new(big.Int).Add(x, big.NewInt(1))},
				"peer-index":   share.Share{Index: idx + 1, Value: x},
				"index-zero":   share.Share{Index: 0, Value: x},
				"index-past-n": share.Share{Index: 4, Value: x},
			}
			for name, shr := range bad {
				add := &Key{ID: "bad", Scheme: scheme, Epoch: FirstEpoch, Public: cur.Public, Share: shr}
				if err := ks.Add(add); !errors.Is(err, ErrKeyShare) {
					t.Fatalf("%s: Add = %v, want ErrKeyShare", name, err)
				}
				if _, err := ks.Get(scheme, "bad"); !errors.Is(err, ErrKeyUnknown) {
					t.Fatalf("%s: a refused Add installed the key: %v", name, err)
				}
				next := &Key{ID: DefaultKeyID, Scheme: scheme, Epoch: cur.Epoch + 1, Public: cur.Public, Share: shr}
				if err := ks.Replace(next); !errors.Is(err, ErrKeyShare) {
					t.Fatalf("%s: Replace = %v, want ErrKeyShare", name, err)
				}
				if k, _ := ks.Get(scheme, ""); k != cur {
					t.Fatalf("%s: a refused Replace swapped the key", name)
				}
			}

			// A key file carrying a corrupt share fails to load. The
			// store is written past the check, as a file edited or
			// damaged on disk would be.
			file := NewKeystore(ks.Index, ks.T, ks.N)
			corrupt := &Key{ID: DefaultKeyID, Scheme: scheme, Epoch: FirstEpoch,
				Public: cur.Public, Share: bad["value"]}
			file.byRef[keyRef{scheme: scheme, id: DefaultKeyID}] = corrupt
			file.order = append(file.order, corrupt)
			if _, err := UnmarshalKeystore(file.Marshal()); !errors.Is(err, ErrKeyShare) {
				t.Fatalf("loading a corrupt share = %v, want ErrKeyShare", err)
			}
			// The intact store still loads, and a public-only key needs
			// no share check.
			if _, err := UnmarshalKeystore(ks.Marshal()); err != nil {
				t.Fatal(err)
			}
			observer := &Key{ID: "observer", Scheme: scheme, Epoch: FirstEpoch, Public: cur.Public}
			if err := ks.Add(observer); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestKeystoreRefusesInvalidThreshold: a key file whose key carries a
// threshold that is not a valid sharing of its n parties does not load,
// and the error names the key. A negative t would panic the first
// signing round; t >= n leaves every request short of a quorum.
func TestKeystoreRefusesInvalidThreshold(t *testing.T) {
	nodes, err := Deal(rand.Reader, 1, 4, Options{Schemes: []schemes.ID{schemes.SG02, schemes.KG20}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		scheme schemes.ID
		t      int
	}{
		{schemes.KG20, -2},
		{schemes.SG02, 4},
	} {
		cur, _ := nodes[0].Get(tc.scheme, "")
		pk := *cur.Public.(*share.PublicKey)
		pk.T = tc.t
		bad := *cur
		bad.Public = &pk
		next := bad
		next.Epoch++
		if err := nodes[0].Replace(&next); err == nil {
			t.Fatalf("%s at t = %d replaced the key", tc.scheme, tc.t)
		}
		// Written past the check, as a file edited or damaged on disk
		// would be.
		file := NewKeystore(1, 1, 4)
		file.byRef[keyRef{scheme: tc.scheme, id: DefaultKeyID}] = &bad
		file.order = append(file.order, &bad)
		_, err := UnmarshalKeystore(file.Marshal())
		if want := string(tc.scheme) + "/" + DefaultKeyID; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("loading %s at t = %d: %v, want an error naming %s", tc.scheme, tc.t, err, want)
		}
	}
}
