package cks05

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
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

func TestCoinAgreement(t *testing.T) {
	// All quorums must derive the same coin value: the coin is a
	// deterministic function of the name and the shared secret.
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			pk, ks := deal(t, g, 2, 7)
			name := []byte("round-17")
			combineWith := func(idxs []int) []byte {
				var css []*CoinShare
				for _, i := range idxs {
					cs, err := Share(rand.Reader, pk, ks[i], name)
					if err != nil {
						t.Fatal(err)
					}
					if err := VerifyShare(pk, name, cs); err != nil {
						t.Fatalf("valid share %d rejected: %v", cs.Index, err)
					}
					css = append(css, cs)
				}
				v, err := Combine(pk, name, css)
				if err != nil {
					t.Fatal(err)
				}
				return v
			}
			v1 := combineWith([]int{0, 1, 2})
			v2 := combineWith([]int{4, 5, 6})
			v3 := combineWith([]int{0, 3, 6})
			if !bytes.Equal(v1, v2) || !bytes.Equal(v1, v3) {
				t.Fatal("different quorums derived different coin values")
			}
			if len(v1) != ValueSize {
				t.Fatalf("coin value has %d bytes, want %d", len(v1), ValueSize)
			}
		})
	}
}

func TestDistinctNamesGiveDistinctCoins(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 4)
	coin := func(name string) []byte {
		var css []*CoinShare
		for _, k := range ks[:2] {
			cs, _ := Share(rand.Reader, pk, k, []byte(name))
			css = append(css, cs)
		}
		v, err := Combine(pk, []byte(name), css)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if bytes.Equal(coin("epoch-1"), coin("epoch-2")) {
		t.Fatal("distinct coin names collided")
	}
}

func TestForgedShareRejected(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 4)
	name := []byte("coin")
	cs, _ := Share(rand.Reader, pk, ks[0], name)

	wrongSigma := *cs
	wrongSigma.Sigma = g.Generator()
	if err := VerifyShare(pk, name, &wrongSigma); err == nil {
		t.Fatal("share with wrong sigma accepted")
	}
	wrongIndex := *cs
	wrongIndex.Index = 3
	if err := VerifyShare(pk, name, &wrongIndex); err == nil {
		t.Fatal("share attributed to wrong party accepted")
	}
	if err := VerifyShare(pk, []byte("other-coin"), cs); err == nil {
		t.Fatal("share replayed across coin names")
	}
	oob := *cs
	oob.Index = 0
	if err := VerifyShare(pk, name, &oob); !errors.Is(err, ErrInvalidShare) {
		t.Fatal("zero index accepted")
	}
}

func TestCombineQuorumRules(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 2, 5)
	name := []byte("coin")
	c0, _ := Share(rand.Reader, pk, ks[0], name)
	c1, _ := Share(rand.Reader, pk, ks[1], name)
	if _, err := Combine(pk, name, []*CoinShare{c0, c1}); !errors.Is(err, share.ErrNotEnoughShares) {
		t.Fatalf("want ErrNotEnoughShares, got %v", err)
	}
	if _, err := Combine(pk, name, []*CoinShare{c0, c0, c1}); err == nil {
		t.Fatal("duplicate shares satisfied the quorum")
	}
}

func TestBit(t *testing.T) {
	if Bit(nil) != 0 {
		t.Fatal("Bit(nil) != 0")
	}
	if Bit([]byte{0x01}) != 1 || Bit([]byte{0xfe}) != 0 {
		t.Fatal("Bit parity wrong")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	g := group.Edwards25519()
	pk, ks := deal(t, g, 1, 3)
	name := []byte("coin")
	cs, _ := Share(rand.Reader, pk, ks[1], name)
	cs2, err := UnmarshalCoinShare(g, cs.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyShare(pk, name, cs2); err != nil {
		t.Fatalf("round-tripped share invalid: %v", err)
	}
	if _, err := UnmarshalCoinShare(g, []byte("junk")); err == nil {
		t.Fatal("junk share decoded")
	}
}

// TestUnmarshalCoinShareCanonical: a coin share encoded by an earlier
// release (edwards25519, party 2) still decodes and re-encodes to the
// same bytes, and the same share with one trailing byte is refused.
func TestUnmarshalCoinShareCanonical(t *testing.T) {
	g := group.Edwards25519()
	old, err := hex.DecodeString("000000080000000000000002000000206bc0a325b56def001c4042e19ab3c471" +
		"dc14c44c53ad28f0746c8230256dd0180000006d000000202db3cc1e89bb9c684fddb36797bf54d4fb91535e" +
		"7fa6445e81428645bc5ade9b0000002016b29a0f935a420e5fa81da846dc2c993f8074c98b821aeca3134c60" +
		"c3335dd700000021000f1255f0b97b0180afe9cd65bf443553e650e57d05d24f1692fcc0a646df5bba")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"earlier-release", old, true},
		{"trailing-byte", append(append([]byte(nil), old...), 0), false},
	} {
		cs, err := UnmarshalCoinShare(g, tc.data)
		if (err == nil) != tc.ok {
			t.Fatalf("%s: err = %v, want accepted %v", tc.name, err, tc.ok)
		}
		if tc.ok && (cs.Index != 2 || !bytes.Equal(cs.Marshal(), tc.data)) {
			t.Fatalf("%s: decoded index %d, re-encodes to %x", tc.name, cs.Index, cs.Marshal())
		}
	}
}

func TestUnpredictabilityStructure(t *testing.T) {
	// t shares of the coin leave the value undetermined: combining t
	// shares with a share forged from a random scalar yields a different
	// value than the true coin.
	g := group.Edwards25519()
	pk, ks := deal(t, g, 2, 5)
	name := []byte("target")
	var css []*CoinShare
	for _, k := range ks[:3] {
		cs, _ := Share(rand.Reader, pk, k, name)
		css = append(css, cs)
	}
	truth, _ := Combine(pk, name, css)

	// Adversary holds only shares 1 and 2 and guesses the third.
	fake, _ := g.RandomScalar(rand.Reader)
	guess := &CoinShare{Index: 3, Sigma: coinBase(g, name).Mul(fake)}
	guessed, err := Combine(pk, name, []*CoinShare{css[0], css[1], guess})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(truth, guessed) {
		t.Fatal("coin predictable from t shares plus a guess")
	}
}
