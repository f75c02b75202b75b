package frost

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
)

// katVector is one recorded signing in testdata/kat.json: a key whose
// polynomial and nonces are derived from fixed labels, the signer set
// in the order it is passed to Sign, and the expected share and
// signature encodings in hex.
type katVector struct {
	Group     string   `json:"group"`
	T         int      `json:"t"`
	N         int      `json:"n"`
	Signers   []int    `json:"signers"`
	Message   string   `json:"message"`
	Shares    []string `json:"shares"` // in Signers order
	Signature string   `json:"signature"`
}

// katScalar derives a fixed scalar from a label and an index.
func katScalar(g group.Group, label string, i int) *big.Int {
	return g.HashToScalar("frost-kat/"+label, []byte{byte(i)})
}

// katKey returns the (t, n) sharing of the polynomial whose
// coefficients are katScalar(g, "coef", 0..t).
func katKey(g group.Group, t, n int) (*PublicKey, []KeyShare) {
	poly := &share.Polynomial{Coeffs: make([]*big.Int, t+1), Modulus: g.Order()}
	for k := range poly.Coeffs {
		poly.Coeffs[k] = katScalar(g, "coef", k)
	}
	shares := poly.Shares(n)
	pk := &PublicKey{Group: g, Y: g.BaseMul(poly.Coeffs[0]), VK: make([]group.Point, n), T: t, N: n}
	for i, s := range shares {
		pk.VK[i] = g.BaseMul(s.Value)
	}
	return pk, shares
}

// katNonce returns signer i's fixed nonce pair and its commitment.
func katNonce(g group.Group, i int) (*Nonce, *NonceCommitment) {
	d, e := katScalar(g, "d", i), katScalar(g, "e", i)
	return &Nonce{D: d, E: e}, &NonceCommitment{Index: i, D: g.BaseMul(d), E: g.BaseMul(e)}
}

// katSign runs the vector's signing through Sign and Combine and
// returns the share and signature encodings in hex.
func katSign(v katVector) (shares []string, sig string, err error) {
	g, err := group.ByName(v.Group)
	if err != nil {
		return nil, "", err
	}
	pk, keyShares := katKey(g, v.T, v.N)
	nonces := make([]*Nonce, len(v.Signers))
	comms := make([]*NonceCommitment, len(v.Signers))
	for k, i := range v.Signers {
		nonces[k], comms[k] = katNonce(g, i)
	}
	msg := []byte(v.Message)
	ss := make([]*SignatureShare, len(v.Signers))
	for k, i := range v.Signers {
		if ss[k], err = Sign(pk, keyShares[i-1], nonces[k], msg, comms); err != nil {
			return nil, "", fmt.Errorf("signer %d: %w", i, err)
		}
		shares = append(shares, hex.EncodeToString(ss[k].Marshal()))
	}
	s, err := Combine(pk, msg, comms, ss)
	if err != nil {
		return nil, "", err
	}
	if err := Verify(pk, msg, s); err != nil {
		return nil, "", err
	}
	return shares, hex.EncodeToString(s.Marshal()), nil
}

// TestKnownAnswers pins the signature shares and signatures of fixed
// keys, nonces and messages to the bytes in testdata/kat.json, which
// were recorded before the signing session computed the binding
// factors, R and the challenge once: a change to any hash input or to
// the share formula shows here.
func TestKnownAnswers(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "kat.json"))
	if err != nil {
		t.Fatal(err)
	}
	var vectors []katVector
	if err := json.Unmarshal(raw, &vectors); err != nil {
		t.Fatal(err)
	}
	if len(vectors) == 0 {
		t.Fatal("no vectors")
	}
	for _, v := range vectors {
		t.Run(fmt.Sprintf("%s/t%d-n%d/%v", v.Group, v.T, v.N, v.Signers), func(t *testing.T) {
			shares, sig, err := katSign(v)
			if err != nil {
				t.Fatal(err)
			}
			for k := range v.Shares {
				if shares[k] != v.Shares[k] {
					t.Errorf("share of signer %d = %s, want %s", v.Signers[k], shares[k], v.Shares[k])
				}
			}
			if sig != v.Signature {
				t.Errorf("signature = %s, want %s", sig, v.Signature)
			}
		})
	}
}
