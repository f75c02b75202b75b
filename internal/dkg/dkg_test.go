package dkg

import (
	"crypto/rand"
	"math/big"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/share"
)

// runDKG executes the happy path among n honest participants.
func runDKG(t *testing.T, g group.Group, tt, n int) []*Result {
	t.Helper()
	parts := make([]*Participant, n)
	dealings := make([]*Dealing, n)
	for i := 1; i <= n; i++ {
		p, err := NewParticipant(g, i, tt, n)
		if err != nil {
			t.Fatal(err)
		}
		parts[i-1] = p
	}
	for i, p := range parts {
		d, err := p.Deal(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		dealings[i] = d
	}
	// Broadcast commitments; deliver private sub-shares.
	for _, p := range parts {
		for _, d := range dealings {
			if d.Dealer == p.index {
				continue
			}
			if err := p.ReceiveCommitment(&PublicDealing{Dealer: d.Dealer, Commitment: d.Commitment}); err != nil {
				t.Fatal(err)
			}
			if err := p.ReceiveSubShare(d.Dealer, d.SubShares[p.index-1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	results := make([]*Result, n)
	for i, p := range parts {
		r, err := p.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}
	return results
}

func TestHappyPathAgreement(t *testing.T) {
	g := group.Edwards25519()
	const tt, n = 2, 7
	results := runDKG(t, g, tt, n)
	for _, r := range results[1:] {
		if !r.PublicKey.Equal(results[0].PublicKey) {
			t.Fatal("participants derived different public keys")
		}
		if len(r.Qualified) != n {
			t.Fatalf("qualified set %v, want all %d", r.Qualified, n)
		}
	}
	// Shares are consistent: key shares reconstruct the discrete log of
	// the public key.
	shares := make([]share.Share, 0, tt+1)
	for _, r := range results[:tt+1] {
		shares = append(shares, share.Share{Index: r.Index, Value: r.Share})
	}
	x, err := share.Reconstruct(shares, tt, g.Order())
	if err != nil {
		t.Fatal(err)
	}
	if !g.BaseMul(x).Equal(results[0].PublicKey) {
		t.Fatal("reconstructed secret does not match DKG public key")
	}
	// Verification keys match the shares.
	for _, r := range results {
		if !g.BaseMul(r.Share).Equal(results[0].VK[r.Index-1]) {
			t.Fatalf("VK of party %d inconsistent", r.Index)
		}
	}
}

func TestDKGKeysDriveAScheme(t *testing.T) {
	// End-to-end: DKG output used as CKS05 coin keys (dealerless setup).
	g := group.Edwards25519()
	const tt, n = 1, 4
	results := runDKG(t, g, tt, n)
	pk := &cks05.PublicKey{Group: g, Y: results[0].PublicKey, VK: results[0].VK, T: tt, N: n}
	name := []byte("dkg-coin")
	var css []*cks05.CoinShare
	for _, r := range results[:tt+1] {
		cs, err := cks05.Share(rand.Reader, pk, cks05.KeyShare{Index: r.Index, Value: r.Share}, name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cks05.VerifyShare(pk, name, cs); err != nil {
			t.Fatalf("share %d: %v", r.Index, err)
		}
		css = append(css, cs)
	}
	if _, err := cks05.Combine(pk, name, css); err != nil {
		t.Fatal(err)
	}
}

func TestBadDealerExcluded(t *testing.T) {
	g := group.Edwards25519()
	const tt, n = 1, 4
	parts := make([]*Participant, n)
	dealings := make([]*Dealing, n)
	for i := 1; i <= n; i++ {
		p, _ := NewParticipant(g, i, tt, n)
		parts[i-1] = p
	}
	for i, p := range parts {
		d, err := p.Deal(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		dealings[i] = d
	}
	// Dealer 4 corrupts the sub-share it sends to party 1.
	bad := dealings[3].SubShares[0].Clone()
	bad.Value.Add(bad.Value, big.NewInt(1))

	p1 := parts[0]
	for _, d := range dealings[1:] {
		if err := p1.ReceiveCommitment(&PublicDealing{Dealer: d.Dealer, Commitment: d.Commitment}); err != nil {
			t.Fatal(err)
		}
	}
	if err := p1.ReceiveSubShare(2, dealings[1].SubShares[0]); err != nil {
		t.Fatal(err)
	}
	if err := p1.ReceiveSubShare(3, dealings[2].SubShares[0]); err != nil {
		t.Fatal(err)
	}
	if err := p1.ReceiveSubShare(4, bad); err == nil {
		t.Fatal("corrupted sub-share accepted")
	}
	res, err := p1.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range res.Qualified {
		if q == 4 {
			t.Fatal("bad dealer remained qualified")
		}
	}
}

func TestTooFewDealers(t *testing.T) {
	g := group.Edwards25519()
	p, _ := NewParticipant(g, 1, 2, 7)
	if _, err := p.Deal(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Finalize(); err == nil {
		t.Fatal("finalize with a single dealing should fail (quorum 3)")
	}
}

func TestParamAndRecipientValidation(t *testing.T) {
	g := group.Edwards25519()
	if _, err := NewParticipant(g, 0, 1, 4); err == nil {
		t.Fatal("index 0 accepted")
	}
	if _, err := NewParticipant(g, 1, 4, 4); err == nil {
		t.Fatal("t+1 > n accepted")
	}
	p, _ := NewParticipant(g, 1, 1, 4)
	q, _ := NewParticipant(g, 2, 1, 4)
	d, _ := q.Deal(rand.Reader)
	_ = p
	pp, _ := NewParticipant(g, 1, 1, 4)
	_ = pp.ReceiveCommitment(&PublicDealing{Dealer: 2, Commitment: d.Commitment})
	// Sub-share addressed to party 3 must be rejected by party 1.
	if err := pp.ReceiveSubShare(2, d.SubShares[2]); err == nil {
		t.Fatal("misaddressed sub-share accepted")
	}
}
