package protocols

import (
	"bytes"
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/schemes/sh00"
)

// TestOwnShareQuorumOfOne: at t = 0 a node's own share is a quorum, so
// each of the five non-interactive schemes finalizes straight after
// DoRound, with no peer share, and two nodes reach the same result on
// their own.
func TestOwnShareQuorumOfOne(t *testing.T) {
	nodes := dealNodes(t, 0, 2, schemes.SG02, schemes.BZ03, schemes.SH00, schemes.BLS04, schemes.CKS05)
	msg := []byte("quorum of one")
	sgct, err := sg02.Encrypt(rand.Reader, keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02), msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bzct, err := bz03.Encrypt(rand.Reader, keys.MustPublic[*bz03.PublicKey](nodes[0], schemes.BZ03), msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		req   Request
		check func(out []byte) error
	}{
		{Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: sgct.Marshal()}, plaintext(msg)},
		{Request{Scheme: schemes.BZ03, Op: OpDecrypt, Payload: bzct.Marshal()}, plaintext(msg)},
		{Request{Scheme: schemes.SH00, Op: OpSign, Payload: msg}, func(out []byte) error {
			sig, err := sh00.UnmarshalSignature(out)
			if err != nil {
				return err
			}
			return sh00.Verify(keys.MustPublic[*sh00.PublicKey](nodes[0], schemes.SH00), msg, sig)
		}},
		{Request{Scheme: schemes.BLS04, Op: OpSign, Payload: msg}, func(out []byte) error {
			sig, err := bls04.UnmarshalSignature(out)
			if err != nil {
				return err
			}
			return bls04.Verify(keys.MustPublic[*bls04.PublicKey](nodes[0], schemes.BLS04), msg, sig)
		}},
		{Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: msg}, func(out []byte) error {
			if len(out) == 0 {
				return errors.New("empty coin")
			}
			return nil
		}},
	} {
		t.Run(string(tc.req.Scheme), func(t *testing.T) {
			var first []byte
			for i, nk := range nodes {
				p, err := New(rand.Reader, nk, tc.req, Env{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.DoRound(); err != nil {
					t.Fatalf("node %d DoRound: %v", i+1, err)
				}
				if !p.IsReadyToFinalize() {
					t.Fatalf("node %d not ready on its own share", i+1)
				}
				out, err := p.Finalize()
				if err != nil {
					t.Fatalf("node %d finalize: %v", i+1, err)
				}
				if err := tc.check(out); err != nil {
					t.Fatalf("node %d result: %v", i+1, err)
				}
				if first == nil {
					first = out
				} else if !bytes.Equal(out, first) {
					t.Fatalf("nodes disagree: %x vs %x", first, out)
				}
			}
		})
	}
}

func plaintext(want []byte) func([]byte) error {
	return func(out []byte) error {
		if !bytes.Equal(out, want) {
			return errors.New("wrong plaintext")
		}
		return nil
	}
}

// withShare builds node's protocol for req from a copy of its key whose
// share material is replaced by ks, as a corrupt keystore would.
func withShare(t *testing.T, node *keys.Keystore, req Request, ks any) Protocol {
	t.Helper()
	k, err := node.Get(req.Scheme, req.EffectiveKeyID())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := *k
	corrupt.Share = ks
	p, err := buildOp(rand.Reader, &corrupt, req, Env{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOwnBadShareFailsAtCombine: a node never checks the share it made
// itself, so a share made from a corrupt key share is only found when
// the quorum it joins fails to combine. For SG02, BZ03 and SH00 that
// ends the instance locally, in the Update that completes the quorum:
// the valid peer share passes its check, no rejection names a peer,
// and no result is released. BLS04's twin is
// TestBLS04OwnBadShareFailsInstance.
func TestOwnBadShareFailsAtCombine(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.SG02, schemes.BZ03, schemes.SH00)
	msg := []byte("own share corrupted")
	plusOne := func(x *big.Int) *big.Int { return new(big.Int).Add(x, big.NewInt(1)) }

	sgpk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	sgct, err := sg02.Encrypt(rand.Reader, sgpk, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	sgks := keys.MustShare[sg02.KeyShare](nodes[0], schemes.SG02)
	sgks.Value = plusOne(sgks.Value)
	sgpeer, err := sg02.DecryptShare(rand.Reader, sgpk, keys.MustShare[sg02.KeyShare](nodes[1], schemes.SG02), sgct)
	if err != nil {
		t.Fatal(err)
	}

	bzpk := keys.MustPublic[*bz03.PublicKey](nodes[0], schemes.BZ03)
	bzct, err := bz03.Encrypt(rand.Reader, bzpk, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	bzks := keys.MustShare[bz03.KeyShare](nodes[0], schemes.BZ03)
	bzks.Value = plusOne(bzks.Value)
	bzpeer, err := bz03.DecryptShare(bzpk, keys.MustShare[bz03.KeyShare](nodes[1], schemes.BZ03), bzct)
	if err != nil {
		t.Fatal(err)
	}

	shpk := keys.MustPublic[*sh00.PublicKey](nodes[0], schemes.SH00)
	shks := keys.MustShare[sh00.KeyShare](nodes[0], schemes.SH00)
	shks.S = plusOne(shks.S)
	shpeer, err := sh00.SignShare(rand.Reader, shpk, keys.MustShare[sh00.KeyShare](nodes[1], schemes.SH00), msg)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		req  Request
		ks   any    // node 1's corrupt key share
		peer []byte // node 2's valid share
		want error
	}{
		{"SG02", Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: sgct.Marshal()}, sgks,
			sgpeer.Marshal(), schemes.ErrPayloadAuth},
		{"BZ03", Request{Scheme: schemes.BZ03, Op: OpDecrypt, Payload: bzct.Marshal()}, bzks,
			bzpeer.Marshal(), schemes.ErrPayloadAuth},
		{"SH00", Request{Scheme: schemes.SH00, Op: OpSign, Payload: msg}, shks,
			shpeer.Marshal(), sh00.ErrInvalidSignature},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := withShare(t, nodes[0], tc.req, tc.ks)
			if _, err := p.DoRound(); err != nil {
				t.Fatalf("own share refused: %v", err)
			}
			err := p.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: tc.peer})
			if err == nil || Rejections(err) != nil || !errors.Is(err, tc.want) {
				t.Fatalf("want a local failure wrapping %v, got %v", tc.want, err)
			}
			if p.IsReadyToFinalize() {
				t.Fatal("a quorum that did not combine is ready")
			}
			if out, err := p.Finalize(); out != nil || !errors.Is(err, ErrNotReady) {
				t.Fatalf("released %x, %v after a failed combine", out, err)
			}
		})
	}
}
