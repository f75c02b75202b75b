// Package zkp implements the non-interactive zero-knowledge proofs used
// across the threshold schemes: Chaum-Pedersen proofs of discrete
// logarithm equality (DLEQ), made non-interactive with the Fiat-Shamir
// transform. SG02 uses DLEQ for decryption-share correctness, CKS05 for
// coin-share correctness, and SH00 uses the RSA analogue implemented in
// the sh00 package.
//
// Proofs are stored in commitment form (A1, A2, F) rather than
// challenge form (E, F): the challenge is recomputable from the
// commitments, and verification then reduces to two LINEAR point
// equations — F*g1 - A1 - e*h1 == 0 and F*g2 - A2 - e*h2 == 0 — which
// the precompute layer checks directly, as written, once per peer share,
// and counts. With g1 the standard generator that costs one fixed-base
// and three full multiplications on P-256.
//
// COMPATIBILITY: the commitment-form encoding (A1, A2, F) replaced the
// earlier challenge-form encoding (E, F) and is NOT wire-compatible
// with it — a node on either side of the change rejects every SG02
// decryption share and CKS05 coin share sent by the other side, taking
// those operations below threshold in a mixed-version committee.
// Upgrade a deployment in a coordinated step (stop all nodes, upgrade,
// restart), not by rolling nodes one at a time.
package zkp

import (
	"fmt"
	"io"
	"math/big"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/wire"
)

// DLEQProof proves knowledge of x with h1 = x*g1 and h2 = x*g2 without
// revealing x. A1, A2 are the prover's nonce commitments (s*g1, s*g2)
// and F the response s + x*e for the Fiat-Shamir challenge e.
type DLEQProof struct {
	A1 group.Point
	A2 group.Point
	F  *big.Int
}

// ProveDLEQ produces a proof bound to a domain string and an optional
// transcript (message, context) to prevent proof replay across contexts.
//
// When g1 is the group's standard generator — the usual case: h1 is a
// verification key x*G — the commitment A1 = s*G is computed with
// Group.BaseMul, the fixed-base table path, at a fraction of a variable-
// base Point.Mul. The nonce s is as secret as x (either one reveals the
// other from F), so only constant-time operations may take it. BaseMul
// and Point.Mul both are, from the reduced scalar on (see the group
// package): edwards25519 selects table entries by masking over the
// whole table, and P-256 runs on crypto/elliptic's constant-time
// nistec code. MultiScalarMul is variable-time and is never used here.
// The proof is the same group element either way, so its encoding does
// not depend on which path computed it.
func ProveDLEQ(rand io.Reader, g group.Group, domain string, g1, h1, g2, h2 group.Point, x *big.Int, transcript ...[]byte) (*DLEQProof, error) {
	s, err := g.RandomScalar(rand)
	if err != nil {
		return nil, fmt.Errorf("dleq nonce: %w", err)
	}
	var a1 group.Point
	if g1.Equal(g.Generator()) {
		a1 = g.BaseMul(s)
	} else {
		a1 = g1.Mul(s)
	}
	a2 := g2.Mul(s)
	e := challenge(g, domain, g1, h1, g2, h2, a1, a2, transcript)
	// f = s + x*e mod q
	f := mathutil.AddMod(s, mathutil.MulMod(x, e, g.Order()), g.Order())
	return &DLEQProof{A1: a1, A2: a2, F: f}, nil
}

// VerifyDLEQ checks a proof against the same domain and transcript.
func VerifyDLEQ(g group.Group, domain string, g1, h1, g2, h2 group.Point, proof *DLEQProof, transcript ...[]byte) bool {
	rels, err := DLEQRelations(g, domain, g1, h1, g2, h2, proof, transcript...)
	if err != nil {
		return false
	}
	for _, rel := range rels {
		if !rel.Holds(g) {
			return false
		}
	}
	return true
}

// DLEQRelations performs the cheap part of verification eagerly — the
// structural checks and the Fiat-Shamir challenge recomputation — and
// returns the two linear point relations whose truth is equivalent to
// the proof verifying. VerifyDLEQ checks them itself; the schemes hand
// them to the precompute layer's verifier, which checks them the same
// way and counts them.
func DLEQRelations(g group.Group, domain string, g1, h1, g2, h2 group.Point, proof *DLEQProof, transcript ...[]byte) ([]group.Relation, error) {
	if proof == nil || proof.A1 == nil || proof.A2 == nil || proof.F == nil {
		return nil, fmt.Errorf("zkp: malformed dleq proof")
	}
	if proof.F.Sign() < 0 || proof.F.Cmp(g.Order()) >= 0 {
		return nil, fmt.Errorf("zkp: dleq response out of range")
	}
	e := challenge(g, domain, g1, h1, g2, h2, proof.A1, proof.A2, transcript)
	// F*g1 - A1 - e*h1 == 0 and F*g2 - A2 - e*h2 == 0.
	negOne := new(big.Int).Sub(g.Order(), big.NewInt(1))
	negE := new(big.Int).Sub(g.Order(), e)
	negE.Mod(negE, g.Order())
	return []group.Relation{
		{Points: []group.Point{g1, proof.A1, h1}, Scalars: []*big.Int{proof.F, negOne, negE}},
		{Points: []group.Point{g2, proof.A2, h2}, Scalars: []*big.Int{proof.F, negOne, negE}},
	}, nil
}

func challenge(g group.Group, domain string, g1, h1, g2, h2, a1, a2 group.Point, transcript [][]byte) *big.Int {
	data := make([][]byte, 0, 6+len(transcript))
	data = append(data, g1.Marshal(), h1.Marshal(), g2.Marshal(), h2.Marshal(), a1.Marshal(), a2.Marshal())
	data = append(data, transcript...)
	return g.HashToScalar("thetacrypt/dleq/"+domain, data...)
}

// Marshal encodes a proof.
func (p *DLEQProof) Marshal() []byte {
	return wire.NewWriter().Bytes(p.A1.Marshal()).Bytes(p.A2.Marshal()).BigInt(p.F).Out()
}

// UnmarshalDLEQ decodes a proof over the given group. It accepts only
// the encoding Marshal gives: F a canonical natural number and no
// trailing bytes.
func UnmarshalDLEQ(g group.Group, data []byte) (*DLEQProof, error) {
	r := wire.NewReader(data)
	a1Raw := r.Bytes()
	a2Raw := r.Bytes()
	f := r.Nat()
	if err := r.End(); err != nil {
		return nil, err
	}
	a1, err := g.UnmarshalPoint(a1Raw)
	if err != nil {
		return nil, fmt.Errorf("dleq commitment A1: %w", err)
	}
	a2, err := g.UnmarshalPoint(a2Raw)
	if err != nil {
		return nil, fmt.Errorf("dleq commitment A2: %w", err)
	}
	return &DLEQProof{A1: a1, A2: a2, F: f}, nil
}
