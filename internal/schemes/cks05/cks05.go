// Package cks05 implements the Diffie-Hellman based coin-tossing scheme
// of Cachin, Kursawe, and Shoup (CKS05): a threshold-random function that
// maps a coin name C to an unpredictable pseudorandom value, secure in
// the random-oracle model. Every coin share carries a proof of equality
// of discrete logarithms (DLEQ) ensuring its correctness, as described in
// the paper's Section 3.5.
package cks05

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
	"thetacrypt/internal/zkp"
)

// ErrInvalidShare is returned for coin shares that fail verification.
var ErrInvalidShare = errors.New("cks05: invalid coin share")

// ValueSize is the size of a coin value in bytes.
const ValueSize = 32

// PublicKey holds the coin verification keys: Y = x*G and per-party
// VK[i-1] = x_i*G.
type PublicKey struct {
	Group group.Group
	Y     group.Point
	VK    []group.Point
	T     int
	N     int
}

// KeyShare is party i's share x_i of the coin secret.
type KeyShare struct {
	Index int
	X     *big.Int
}

// Deal runs the trusted-dealer setup.
func Deal(rand io.Reader, g group.Group, t, n int) (*PublicKey, []KeyShare, error) {
	if err := share.ValidateParams(t, n); err != nil {
		return nil, nil, err
	}
	x, err := g.RandomScalar(rand)
	if err != nil {
		return nil, nil, fmt.Errorf("sample secret: %w", err)
	}
	shares, err := share.Split(rand, x, t, n, g.Order())
	if err != nil {
		return nil, nil, err
	}
	pk := &PublicKey{Group: g, Y: g.BaseMul(x), VK: make([]group.Point, n), T: t, N: n}
	ks := make([]KeyShare, n)
	for i, s := range shares {
		ks[i] = KeyShare{Index: s.Index, X: s.Value}
		pk.VK[i] = g.BaseMul(s.Value)
	}
	return pk, ks, nil
}

// CoinShare is party i's share Ĥ(C)^{x_i} with its DLEQ validity proof.
type CoinShare struct {
	Index int
	Sigma group.Point
	Proof *zkp.DLEQProof
}

// coinBase maps the coin name into the group.
func coinBase(g group.Group, name []byte) group.Point {
	return g.HashToPoint("cks05/coin", name)
}

// Share produces party i's coin share for the named coin.
func Share(rand io.Reader, pk *PublicKey, ks KeyShare, name []byte) (*CoinShare, error) {
	g := pk.Group
	base := coinBase(g, name)
	sigma := base.Mul(ks.X)
	proof, err := zkp.ProveDLEQ(rand, g, "cks05/share",
		g.Generator(), pk.VK[ks.Index-1], base, sigma, ks.X, name)
	if err != nil {
		return nil, err
	}
	return &CoinShare{Index: ks.Index, Sigma: sigma, Proof: proof}, nil
}

// VerifyShare checks a coin share against the issuing party's
// verification key.
func VerifyShare(pk *PublicKey, name []byte, cs *CoinShare) error {
	rels, err := ShareRelations(pk, name, cs)
	if err != nil {
		return err
	}
	for _, rel := range rels {
		if !rel.Holds(pk.Group) {
			return ErrInvalidShare
		}
	}
	return nil
}

// ShareRelations does the structural checks and challenge recomputation
// eagerly and returns the linear point relations completing share
// verification, for the precompute layer's verifier to check directly
// and count.
func ShareRelations(pk *PublicKey, name []byte, cs *CoinShare) ([]group.Relation, error) {
	if cs == nil || cs.Sigma == nil || cs.Index < 1 || cs.Index > pk.N {
		return nil, ErrInvalidShare
	}
	g := pk.Group
	base := coinBase(g, name)
	rels, err := zkp.DLEQRelations(g, "cks05/share",
		g.Generator(), pk.VK[cs.Index-1], base, cs.Sigma, cs.Proof, name)
	if err != nil {
		return nil, ErrInvalidShare
	}
	return rels, nil
}

// Combine interpolates t+1 coin shares into Ĥ(C)^x and hashes it to the
// coin value. Shares must have been verified; the combine is
// deterministic, so all correct parties derive the same value.
func Combine(pk *PublicKey, name []byte, css []*CoinShare) ([]byte, error) {
	if len(css) < pk.T+1 {
		return nil, share.ErrNotEnoughShares
	}
	points := make(map[int]group.Point, pk.T+1)
	for _, cs := range css {
		if len(points) == pk.T+1 {
			break
		}
		points[cs.Index] = cs.Sigma
	}
	if len(points) < pk.T+1 {
		return nil, share.ErrDuplicateIndex
	}
	sigma, err := share.InterpolateInExponent(pk.Group, points)
	if err != nil {
		return nil, err
	}
	return coinValue(name, sigma), nil
}

// coinValue derives the final pseudorandom value H'(C, σ).
func coinValue(name []byte, sigma group.Point) []byte {
	h := sha256.New()
	h.Write([]byte("cks05/value"))
	h.Write(name)
	h.Write(sigma.Marshal())
	return h.Sum(nil)
}

// Bit reduces a coin value to a single bit, the common-coin interface
// used by randomized agreement protocols.
func Bit(value []byte) int {
	if len(value) == 0 {
		return 0
	}
	return int(value[0] & 1)
}

// Marshal encodes the coin share.
func (cs *CoinShare) Marshal() []byte {
	return wire.NewWriter().
		Int(cs.Index).Bytes(cs.Sigma.Marshal()).Bytes(cs.Proof.Marshal()).Out()
}

// UnmarshalCoinShare decodes a coin share for the given group. It
// refuses trailing bytes, so an accepted share re-encodes to itself.
func UnmarshalCoinShare(g group.Group, data []byte) (*CoinShare, error) {
	r := wire.NewReader(data)
	idx := r.Int()
	sigmaRaw := r.Bytes()
	proofRaw := r.Bytes()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("cks05 share: %w", err)
	}
	sigma, err := g.UnmarshalPoint(sigmaRaw)
	if err != nil {
		return nil, fmt.Errorf("cks05 share sigma: %w", err)
	}
	proof, err := zkp.UnmarshalDLEQ(g, proofRaw)
	if err != nil {
		return nil, fmt.Errorf("cks05 share proof: %w", err)
	}
	return &CoinShare{Index: idx, Sigma: sigma, Proof: proof}, nil
}
