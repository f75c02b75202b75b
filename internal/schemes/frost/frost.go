// Package frost implements the Komlo-Goldberg FROST threshold Schnorr
// signature scheme (KG20): a two-round interactive protocol (nonce
// commitment, then signing). Sign works the same on commitments
// exchanged in advance (FROST's preprocessing), which would leave only
// the second round; the service always runs both. FROST is not robust:
// a misbehaving signer causes the protocol to abort (and to identify
// the culprit), matching the paper's description.
package frost

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// Scheme-level errors suitable for errors.Is matching.
var (
	ErrInvalidShare     = errors.New("frost: invalid signature share")
	ErrInvalidSignature = errors.New("frost: invalid signature")
	ErrNotInSignerSet   = errors.New("frost: signer not in commitment set")
	ErrBadCommitmentSet = errors.New("frost: malformed commitment set")
)

// PublicKey is the group key Y = x*G with per-party verification keys.
type PublicKey struct {
	Group group.Group
	Y     group.Point
	VK    []group.Point
	T     int
	N     int
}

// KeyShare is party i's share x_i of the signing key.
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

// Nonce is a signer's secret nonce pair (d, e); it must be used for
// exactly one signature.
type Nonce struct {
	D, E *big.Int
}

// NonceCommitment is the public commitment (D, E) = (d*G, e*G) broadcast
// in round 1.
type NonceCommitment struct {
	Index int
	D, E  group.Point
}

// GenerateNonce produces a fresh nonce pair and its commitment (FROST
// round 1 for one signature).
func GenerateNonce(rand io.Reader, g group.Group, index int) (*Nonce, *NonceCommitment, error) {
	d, err := g.RandomScalar(rand)
	if err != nil {
		return nil, nil, fmt.Errorf("sample d: %w", err)
	}
	e, err := g.RandomScalar(rand)
	if err != nil {
		return nil, nil, fmt.Errorf("sample e: %w", err)
	}
	return &Nonce{D: d, E: e},
		&NonceCommitment{Index: index, D: g.BaseMul(d), E: g.BaseMul(e)}, nil
}

// SignatureShare is signer i's round-2 response.
type SignatureShare struct {
	Index int
	Z     *big.Int
}

// Signature is a standard Schnorr signature (R, z): z*G == R + c*Y with
// c = H2(R, Y, m).
type Signature struct {
	R group.Point
	Z *big.Int
}

// sortedCommitments validates and canonically orders a commitment set.
func sortedCommitments(pk *PublicKey, comms []*NonceCommitment) ([]*NonceCommitment, error) {
	if len(comms) < pk.T+1 {
		return nil, ErrBadCommitmentSet
	}
	out := make([]*NonceCommitment, len(comms))
	copy(out, comms)
	sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
	seen := make(map[int]bool, len(out))
	for _, c := range out {
		if c == nil || c.D == nil || c.E == nil || c.Index < 1 || c.Index > pk.N || seen[c.Index] {
			return nil, ErrBadCommitmentSet
		}
		seen[c.Index] = true
	}
	return out, nil
}

// bindingValue computes ρ_j = H1(j, m, B) binding each signer's nonce to
// the message and the full commitment list.
func bindingValue(pk *PublicKey, j int, msg []byte, comms []*NonceCommitment) *big.Int {
	data := make([][]byte, 0, 2+2*len(comms))
	idx := wire.NewWriter().Int(j).Out()
	data = append(data, idx, msg)
	for _, c := range comms {
		data = append(data, wire.NewWriter().Int(c.Index).Bytes(c.D.Marshal()).Bytes(c.E.Marshal()).Out())
	}
	return pk.Group.HashToScalar("frost/rho", data...)
}

// groupCommitment computes R = Π D_j + ρ_j*E_j.
func groupCommitment(pk *PublicKey, msg []byte, comms []*NonceCommitment) group.Point {
	acc := pk.Group.Identity()
	for _, c := range comms {
		rho := bindingValue(pk, c.Index, msg, comms)
		acc = acc.Add(c.D).Add(c.E.Mul(rho))
	}
	return acc
}

// challenge computes c = H2(R, Y, m).
func challenge(pk *PublicKey, r group.Point, msg []byte) *big.Int {
	return pk.Group.HashToScalar("frost/challenge", r.Marshal(), pk.Y.Marshal(), msg)
}

// signerIndices returns the sorted index set of a commitment list.
func signerIndices(comms []*NonceCommitment) []int {
	out := make([]int, len(comms))
	for i, c := range comms {
		out[i] = c.Index
	}
	return out
}

// Sign is FROST round 2: signer i computes its signature share
// z_i = d_i + e_i*ρ_i + λ_i*x_i*c for the signer set fixed by comms.
func Sign(pk *PublicKey, ks KeyShare, nonce *Nonce, msg []byte, comms []*NonceCommitment) (*SignatureShare, error) {
	sorted, err := sortedCommitments(pk, comms)
	if err != nil {
		return nil, err
	}
	var own *NonceCommitment
	for _, c := range sorted {
		if c.Index == ks.Index {
			own = c
			break
		}
	}
	if own == nil {
		return nil, ErrNotInSignerSet
	}
	g := pk.Group
	// The signer must only use a nonce matching its own broadcast
	// commitment; mixing nonces leaks the key share.
	if !g.BaseMul(nonce.D).Equal(own.D) || !g.BaseMul(nonce.E).Equal(own.E) {
		return nil, fmt.Errorf("frost: nonce does not match own commitment")
	}
	rho := bindingValue(pk, ks.Index, msg, sorted)
	r := groupCommitment(pk, msg, sorted)
	c := challenge(pk, r, msg)
	lambda, err := share.LagrangeCoefficient(ks.Index, signerIndices(sorted), g.Order())
	if err != nil {
		return nil, err
	}
	z := mathutil.AddMod(nonce.D, mathutil.MulMod(nonce.E, rho, g.Order()), g.Order())
	z = mathutil.AddMod(z, mathutil.MulMod(mathutil.MulMod(lambda, ks.X, g.Order()), c, g.Order()), g.Order())
	return &SignatureShare{Index: ks.Index, Z: z}, nil
}

// VerifyShare checks z_i*G == D_i + ρ_i*E_i + c*λ_i*Y_i, identifying
// misbehaving signers (FROST aborts on failure rather than recovering).
func VerifyShare(pk *PublicKey, msg []byte, comms []*NonceCommitment, ss *SignatureShare) error {
	if ss == nil || ss.Z == nil || ss.Index < 1 || ss.Index > pk.N {
		return ErrInvalidShare
	}
	if ss.Z.Sign() < 0 || ss.Z.Cmp(pk.Group.Order()) >= 0 {
		return ErrInvalidShare
	}
	sorted, err := sortedCommitments(pk, comms)
	if err != nil {
		return err
	}
	var own *NonceCommitment
	for _, c := range sorted {
		if c.Index == ss.Index {
			own = c
			break
		}
	}
	if own == nil {
		return ErrNotInSignerSet
	}
	g := pk.Group
	rho := bindingValue(pk, ss.Index, msg, sorted)
	r := groupCommitment(pk, msg, sorted)
	c := challenge(pk, r, msg)
	lambda, err := share.LagrangeCoefficient(ss.Index, signerIndices(sorted), g.Order())
	if err != nil {
		return err
	}
	ord := g.Order()
	neg := func(v *big.Int) *big.Int {
		out := new(big.Int).Sub(ord, new(big.Int).Mod(v, ord))
		return out.Mod(out, ord)
	}
	// z_i*G - D_i - ρ_i*E_i - c*λ_i*Y_i == 0
	rel := group.Relation{
		Points:  []group.Point{g.Generator(), own.D, own.E, pk.VK[ss.Index-1]},
		Scalars: []*big.Int{ss.Z, neg(big.NewInt(1)), neg(rho), neg(mathutil.MulMod(c, lambda, ord))},
	}
	if !rel.Holds(g) {
		return ErrInvalidShare
	}
	return nil
}

// Combine aggregates the signature shares of the full signer set into a
// Schnorr signature and verifies it. Every signer in the commitment set
// must contribute: FROST waits for its a-priori fixed signing group.
func Combine(pk *PublicKey, msg []byte, comms []*NonceCommitment, shares []*SignatureShare) (*Signature, error) {
	sorted, err := sortedCommitments(pk, comms)
	if err != nil {
		return nil, err
	}
	byIndex := make(map[int]*SignatureShare, len(shares))
	for _, ss := range shares {
		byIndex[ss.Index] = ss
	}
	g := pk.Group
	z := new(big.Int)
	for _, c := range sorted {
		ss, ok := byIndex[c.Index]
		if !ok {
			return nil, fmt.Errorf("frost: missing share from signer %d: %w", c.Index, share.ErrNotEnoughShares)
		}
		z = mathutil.AddMod(z, ss.Z, g.Order())
	}
	sig := &Signature{R: groupCommitment(pk, msg, sorted), Z: z}
	if err := Verify(pk, msg, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// Verify checks the combined signature as a plain Schnorr signature; the
// output is indistinguishable from a single-signer Schnorr signature.
func Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	if sig == nil || sig.R == nil || sig.Z == nil {
		return ErrInvalidSignature
	}
	g := pk.Group
	c := challenge(pk, sig.R, msg)
	if !g.BaseMul(sig.Z).Equal(sig.R.Add(pk.Y.Mul(c))) {
		return ErrInvalidSignature
	}
	return nil
}

// Marshal encodes a nonce commitment.
func (nc *NonceCommitment) Marshal() []byte {
	return wire.NewWriter().Int(nc.Index).Bytes(nc.D.Marshal()).Bytes(nc.E.Marshal()).Out()
}

// UnmarshalNonceCommitment decodes a nonce commitment. Like the other
// decoders here it rejects trailing bytes, so every accepted input is
// the one encoding Marshal gives.
func UnmarshalNonceCommitment(g group.Group, data []byte) (*NonceCommitment, error) {
	r := wire.NewReader(data)
	idx := r.Int()
	dRaw := r.Bytes()
	eRaw := r.Bytes()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("frost commitment: %w", err)
	}
	d, err := g.UnmarshalPoint(dRaw)
	if err != nil {
		return nil, fmt.Errorf("frost commitment D: %w", err)
	}
	e, err := g.UnmarshalPoint(eRaw)
	if err != nil {
		return nil, fmt.Errorf("frost commitment E: %w", err)
	}
	return &NonceCommitment{Index: idx, D: d, E: e}, nil
}

// Marshal encodes a signature share.
func (ss *SignatureShare) Marshal() []byte {
	return wire.NewWriter().Int(ss.Index).BigInt(ss.Z).Out()
}

// UnmarshalSignatureShare decodes a signature share. z must be a
// canonically encoded non-negative integer.
func UnmarshalSignatureShare(data []byte) (*SignatureShare, error) {
	r := wire.NewReader(data)
	idx := r.Int()
	z := r.Nat()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("frost share: %w", err)
	}
	return &SignatureShare{Index: idx, Z: z}, nil
}

// Marshal encodes a signature.
func (sig *Signature) Marshal() []byte {
	return wire.NewWriter().Bytes(sig.R.Marshal()).BigInt(sig.Z).Out()
}

// UnmarshalSignature decodes a signature. z must be a canonically
// encoded non-negative integer.
func UnmarshalSignature(g group.Group, data []byte) (*Signature, error) {
	r := wire.NewReader(data)
	rRaw := r.Bytes()
	z := r.Nat()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("frost signature: %w", err)
	}
	rp, err := g.UnmarshalPoint(rRaw)
	if err != nil {
		return nil, fmt.Errorf("frost signature R: %w", err)
	}
	return &Signature{R: rp, Z: z}, nil
}
