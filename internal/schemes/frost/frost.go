// Package frost implements the Komlo-Goldberg FROST threshold Schnorr
// signature scheme (KG20): a two-round interactive protocol (nonce
// commitment, then signing). Sign works the same on commitments
// exchanged in advance (FROST's preprocessing), which would leave only
// the second round; the service always runs both. FROST is not robust:
// a misbehaving signer causes the protocol to abort (and to identify
// the culprit), matching the paper's description.
//
// A Session derives everything that depends only on the message and the
// complete commitment set once per signing: the binding factors from
// one encoding of the set, the group commitment R by one
// group.MultiScalarMul, the challenge and the Lagrange coefficients.
// Sign, VerifyShare and Combine read it; the package-level functions of
// the same names run them on a fresh session. The multi-scalar
// multiplication is variable-time, which is sound because it only ever
// sees public values (commitments, binding factors, the challenge, z
// and the verification keys); nonces and key shares go only through
// Group.BaseMul and scalar arithmetic.
package frost

import (
	"bytes"
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

// PublicKey is the group key Y = x*G with per-party verification keys
// VK[i-1] = x_i*G: the discrete-log key shared by SG02, KG20 and CKS05.
type PublicKey = share.PublicKey

// KeyShare is party i's share x_i (Value) of the signing key.
type KeyShare = share.Share

// Nonce is a signer's secret nonce pair (d, e); it must be used for
// exactly one signature.
type Nonce struct {
	D, E *big.Int
}

// NonceCommitment is the public commitment (D, E) = (d*G, e*G) broadcast
// in round 1. A decoded commitment keeps the bytes it was decoded from,
// which are its one encoding, so the binding factors hash them without
// encoding the points again; its fields are not to be changed.
type NonceCommitment struct {
	Index int
	D, E  group.Point

	raw []byte // the decoded bytes; nil when not decoded
}

// encoding returns Marshal's output, from the decoded bytes if any.
func (nc *NonceCommitment) encoding() []byte {
	if nc.raw != nil {
		return nc.raw
	}
	return nc.Marshal()
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

// Session is one signing session: what every signer, share checker
// and aggregator derives from the message and the complete commitment
// set B, computed once when the set is known. It holds the sorted
// commitments, every binding value ρ_i = H1(i, m, B) hashed from one
// encoding of B, the group commitment R = Σ D_i + ρ_i*E_i, the
// challenge c = H2(R, Y, m) and the Lagrange coefficient of every
// signer. A session belongs to one signer set: another set is another
// session.
type Session struct {
	pk     *PublicKey
	comms  []*NonceCommitment // ascending by index
	rho    []*big.Int         // ρ of comms[k]
	lambda map[int]*big.Int   // λ by signer index, over the signer set
	r      group.Point
	c      *big.Int
}

// NewSession validates the commitment set comms and derives the
// session's values for signing msg.
func NewSession(pk *PublicKey, msg []byte, comms []*NonceCommitment) (*Session, error) {
	sorted, err := sortedCommitments(pk, comms)
	if err != nil {
		return nil, err
	}
	g, k := pk.Group, len(sorted)
	s := &Session{pk: pk, comms: sorted, rho: make([]*big.Int, k)}
	// ρ_j hashes (j, m, enc(B_1), ..., enc(B_k)): B is encoded once (a
	// decoded commitment brings its bytes) and only the leading index
	// differs between signers.
	data := make([][]byte, 2+k)
	data[1] = msg
	for i, c := range sorted {
		data[2+i] = c.encoding()
	}
	indices := make([]int, k)
	points := make([]group.Point, 2*k)
	scalars := make([]*big.Int, 2*k)
	one := big.NewInt(1)
	for i, c := range sorted {
		data[0] = wire.NewWriter().Int(c.Index).Out()
		s.rho[i] = g.HashToScalar("frost/rho", data...)
		indices[i] = c.Index
		points[2*i], scalars[2*i] = c.D, one
		points[2*i+1], scalars[2*i+1] = c.E, s.rho[i]
	}
	s.r = group.MultiScalarMul(g, points, scalars)
	s.c = challenge(pk, s.r, msg)
	if s.lambda, err = share.Coefficients(indices, g.Order()); err != nil {
		return nil, err
	}
	return s, nil
}

// position returns the position of signer index in the session's
// commitment list, or -1.
func (s *Session) position(index int) int {
	for i, c := range s.comms {
		if c.Index == index {
			return i
		}
	}
	return -1
}

// challenge computes c = H2(R, Y, m).
func challenge(pk *PublicKey, r group.Point, msg []byte) *big.Int {
	return pk.Group.HashToScalar("frost/challenge", r.Marshal(), pk.Y.Marshal(), msg)
}

// Sign is FROST round 2: signer i computes its signature share
// z_i = d_i + e_i*ρ_i + λ_i*x_i*c.
func (s *Session) Sign(ks KeyShare, nonce *Nonce) (*SignatureShare, error) {
	i := s.position(ks.Index)
	if i < 0 {
		return nil, ErrNotInSignerSet
	}
	g, own := s.pk.Group, s.comms[i]
	// The signer must only use a nonce matching its own broadcast
	// commitment; mixing nonces leaks the key share.
	if !g.BaseMul(nonce.D).Equal(own.D) || !g.BaseMul(nonce.E).Equal(own.E) {
		return nil, fmt.Errorf("frost: nonce does not match own commitment")
	}
	ord := g.Order()
	z := mathutil.AddMod(nonce.D, mathutil.MulMod(nonce.E, s.rho[i], ord), ord)
	z = mathutil.AddMod(z, mathutil.MulMod(mathutil.MulMod(s.lambda[ks.Index], ks.Value, ord), s.c, ord), ord)
	return &SignatureShare{Index: ks.Index, Z: z}, nil
}

// VerifyShare checks z_i*G == D_i + ρ_i*E_i + c*λ_i*Y_i, identifying
// misbehaving signers (FROST aborts on failure rather than recovering).
func (s *Session) VerifyShare(ss *SignatureShare) error {
	pk := s.pk
	if ss == nil || ss.Z == nil || ss.Index < 1 || ss.Index > pk.N {
		return ErrInvalidShare
	}
	if ss.Z.Sign() < 0 || ss.Z.Cmp(pk.Group.Order()) >= 0 {
		return ErrInvalidShare
	}
	i := s.position(ss.Index)
	if i < 0 {
		return ErrNotInSignerSet
	}
	g, own := pk.Group, s.comms[i]
	// z_i*G - D_i - ρ_i*E_i - c*λ_i*Y_i == 0; MultiScalarMul reduces
	// the negative scalars modulo the order.
	rel := group.Relation{
		Points:  []group.Point{g.Generator(), own.D, own.E, pk.VK[ss.Index-1]},
		Scalars: []*big.Int{ss.Z, big.NewInt(-1), new(big.Int).Neg(s.rho[i]), new(big.Int).Neg(mathutil.MulMod(s.c, s.lambda[ss.Index], g.Order()))},
	}
	if !rel.Holds(g) {
		return ErrInvalidShare
	}
	return nil
}

// Combine aggregates the signature shares of the full signer set into a
// Schnorr signature and verifies it. Every signer in the commitment set
// must contribute: FROST waits for its a-priori fixed signing group.
func (s *Session) Combine(shares []*SignatureShare) (*Signature, error) {
	byIndex := make(map[int]*SignatureShare, len(shares))
	for _, ss := range shares {
		byIndex[ss.Index] = ss
	}
	g := s.pk.Group
	z := new(big.Int)
	for _, c := range s.comms {
		ss, ok := byIndex[c.Index]
		if !ok {
			return nil, fmt.Errorf("frost: missing share from signer %d: %w", c.Index, share.ErrNotEnoughShares)
		}
		z = mathutil.AddMod(z, ss.Z, g.Order())
	}
	sig := &Signature{R: s.r, Z: z}
	if !schnorrHolds(s.pk, sig, s.c) {
		return nil, ErrInvalidSignature
	}
	return sig, nil
}

// schnorrHolds checks the Schnorr relation z*G − R − c*Y == 0.
func schnorrHolds(pk *PublicKey, sig *Signature, c *big.Int) bool {
	g := pk.Group
	return group.Relation{
		Points:  []group.Point{g.Generator(), sig.R, pk.Y},
		Scalars: []*big.Int{sig.Z, big.NewInt(-1), new(big.Int).Neg(c)},
	}.Holds(g)
}

// Sign computes signer ks's share for the signer set fixed by comms:
// Session.Sign on a fresh session.
func Sign(pk *PublicKey, ks KeyShare, nonce *Nonce, msg []byte, comms []*NonceCommitment) (*SignatureShare, error) {
	s, err := NewSession(pk, msg, comms)
	if err != nil {
		return nil, err
	}
	return s.Sign(ks, nonce)
}

// VerifyShare checks one signature share: Session.VerifyShare on a
// fresh session.
func VerifyShare(pk *PublicKey, msg []byte, comms []*NonceCommitment, ss *SignatureShare) error {
	s, err := NewSession(pk, msg, comms)
	if err != nil {
		return err
	}
	return s.VerifyShare(ss)
}

// Combine aggregates and verifies a signature: Session.Combine on a
// fresh session.
func Combine(pk *PublicKey, msg []byte, comms []*NonceCommitment, shares []*SignatureShare) (*Signature, error) {
	s, err := NewSession(pk, msg, comms)
	if err != nil {
		return nil, err
	}
	return s.Combine(shares)
}

// Verify checks the combined signature as a plain Schnorr signature; the
// output is indistinguishable from a single-signer Schnorr signature.
func Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	if sig == nil || sig.R == nil || sig.Z == nil || !schnorrHolds(pk, sig, challenge(pk, sig.R, msg)) {
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
	return &NonceCommitment{Index: idx, D: d, E: e, raw: bytes.Clone(data)}, nil
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
