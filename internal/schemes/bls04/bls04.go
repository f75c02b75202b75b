// Package bls04 implements the Boneh-Lynn-Shacham threshold signature
// scheme (BLS04) over the BN254 pairing: short deterministic signatures
// in G1 with public keys in G2. The key homomorphism makes the scheme
// directly threshold-friendly; signature shares are verified with a
// pairing equation instead of a ZKP (the paper's Table 1).
package bls04

import (
	"errors"
	"fmt"
	"io"

	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/pairing"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// Scheme-level errors suitable for errors.Is matching.
var (
	ErrInvalidShare     = errors.New("bls04: invalid signature share")
	ErrInvalidSignature = errors.New("bls04: invalid signature")
)

// PublicKey is the group public key Y = x*G2 with per-party verification
// keys VK[i-1] = x_i*G2.
type PublicKey struct {
	Y  *pairing.G2
	VK []*pairing.G2
	T  int
	N  int
}

// KeyShare is party i's share x_i (Value) of the signing key.
type KeyShare = share.Share

// Deal runs the trusted-dealer setup.
func Deal(rand io.Reader, t, n int) (*PublicKey, []KeyShare, error) {
	if err := share.ValidateParams(t, n); err != nil {
		return nil, nil, err
	}
	x, err := mathutil.RandInt(rand, pairing.Order())
	if err != nil {
		return nil, nil, fmt.Errorf("sample secret: %w", err)
	}
	shares, err := share.Split(rand, x, t, n, pairing.Order())
	if err != nil {
		return nil, nil, err
	}
	pk := &PublicKey{Y: pairing.G2BaseMul(x), VK: make([]*pairing.G2, n), T: t, N: n}
	for i, s := range shares {
		pk.VK[i] = pairing.G2BaseMul(s.Value)
	}
	return pk, shares, nil
}

// SigShare is party i's partial signature x_i*H(m).
type SigShare struct {
	Index int
	S     *pairing.G1
}

// Signature is a combined BLS signature, a single G1 point.
type Signature struct {
	S *pairing.G1
}

// hashToPoint maps a message to G1.
func hashToPoint(msg []byte) *pairing.G1 {
	return pairing.HashToG1("bls04/msg", msg)
}

// SignShare produces party i's deterministic signature share.
func SignShare(ks KeyShare, msg []byte) *SigShare {
	return &SigShare{Index: ks.Index, S: hashToPoint(msg).Mul(ks.Value)}
}

// VerifyShare checks e(S_i, G2) == e(H(m), VK_i).
func VerifyShare(pk *PublicKey, msg []byte, ss *SigShare) error {
	if ss == nil || ss.S == nil || ss.Index < 1 || ss.Index > pk.N {
		return ErrInvalidShare
	}
	if !pairing.PairingCheck(ss.S, pairing.G2Generator(), hashToPoint(msg), pk.VK[ss.Index-1]) {
		return ErrInvalidShare
	}
	return nil
}

// Combine interpolates t+1 signature shares in G1 and verifies the
// result against the group public key (the paper's result verification).
func Combine(pk *PublicKey, msg []byte, shares []*SigShare) (*Signature, error) {
	if len(shares) < pk.T+1 {
		return nil, share.ErrNotEnoughShares
	}
	chosen := make(map[int]*pairing.G1, pk.T+1)
	for _, ss := range shares {
		if len(chosen) == pk.T+1 {
			break
		}
		chosen[ss.Index] = ss.S
	}
	if len(chosen) < pk.T+1 {
		return nil, share.ErrDuplicateIndex
	}
	subset := make([]int, 0, len(chosen))
	for idx := range chosen {
		subset = append(subset, idx)
	}
	coeffs, err := share.Coefficients(subset, pairing.Order())
	if err != nil {
		return nil, err
	}
	acc := pairing.G1Identity()
	for idx, s := range chosen {
		acc = acc.Add(s.Mul(coeffs[idx]))
	}
	sig := &Signature{S: acc}
	if err := Verify(pk, msg, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// Verify checks e(σ, G2) == e(H(m), Y).
func Verify(pk *PublicKey, msg []byte, sig *Signature) error {
	if sig == nil || sig.S == nil || sig.S.IsIdentity() {
		return ErrInvalidSignature
	}
	if !pairing.PairingCheck(sig.S, pairing.G2Generator(), hashToPoint(msg), pk.Y) {
		return ErrInvalidSignature
	}
	return nil
}

// Marshal encodes the signature share.
func (ss *SigShare) Marshal() []byte {
	return wire.NewWriter().Int(ss.Index).Bytes(ss.S.Marshal()).Out()
}

// UnmarshalSigShare decodes a signature share. It refuses trailing
// bytes, so an accepted share re-encodes to itself.
func UnmarshalSigShare(data []byte) (*SigShare, error) {
	r := wire.NewReader(data)
	idx := r.Int()
	sRaw := r.Bytes()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("bls04 share: %w", err)
	}
	s, ok := pairing.UnmarshalG1(sRaw)
	if !ok {
		return nil, fmt.Errorf("bls04 share point: %w", ErrInvalidShare)
	}
	return &SigShare{Index: idx, S: s}, nil
}

// Marshal encodes the signature.
func (sig *Signature) Marshal() []byte { return sig.S.Marshal() }

// UnmarshalSignature decodes a signature.
func UnmarshalSignature(data []byte) (*Signature, error) {
	s, ok := pairing.UnmarshalG1(data)
	if !ok {
		return nil, ErrInvalidSignature
	}
	return &Signature{S: s}, nil
}
