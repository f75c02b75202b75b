// Package bz03 implements the Baek-Zheng threshold cryptosystem (BZ03)
// over the BN254 Gap Diffie-Hellman groups. Like SG02 it is a
// non-interactive CCA-secure threshold cipher, but ciphertext and share
// validity are checked with pairing equations instead of zero-knowledge
// proofs (the paper's Table 1), and it uses the same hybrid
// key-encapsulation approach.
//
// Structure of a ciphertext for message m with label L:
//
//	U = r*G1
//	EncKey = H2(r*Y) XOR dek        with Y = x*G1 the public key
//	Payload = AEAD(dek, m, L)
//	W = r*H3(U, EncKey, Payload, L) ∈ G2
//
// Validity: e(G1, W) == e(U, H3(...)). Decryption share: δ_i = x_i*U,
// valid iff e(δ_i, G2) == e(U, VK_i) with VK_i = x_i*G2.
package bz03

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/pairing"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// Scheme-level errors suitable for errors.Is matching.
var (
	ErrInvalidCiphertext = errors.New("bz03: invalid ciphertext")
	ErrInvalidShare      = errors.New("bz03: invalid decryption share")
)

// PublicKey is the encryption key Y = x*G1 plus per-party verification
// keys VK[i-1] = x_i*G2.
type PublicKey struct {
	Y  *pairing.G1
	VK []*pairing.G2
	T  int
	N  int
}

// KeyShare is party i's share x_i (Value) of the decryption key.
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
	pk := &PublicKey{Y: pairing.G1BaseMul(x), VK: make([]*pairing.G2, n), T: t, N: n}
	for i, s := range shares {
		pk.VK[i] = pairing.G2BaseMul(s.Value)
	}
	return pk, shares, nil
}

// Ciphertext is a BZ03 hybrid ciphertext.
type Ciphertext struct {
	Label   []byte
	EncKey  []byte
	Payload []byte
	U       *pairing.G1
	W       *pairing.G2
}

// Encrypt produces a ciphertext of message bound to label.
func Encrypt(rand io.Reader, pk *PublicKey, message, label []byte) (*Ciphertext, error) {
	dek, err := schemes.NewDEK(rand)
	if err != nil {
		return nil, err
	}
	payload, err := schemes.SealPayload(rand, dek, message, label)
	if err != nil {
		return nil, err
	}
	r, err := mathutil.RandInt(rand, pairing.Order())
	if err != nil {
		return nil, fmt.Errorf("sample r: %w", err)
	}
	u := pairing.G1BaseMul(r)
	encKey, err := schemes.XORBytes(kdf(pk.Y.Mul(r)), dek)
	if err != nil {
		return nil, err
	}
	w := validityPoint(u, encKey, payload, label).Mul(r)
	return &Ciphertext{
		Label: append([]byte(nil), label...), EncKey: encKey, Payload: payload,
		U: u, W: w,
	}, nil
}

// VerifyCiphertext checks the pairing-based validity equation
// e(G1, W) == e(U, H3(U, EncKey, Payload, Label)).
func VerifyCiphertext(pk *PublicKey, ct *Ciphertext) error {
	if ct == nil || ct.U == nil || ct.W == nil || ct.U.IsIdentity() {
		return ErrInvalidCiphertext
	}
	if len(ct.EncKey) != schemes.DEKSize {
		return ErrInvalidCiphertext
	}
	h := validityPoint(ct.U, ct.EncKey, ct.Payload, ct.Label)
	if !pairing.PairingCheck(pairing.G1Generator(), ct.W, ct.U, h) {
		return ErrInvalidCiphertext
	}
	return nil
}

// DecShare is party i's decryption share δ_i = x_i*U. No ZKP is
// attached: validity is publicly checkable with a pairing.
type DecShare struct {
	Index int
	D     *pairing.G1
}

// DecryptShare produces party i's decryption share for a valid
// ciphertext.
func DecryptShare(pk *PublicKey, ks KeyShare, ct *Ciphertext) (*DecShare, error) {
	if err := VerifyCiphertext(pk, ct); err != nil {
		return nil, err
	}
	return &DecShare{Index: ks.Index, D: ct.U.Mul(ks.Value)}, nil
}

// VerifyShare checks e(δ_i, G2) == e(U, VK_i).
func VerifyShare(pk *PublicKey, ct *Ciphertext, ds *DecShare) error {
	if ds == nil || ds.D == nil || ds.Index < 1 || ds.Index > pk.N {
		return ErrInvalidShare
	}
	if !pairing.PairingCheck(ds.D, pairing.G2Generator(), ct.U, pk.VK[ds.Index-1]) {
		return ErrInvalidShare
	}
	return nil
}

// Combine interpolates t+1 decryption shares into x*U, unwraps the DEK,
// and opens the payload (AEAD doubles as result verification).
func Combine(pk *PublicKey, ct *Ciphertext, dss []*DecShare) ([]byte, error) {
	if err := VerifyCiphertext(pk, ct); err != nil {
		return nil, err
	}
	if len(dss) < pk.T+1 {
		return nil, share.ErrNotEnoughShares
	}
	chosen := make(map[int]*pairing.G1, pk.T+1)
	for _, ds := range dss {
		if len(chosen) == pk.T+1 {
			break
		}
		chosen[ds.Index] = ds.D
	}
	if len(chosen) < pk.T+1 {
		return nil, share.ErrDuplicateIndex
	}
	subset := make([]int, 0, len(chosen))
	for idx := range chosen {
		subset = append(subset, idx)
	}
	acc := pairing.G1Identity()
	for idx, d := range chosen {
		lambda, err := share.LagrangeCoefficient(idx, subset, pairing.Order())
		if err != nil {
			return nil, err
		}
		acc = acc.Add(d.Mul(lambda))
	}
	dek, err := schemes.XORBytes(kdf(acc), ct.EncKey)
	if err != nil {
		return nil, err
	}
	msg, err := schemes.OpenPayload(dek, ct.Payload, ct.Label)
	if err != nil {
		return nil, fmt.Errorf("bz03 combine: %w", err)
	}
	return msg, nil
}

// kdf derives the 32-byte key-encapsulation pad H2(point).
func kdf(p *pairing.G1) []byte {
	h := sha256.Sum256(append([]byte("bz03/kdf"), p.Marshal()...))
	return h[:]
}

// validityPoint computes H3(U, EncKey, Payload, Label) ∈ G2.
func validityPoint(u *pairing.G1, encKey, payload, label []byte) *pairing.G2 {
	return pairing.HashToG2("bz03/validity", u.Marshal(), encKey, payload, label)
}

// Marshal encodes the ciphertext.
func (ct *Ciphertext) Marshal() []byte {
	return wire.NewWriter().
		Bytes(ct.Label).Bytes(ct.EncKey).Bytes(ct.Payload).
		Bytes(ct.U.Marshal()).Bytes(ct.W.Marshal()).Out()
}

// UnmarshalCiphertext decodes a ciphertext. It refuses trailing bytes,
// so one ciphertext has one encoding (and a request on it one instance
// ID).
func UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	r := wire.NewReader(data)
	ct := &Ciphertext{
		Label:   r.Bytes(),
		EncKey:  r.Bytes(),
		Payload: r.Bytes(),
	}
	uRaw := r.Bytes()
	wRaw := r.Bytes()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("bz03 ciphertext: %w", err)
	}
	u, ok := pairing.UnmarshalG1(uRaw)
	if !ok {
		return nil, fmt.Errorf("bz03 ciphertext U: %w", ErrInvalidCiphertext)
	}
	w, ok := pairing.UnmarshalG2(wRaw)
	if !ok {
		return nil, fmt.Errorf("bz03 ciphertext W: %w", ErrInvalidCiphertext)
	}
	ct.U, ct.W = u, w
	return ct, nil
}

// Marshal encodes the decryption share.
func (ds *DecShare) Marshal() []byte {
	return wire.NewWriter().Int(ds.Index).Bytes(ds.D.Marshal()).Out()
}

// UnmarshalDecShare decodes a decryption share. It refuses trailing
// bytes, so an accepted share re-encodes to itself.
func UnmarshalDecShare(data []byte) (*DecShare, error) {
	r := wire.NewReader(data)
	idx := r.Int()
	dRaw := r.Bytes()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("bz03 share: %w", err)
	}
	d, ok := pairing.UnmarshalG1(dRaw)
	if !ok {
		return nil, fmt.Errorf("bz03 share point: %w", ErrInvalidShare)
	}
	return &DecShare{Index: idx, D: d}, nil
}
