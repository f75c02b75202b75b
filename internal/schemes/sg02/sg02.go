// Package sg02 implements the Shoup-Gennaro TDH2 threshold cryptosystem
// (SG02): a non-interactive, CCA-secure threshold public-key encryption
// scheme over a discrete-logarithm group, with zero-knowledge proofs for
// both ciphertext validity and decryption-share correctness.
//
// The implementation follows the hybrid approach of the paper: the
// threshold layer encapsulates a 256-bit data-encapsulation key and the
// actual payload is sealed with an AEAD under that key.
package sg02

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
	"thetacrypt/internal/zkp"
)

// Scheme-level errors suitable for errors.Is matching.
var (
	ErrInvalidCiphertext = errors.New("sg02: invalid ciphertext")
	ErrInvalidShare      = errors.New("sg02: invalid decryption share")
)

// PublicKey is the scheme public key, the discrete-log key shared by
// SG02, KG20 and CKS05: Y is the encryption key h = x*G, and VK holds
// the per-party verification keys h_i = x_i*G (VK[0] belongs to party
// 1).
type PublicKey = share.PublicKey

// KeyShare is party i's share x_i (Value) of the decryption key.
type KeyShare = share.Share

// Ciphertext is a TDH2 hybrid ciphertext under the encryption key
// h = PublicKey.Y:
//
//	EncKey  = H1(h^r) XOR dek            (key encapsulation)
//	Payload = AEAD(dek, message, label)  (data encapsulation)
//	U = r*G, UBar = r*Ḡ                  (encryption randomness)
//	E, F                                  (Fiat-Shamir validity proof)
type Ciphertext struct {
	Label   []byte
	EncKey  []byte
	Payload []byte
	U       group.Point
	UBar    group.Point
	E       *big.Int
	F       *big.Int
}

// gBars caches Ḡ per group name: it depends on nothing else, and
// hashing it to the curve costs more than a scalar multiplication.
// Points are immutable, so one value is shared by every goroutine.
var gBars sync.Map

// gBar derives the second independent generator Ḡ whose discrete log is
// unknown.
func gBar(g group.Group) group.Point {
	if p, ok := gBars.Load(g.Name()); ok {
		return p.(group.Point)
	}
	p, _ := gBars.LoadOrStore(g.Name(), g.HashToPoint("sg02/gbar", []byte(g.Name())))
	return p.(group.Point)
}

// Encrypt produces a ciphertext of message bound to label.
func Encrypt(rand io.Reader, pk *PublicKey, message, label []byte) (*Ciphertext, error) {
	g := pk.Group
	dek, err := schemes.NewDEK(rand)
	if err != nil {
		return nil, err
	}
	payload, err := schemes.SealPayload(rand, dek, message, label)
	if err != nil {
		return nil, err
	}
	r, err := g.RandomScalar(rand)
	if err != nil {
		return nil, fmt.Errorf("sample r: %w", err)
	}
	s, err := g.RandomScalar(rand)
	if err != nil {
		return nil, fmt.Errorf("sample s: %w", err)
	}
	gb := gBar(g)
	u := g.BaseMul(r)
	w := g.BaseMul(s)
	ub := gb.Mul(r)
	wb := gb.Mul(s)
	encKey, err := schemes.XORBytes(kdf(pk.Y.Mul(r)), dek)
	if err != nil {
		return nil, err
	}
	e := validityChallenge(g, encKey, label, u, w, ub, wb)
	f := mathutil.AddMod(s, mathutil.MulMod(r, e, g.Order()), g.Order())
	return &Ciphertext{
		Label: append([]byte(nil), label...), EncKey: encKey, Payload: payload,
		U: u, UBar: ub, E: e, F: f,
	}, nil
}

// VerifyCiphertext checks the TDH2 validity proof; invalid ciphertexts
// are rejected before any decryption share is produced (CCA security).
func VerifyCiphertext(pk *PublicKey, ct *Ciphertext) error {
	g := pk.Group
	if ct == nil || ct.U == nil || ct.UBar == nil || ct.E == nil || ct.F == nil {
		return ErrInvalidCiphertext
	}
	if ct.E.Sign() < 0 || ct.E.Cmp(g.Order()) >= 0 || ct.F.Sign() < 0 || ct.F.Cmp(g.Order()) >= 0 {
		return ErrInvalidCiphertext
	}
	if len(ct.EncKey) != schemes.DEKSize {
		return ErrInvalidCiphertext
	}
	gb := gBar(g)
	// w = f*G - e*U ; wBar = f*Ḡ - e*UBar
	w := g.BaseMul(ct.F).Add(ct.U.Mul(ct.E).Neg())
	wb := gb.Mul(ct.F).Add(ct.UBar.Mul(ct.E).Neg())
	e := validityChallenge(g, ct.EncKey, ct.Label, ct.U, w, ct.UBar, wb)
	if e.Cmp(ct.E) != 0 {
		return ErrInvalidCiphertext
	}
	return nil
}

// DecShare is party i's decryption share U_i = x_i*U with a DLEQ proof
// that it matches the party's verification key.
type DecShare struct {
	Index int
	U     group.Point
	Proof *zkp.DLEQProof
}

// DecryptShare produces party i's decryption share for a valid
// ciphertext. The ciphertext proof is checked first: decrypting invalid
// ciphertexts would break CCA security.
func DecryptShare(rand io.Reader, pk *PublicKey, ks KeyShare, ct *Ciphertext) (*DecShare, error) {
	if err := VerifyCiphertext(pk, ct); err != nil {
		return nil, err
	}
	g := pk.Group
	ui := ct.U.Mul(ks.Value)
	proof, err := zkp.ProveDLEQ(rand, g, "sg02/share",
		g.Generator(), pk.VK[ks.Index-1], ct.U, ui, ks.Value, ct.EncKey)
	if err != nil {
		return nil, err
	}
	return &DecShare{Index: ks.Index, U: ui, Proof: proof}, nil
}

// VerifyShare checks a decryption share against the ciphertext and the
// issuing party's verification key.
func VerifyShare(pk *PublicKey, ct *Ciphertext, ds *DecShare) error {
	rels, err := ShareRelations(pk, ct, ds)
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

// ShareRelations performs the structural checks and Fiat-Shamir
// recomputation of share verification eagerly and returns the linear
// point relations whose truth completes it, for the precompute layer's
// verifier to check directly and count.
func ShareRelations(pk *PublicKey, ct *Ciphertext, ds *DecShare) ([]group.Relation, error) {
	if ds == nil || ds.U == nil || ds.Index < 1 || ds.Index > pk.N {
		return nil, ErrInvalidShare
	}
	g := pk.Group
	rels, err := zkp.DLEQRelations(g, "sg02/share",
		g.Generator(), pk.VK[ds.Index-1], ct.U, ds.U, ds.Proof, ct.EncKey)
	if err != nil {
		return nil, ErrInvalidShare
	}
	return rels, nil
}

// Combine interpolates t+1 verified decryption shares into h^r, unwraps
// the data-encapsulation key, and opens the payload. The AEAD tag is the
// result verification: a wrong combination cannot authenticate.
func Combine(pk *PublicKey, ct *Ciphertext, dss []*DecShare) ([]byte, error) {
	if err := VerifyCiphertext(pk, ct); err != nil {
		return nil, err
	}
	return CombineVerified(pk, ct, dss)
}

// CombineVerified is Combine without the ciphertext check, for a
// caller that has already passed this very ciphertext through
// VerifyCiphertext — typically through DecryptShare, which a party runs
// before it combines — so one party checks one ciphertext once. The
// shares must be verified (VerifyShare or their ShareRelations), and
// the AEAD tag is still checked on the way out.
func CombineVerified(pk *PublicKey, ct *Ciphertext, dss []*DecShare) ([]byte, error) {
	if len(dss) < pk.T+1 {
		return nil, share.ErrNotEnoughShares
	}
	points := make(map[int]group.Point, pk.T+1)
	for _, ds := range dss {
		if len(points) == pk.T+1 {
			break
		}
		points[ds.Index] = ds.U
	}
	if len(points) < pk.T+1 {
		return nil, share.ErrDuplicateIndex
	}
	hr, err := share.InterpolateInExponent(pk.Group, points)
	if err != nil {
		return nil, err
	}
	dek, err := schemes.XORBytes(kdf(hr), ct.EncKey)
	if err != nil {
		return nil, err
	}
	msg, err := schemes.OpenPayload(dek, ct.Payload, ct.Label)
	if err != nil {
		return nil, fmt.Errorf("sg02 combine: %w", err)
	}
	return msg, nil
}

// kdf derives the 32-byte key-encapsulation pad H1(point).
func kdf(p group.Point) []byte {
	h := sha256.Sum256(append([]byte("sg02/kdf"), p.Marshal()...))
	return h[:]
}

func validityChallenge(g group.Group, encKey, label []byte, u, w, ub, wb group.Point) *big.Int {
	return g.HashToScalar("sg02/validity",
		encKey, label, u.Marshal(), w.Marshal(), ub.Marshal(), wb.Marshal())
}

// Marshal encodes the ciphertext.
func (ct *Ciphertext) Marshal() []byte {
	return wire.NewWriter().
		Bytes(ct.Label).Bytes(ct.EncKey).Bytes(ct.Payload).
		Bytes(ct.U.Marshal()).Bytes(ct.UBar.Marshal()).
		BigInt(ct.E).BigInt(ct.F).Out()
}

// UnmarshalCiphertext decodes a ciphertext for the given group. It
// accepts only the encoding Marshal gives: E and F canonical natural
// numbers and no trailing bytes, so one ciphertext has one encoding
// (and a request on it one instance ID).
func UnmarshalCiphertext(g group.Group, data []byte) (*Ciphertext, error) {
	r := wire.NewReader(data)
	ct := &Ciphertext{
		Label:   r.Bytes(),
		EncKey:  r.Bytes(),
		Payload: r.Bytes(),
	}
	uRaw := r.Bytes()
	ubRaw := r.Bytes()
	ct.E = r.Nat()
	ct.F = r.Nat()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("sg02 ciphertext: %w", err)
	}
	var err error
	if ct.U, err = g.UnmarshalPoint(uRaw); err != nil {
		return nil, fmt.Errorf("sg02 ciphertext U: %w", err)
	}
	if ct.UBar, err = g.UnmarshalPoint(ubRaw); err != nil {
		return nil, fmt.Errorf("sg02 ciphertext UBar: %w", err)
	}
	return ct, nil
}

// Marshal encodes the decryption share.
func (ds *DecShare) Marshal() []byte {
	return wire.NewWriter().
		Int(ds.Index).Bytes(ds.U.Marshal()).Bytes(ds.Proof.Marshal()).Out()
}

// UnmarshalDecShare decodes a decryption share for the given group,
// accepting only the encoding Marshal gives.
func UnmarshalDecShare(g group.Group, data []byte) (*DecShare, error) {
	r := wire.NewReader(data)
	idx := r.Int()
	uRaw := r.Bytes()
	proofRaw := r.Bytes()
	if err := r.End(); err != nil {
		return nil, fmt.Errorf("sg02 share: %w", err)
	}
	u, err := g.UnmarshalPoint(uRaw)
	if err != nil {
		return nil, fmt.Errorf("sg02 share U: %w", err)
	}
	proof, err := zkp.UnmarshalDLEQ(g, proofRaw)
	if err != nil {
		return nil, fmt.Errorf("sg02 share proof: %w", err)
	}
	return &DecShare{Index: idx, U: u, Proof: proof}, nil
}
