// Package group defines the prime-order group abstraction shared by all
// discrete-logarithm based threshold schemes in Thetacrypt.
//
// Two implementations are provided: edwards25519 (the curve used by SG02,
// KG20, and CKS05 in the paper's Table 3) on 51-bit-limb field arithmetic
// ported from the Go distribution, and a wrapper around the standard
// library's NIST P-256 curve. Schemes are written against the Group/Point
// interfaces so the two can be swapped freely; the pairing-based schemes
// use internal/pairing instead.
//
// Scalars are *big.Int at the interface, so reducing and serialising them
// is math/big's variable-time work in either group. From the reduced
// scalar on, edwards25519's Point.Mul and Group.BaseMul — the operations
// that take key shares and nonces — run in constant time; MultiScalarMul,
// UnmarshalPoint and HashToPoint are variable-time and take public inputs
// only (see edwards25519.go). P-256 inherits whatever crypto/elliptic
// provides for a generic big.Int-coordinate caller.
package group

import (
	"crypto/sha512"
	"errors"
	"fmt"
	"io"
	"math/big"

	"thetacrypt/internal/mathutil"
)

// Point is an element of a prime-order group. Implementations are
// immutable: every operation returns a fresh Point and never mutates the
// receiver or its arguments.
type Point interface {
	// Add returns the group operation applied to the receiver and q.
	Add(q Point) Point
	// Neg returns the inverse element.
	Neg() Point
	// Mul returns the scalar multiple k*P. k is reduced modulo the group
	// order.
	Mul(k *big.Int) Point
	// Equal reports whether two points represent the same group element.
	Equal(q Point) bool
	// IsIdentity reports whether the point is the neutral element.
	IsIdentity() bool
	// Marshal returns the canonical fixed-length encoding.
	Marshal() []byte
}

// Group is a cyclic group of prime order with an associated generator and
// hash-to-group maps.
type Group interface {
	// Name returns a stable identifier ("edwards25519", "p256").
	Name() string
	// Order returns the prime group order (callers must not mutate it).
	Order() *big.Int
	// Identity returns the neutral element.
	Identity() Point
	// Generator returns the standard base point.
	Generator() Point
	// BaseMul returns k*G for the standard generator.
	BaseMul(k *big.Int) Point
	// RandomScalar returns a uniform scalar in [0, Order).
	RandomScalar(rand io.Reader) (*big.Int, error)
	// HashToScalar maps domain-separated input to a scalar.
	HashToScalar(domain string, data ...[]byte) *big.Int
	// HashToPoint maps domain-separated input to a group element of
	// unknown discrete logarithm.
	HashToPoint(domain string, data ...[]byte) Point
	// PointLen returns the length of Marshal output in bytes.
	PointLen() int
	// UnmarshalPoint decodes a canonical encoding, rejecting points that
	// are not valid elements of the prime-order group.
	UnmarshalPoint(data []byte) (Point, error)
}

// ErrInvalidPoint is returned by UnmarshalPoint for malformed or
// out-of-group encodings.
var ErrInvalidPoint = errors.New("group: invalid point encoding")

// ByName returns a registered group implementation.
func ByName(name string) (Group, error) {
	switch name {
	case "edwards25519":
		return Edwards25519(), nil
	case "p256":
		return P256(), nil
	default:
		return nil, fmt.Errorf("group: unknown group %q", name)
	}
}

// hashToScalar derives a scalar below order from SHA-512 over a
// domain-separated transcript. A 512-bit digest keeps the modular bias
// below 2^-256 for ~252-bit orders.
func hashToScalar(order *big.Int, domain string, data ...[]byte) *big.Int {
	h := sha512.New()
	h.Write([]byte(domain))
	for _, d := range data {
		// Length-prefix each chunk so transcripts are unambiguous.
		var lenbuf [8]byte
		putUint64(lenbuf[:], uint64(len(d)))
		h.Write(lenbuf[:])
		h.Write(d)
	}
	digest := h.Sum(nil)
	return new(big.Int).Mod(new(big.Int).SetBytes(digest), order)
}

func putUint64(b []byte, v uint64) {
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
}

// randomScalar draws a uniform scalar in [0, order).
func randomScalar(r io.Reader, order *big.Int) (*big.Int, error) {
	return mathutil.RandInt(r, order)
}
