package group

import (
	"crypto/sha512"
	"io"
	"math/big"
)

// edwards25519 is the prime-order subgroup of the twisted Edwards curve
// -x^2 + y^2 = 1 + d*x^2*y^2 over GF(2^255-19), the curve underlying
// Ed25519. Field elements are five 51-bit limbs (edwards25519_field.go)
// and points are extended coordinates (edwards25519_curve.go), both
// ported from the Go distribution's crypto/internal/fips140/edwards25519;
// this file adapts them to the Group/Point interfaces, whose scalars are
// *big.Int.
//
// Constant-time with respect to the scalar: Point.Mul and Group.BaseMul —
// the two operations that see key shares and FROST nonces. Each recodes
// its scalar to 64 signed radix-16 digits, runs the same sequence of point
// operations for every scalar and selects table entries by masking over
// the whole table (see edPoint.scalarMult and scalarBaseMult). The claim
// starts at the 32 reduced bytes: reducing the *big.Int modulo the group
// order and serialising it is math/big's work and is not constant-time.
//
// Deliberately variable-time, public inputs only: multiScalarMul (its
// callers — share.Fold, interpolation in the exponent,
// Relation.Holds — pass public coefficients), UnmarshalPoint including its
// subgroup check, HashToPoint, Equal and IsIdentity.

type ed25519Group struct{}

var ed25519Order, _ = new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

// Edwards25519 returns the prime-order edwards25519 group.
func Edwards25519() Group { return ed25519Group{} }

var _ Group = ed25519Group{}

func (ed25519Group) Name() string { return "edwards25519" }

func (ed25519Group) Order() *big.Int { return ed25519Order }

func (ed25519Group) Identity() Point { return &ed25519Point{edIdentity} }

func (ed25519Group) Generator() Point { return &ed25519Point{edGenerator} }

// BaseMul returns k*G from the precomputed base-point table, in constant
// time with respect to k.
func (ed25519Group) BaseMul(k *big.Int) Point {
	s := ed25519Scalar(k)
	r := new(ed25519Point)
	r.p.scalarBaseMult(&s)
	return r
}

func (g ed25519Group) RandomScalar(r io.Reader) (*big.Int, error) {
	return randomScalar(r, g.Order())
}

func (g ed25519Group) HashToScalar(domain string, data ...[]byte) *big.Int {
	return hashToScalar(g.Order(), domain, data...)
}

// HashToPoint maps input to the prime-order subgroup using
// try-and-increment on candidate y coordinates followed by cofactor
// clearing (multiplication by 8).
func (g ed25519Group) HashToPoint(domain string, data ...[]byte) Point {
	h := sha512.New()
	h.Write([]byte("thetacrypt/h2p/" + domain))
	for _, d := range data {
		var lenbuf [8]byte
		putUint64(lenbuf[:], uint64(len(d)))
		h.Write(lenbuf[:])
		h.Write(d)
	}
	seed := h.Sum(nil)
	for ctr := uint64(0); ; ctr++ {
		hh := sha512.New()
		hh.Write(seed)
		var cb [8]byte
		putUint64(cb[:], ctr)
		hh.Write(cb[:])
		digest := hh.Sum(nil)
		cand := new(ed25519Point)
		if !cand.p.setBytes(digest[:32]) {
			continue
		}
		// Clear the cofactor to land in the order-l subgroup.
		cand.p.double(&cand.p)
		cand.p.double(&cand.p)
		cand.p.double(&cand.p)
		if cand.IsIdentity() {
			continue
		}
		return cand
	}
}

func (ed25519Group) PointLen() int { return 32 }

func (ed25519Group) UnmarshalPoint(data []byte) (Point, error) {
	pt := new(ed25519Point)
	if !pt.p.setBytes(data) {
		return nil, ErrInvalidPoint
	}
	// Reject elements outside the prime-order subgroup: mixed-order points
	// would undermine the DLEQ proofs built on this group.
	if !pt.p.inPrimeOrderSubgroup() {
		return nil, ErrInvalidPoint
	}
	return pt, nil
}

// ed25519Scalar reduces k modulo the group order and returns it as the 32
// little-endian bytes the curve arithmetic takes.
func ed25519Scalar(k *big.Int) [32]byte {
	var s [32]byte
	new(big.Int).Mod(k, ed25519Order).FillBytes(s[:])
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		s[i], s[j] = s[j], s[i]
	}
	return s
}

// ed25519Point is an immutable point of the prime-order subgroup.
type ed25519Point struct {
	p edPoint
}

var _ Point = (*ed25519Point)(nil)

// asEd25519 unwraps an operand; mixing group implementations is a
// programming error, so it fails loud.
func asEd25519(q Point) *ed25519Point {
	qq, ok := q.(*ed25519Point)
	if !ok {
		panic("group: mixing edwards25519 with foreign point")
	}
	return qq
}

func (p *ed25519Point) Add(q Point) Point {
	r := new(ed25519Point)
	r.p.add(&p.p, &asEd25519(q).p)
	return r
}

func (p *ed25519Point) Neg() Point {
	r := new(ed25519Point)
	r.p.negate(&p.p)
	return r
}

// Mul returns k*P by the signed fixed-window ladder, in constant time with
// respect to k.
func (p *ed25519Point) Mul(k *big.Int) Point {
	s := ed25519Scalar(k)
	r := new(ed25519Point)
	r.p.scalarMult(&s, &p.p)
	return r
}

func (p *ed25519Point) Equal(q Point) bool {
	qq, ok := q.(*ed25519Point)
	return ok && p.p.equal(&qq.p) == 1
}

func (p *ed25519Point) IsIdentity() bool { return p.p.isIdentity() == 1 }

// Marshal produces the RFC 8032 encoding: 32 bytes little-endian y with the
// sign of x in the most significant bit.
func (p *ed25519Point) Marshal() []byte {
	out := p.p.bytes()
	return out[:]
}

// msmStackTerms is the largest multi-scalar multiplication whose
// scratch space (about 1.5 kB per term) lives on the stack.
const msmStackTerms = 8

// multiScalarMul is the edwards25519 fast path of MultiScalarMul: Straus's
// method over width-5 NAFs, so k terms share one doubling chain and each
// costs a table of eight odd multiples plus about one addition per six
// scalar bits. Variable-time — callers pass public scalars only. Up to
// msmStackTerms terms (a FROST commitment sum or Schnorr check, a DLEQ
// relation) keep their NAFs and tables on the stack.
func (ed25519Group) multiScalarMul(points []Point, scalars []*big.Int) Point {
	var nafBuf [msmStackTerms][256]int8
	var tableBuf [msmStackTerms]nafLookupTable5
	nafs, tables := nafBuf[:], tableBuf[:]
	if len(points) > msmStackTerms {
		nafs, tables = make([][256]int8, len(points)), make([]nafLookupTable5, len(points))
	}
	nafs, tables = nafs[:len(points)], tables[:len(points)]
	for i, p := range points {
		s := ed25519Scalar(scalars[i])
		nafs[i] = nonAdjacentForm5(&s)
		tables[i].fromP3(&asEd25519(p).p)
	}
	r := new(ed25519Point)
	r.p.varTimeNAFSum(nafs, tables)
	return r
}
