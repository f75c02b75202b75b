package group

// The math/big edwards25519 this package shipped until PR 21, kept
// verbatim (types renamed) as the differential oracle: the known-answer
// table in testdata/ was generated from it, and FuzzEdwardsAgainstBigInt
// and the rejection table compare the limb implementation against it
// operation by operation. It is slow, allocates per step and branches on
// scalar bits — never move it out of _test.go. One answer of it is wrong and
// is not the reference: see oraclePoint.inPrimeOrderSubgroup.

import (
	"crypto/sha512"
	"io"
	"math/big"
	"sync"

	"thetacrypt/internal/mathutil"
)

// oracleGroup is the twisted Edwards curve -x^2 + y^2 = 1 + d*x^2*y^2 over
// GF(2^255-19) on math/big, extended coordinates (X:Y:Z:T) with the
// RFC 8032 formulas.
type oracleGroup struct{}

type oracleParams struct {
	p     *big.Int // field prime 2^255 - 19
	l     *big.Int // subgroup order 2^252 + 27742317777372353535851937790883648493
	d     *big.Int // curve constant
	d2    *big.Int // 2d
	baseX *big.Int
	baseY *big.Int
	// sqrtM1 is sqrt(-1) = 2^((p-1)/4) mod p, used in point decoding.
	sqrtM1 *big.Int
}

var oracleParamsOnce = sync.OnceValue(func() *oracleParams {
	p := new(big.Int).Lsh(big.NewInt(1), 255)
	p.Sub(p, big.NewInt(19))

	l, _ := new(big.Int).SetString("7237005577332262213973186563042994240857116359379907606001950938285454250989", 10)

	// d = -121665/121666 mod p
	inv := new(big.Int).ModInverse(big.NewInt(121666), p)
	d := new(big.Int).Mul(big.NewInt(-121665), inv)
	d.Mod(d, p)

	baseX, _ := new(big.Int).SetString("15112221349535400772501151409588531511454012693041857206046113283949847762202", 10)
	baseY, _ := new(big.Int).SetString("46316835694926478169428394003475163141307993866256225615783033603165251855960", 10)

	e := new(big.Int).Rsh(new(big.Int).Sub(p, big.NewInt(1)), 2)
	sqrtM1 := new(big.Int).Exp(big.NewInt(2), e, p)

	return &oracleParams{
		p: p, l: l, d: d,
		d2:    new(big.Int).Mod(new(big.Int).Lsh(d, 1), p),
		baseX: baseX, baseY: baseY,
		sqrtM1: sqrtM1,
	}
})

// bigIntEdwards25519 returns the oracle.
func bigIntEdwards25519() Group { return oracleGroup{} }

var _ Group = oracleGroup{}

func (oracleGroup) Name() string { return "edwards25519-bigint" }

func (oracleGroup) Order() *big.Int { return oracleParamsOnce().l }

func (oracleGroup) Identity() Point {
	pp := oracleParamsOnce()
	return &oraclePoint{
		x: big.NewInt(0), y: big.NewInt(1), z: big.NewInt(1), t: big.NewInt(0), pp: pp,
	}
}

func (oracleGroup) Generator() Point {
	pp := oracleParamsOnce()
	return newOracleAffine(pp, pp.baseX, pp.baseY)
}

func (g oracleGroup) BaseMul(k *big.Int) Point { return g.Generator().Mul(k) }

func (g oracleGroup) RandomScalar(r io.Reader) (*big.Int, error) {
	return randomScalar(r, g.Order())
}

func (g oracleGroup) HashToScalar(domain string, data ...[]byte) *big.Int {
	return hashToScalar(g.Order(), domain, data...)
}

// HashToPoint maps input to the prime-order subgroup using
// try-and-increment on candidate y coordinates followed by cofactor
// clearing (multiplication by 8).
func (g oracleGroup) HashToPoint(domain string, data ...[]byte) Point {
	pp := oracleParamsOnce()
	h := sha512.New()
	h.Write([]byte("thetacrypt/h2p/" + domain))
	for _, d := range data {
		var lenbuf [8]byte
		putUint64(lenbuf[:], uint64(len(d)))
		h.Write(lenbuf[:])
		h.Write(d)
	}
	seed := h.Sum(nil)
	ctr := uint64(0)
	for {
		hh := sha512.New()
		hh.Write(seed)
		var cb [8]byte
		putUint64(cb[:], ctr)
		hh.Write(cb[:])
		digest := hh.Sum(nil)
		var enc [32]byte
		copy(enc[:], digest[:32])
		cand, err := oracleDecode(pp, enc[:])
		ctr++
		if err != nil {
			continue
		}
		// Clear the cofactor to land in the order-l subgroup.
		cleared := cand.double().double().double()
		if cleared.IsIdentity() {
			continue
		}
		return cleared
	}
}

func (oracleGroup) PointLen() int { return 32 }

func (g oracleGroup) UnmarshalPoint(data []byte) (Point, error) {
	pp := oracleParamsOnce()
	pt, err := oracleDecode(pp, data)
	if err != nil {
		return nil, err
	}
	// Reject elements outside the prime-order subgroup: mixed-order points
	// would undermine the DLEQ proofs built on this group.
	if !pt.Mul(pp.l).IsIdentity() {
		return nil, ErrInvalidPoint
	}
	return pt, nil
}

// oraclePoint is a point in extended coordinates: x = X/Z, y = Y/Z,
// T = XY/Z.
type oraclePoint struct {
	x, y, z, t *big.Int
	pp         *oracleParams
}

var _ Point = (*oraclePoint)(nil)

func newOracleAffine(pp *oracleParams, x, y *big.Int) *oraclePoint {
	return &oraclePoint{
		x:  mathutil.Clone(x),
		y:  mathutil.Clone(y),
		z:  big.NewInt(1),
		t:  mathutil.MulMod(x, y, pp.p),
		pp: pp,
	}
}

func (p *oraclePoint) Add(q Point) Point {
	qq, ok := q.(*oraclePoint)
	if !ok {
		// Mixing group implementations is a programming error; fail loud.
		panic("group: mixing edwards25519 with foreign point")
	}
	return p.add(qq)
}

// add implements the unified extended-coordinate addition (RFC 8032 §5.1.4).
func (p *oraclePoint) add(q *oraclePoint) *oraclePoint {
	fp := p.pp.p
	a := mathutil.MulMod(mathutil.SubMod(p.y, p.x, fp), mathutil.SubMod(q.y, q.x, fp), fp)
	b := mathutil.MulMod(mathutil.AddMod(p.y, p.x, fp), mathutil.AddMod(q.y, q.x, fp), fp)
	c := mathutil.MulMod(mathutil.MulMod(p.t, p.pp.d2, fp), q.t, fp)
	d := mathutil.MulMod(mathutil.AddMod(p.z, p.z, fp), q.z, fp)
	e := mathutil.SubMod(b, a, fp)
	f := mathutil.SubMod(d, c, fp)
	g := mathutil.AddMod(d, c, fp)
	h := mathutil.AddMod(b, a, fp)
	return &oraclePoint{
		x:  mathutil.MulMod(e, f, fp),
		y:  mathutil.MulMod(g, h, fp),
		t:  mathutil.MulMod(e, h, fp),
		z:  mathutil.MulMod(f, g, fp),
		pp: p.pp,
	}
}

// double implements dedicated point doubling (RFC 8032 §5.1.4).
func (p *oraclePoint) double() *oraclePoint {
	fp := p.pp.p
	a := mathutil.MulMod(p.x, p.x, fp)
	b := mathutil.MulMod(p.y, p.y, fp)
	zz := mathutil.MulMod(p.z, p.z, fp)
	c := mathutil.AddMod(zz, zz, fp)
	hh := mathutil.AddMod(a, b, fp)
	xy := mathutil.AddMod(p.x, p.y, fp)
	e := mathutil.SubMod(hh, mathutil.MulMod(xy, xy, fp), fp)
	g := mathutil.SubMod(a, b, fp)
	f := mathutil.AddMod(c, g, fp)
	return &oraclePoint{
		x:  mathutil.MulMod(e, f, fp),
		y:  mathutil.MulMod(g, hh, fp),
		t:  mathutil.MulMod(e, hh, fp),
		z:  mathutil.MulMod(f, g, fp),
		pp: p.pp,
	}
}

func (p *oraclePoint) Neg() Point {
	fp := p.pp.p
	return &oraclePoint{
		x:  mathutil.SubMod(big.NewInt(0), p.x, fp),
		y:  mathutil.Clone(p.y),
		z:  mathutil.Clone(p.z),
		t:  mathutil.SubMod(big.NewInt(0), p.t, fp),
		pp: p.pp,
	}
}

func (p *oraclePoint) Mul(k *big.Int) Point {
	kk := new(big.Int).Mod(k, p.pp.l)
	acc := oracleGroup{}.Identity().(*oraclePoint)
	for i := kk.BitLen() - 1; i >= 0; i-- {
		acc = acc.double()
		if kk.Bit(i) == 1 {
			acc = acc.add(p)
		}
	}
	return acc
}

// mulUnreduced is Mul without the reduction of k modulo l.
func (p *oraclePoint) mulUnreduced(k *big.Int) *oraclePoint {
	acc := oracleGroup{}.Identity().(*oraclePoint)
	for i := k.BitLen() - 1; i >= 0; i-- {
		acc = acc.double()
		if k.Bit(i) == 1 {
			acc = acc.add(p)
		}
	}
	return acc
}

// inPrimeOrderSubgroup is the subgroup check the oracle's UnmarshalPoint
// meant to make. Its own pt.Mul(pp.l) reduces l to 0 first, returns the
// identity for every curve point and so rejects nothing: until PR 21
// small-order and mixed-order points were accepted. The limb
// implementation multiplies by the unreduced l; tests compare it against
// this, not against oracleGroup.UnmarshalPoint.
func (p *oraclePoint) inPrimeOrderSubgroup() bool {
	return p.mulUnreduced(p.pp.l).IsIdentity()
}

func (p *oraclePoint) Equal(q Point) bool {
	qq, ok := q.(*oraclePoint)
	if !ok {
		return false
	}
	fp := p.pp.p
	// x1/z1 == x2/z2  <=>  x1*z2 == x2*z1, same for y.
	if mathutil.MulMod(p.x, qq.z, fp).Cmp(mathutil.MulMod(qq.x, p.z, fp)) != 0 {
		return false
	}
	return mathutil.MulMod(p.y, qq.z, fp).Cmp(mathutil.MulMod(qq.y, p.z, fp)) == 0
}

func (p *oraclePoint) IsIdentity() bool {
	fp := p.pp.p
	return mathutil.Mod(p.x, fp).Sign() == 0 &&
		mathutil.Mod(p.y, fp).Cmp(mathutil.Mod(p.z, fp)) == 0
}

// Marshal produces the RFC 8032 encoding: 32 bytes little-endian y with the
// sign of x in the most significant bit.
func (p *oraclePoint) Marshal() []byte {
	fp := p.pp.p
	zinv := new(big.Int).ModInverse(p.z, fp)
	x := mathutil.MulMod(p.x, zinv, fp)
	y := mathutil.MulMod(p.y, zinv, fp)
	out := make([]byte, 32)
	yb := y.Bytes()
	// big.Int.Bytes is big-endian; reverse into little-endian.
	for i := range yb {
		out[i] = yb[len(yb)-1-i]
	}
	if x.Bit(0) == 1 {
		out[31] |= 0x80
	}
	return out
}

// oracleDecode decodes an RFC 8032 point encoding and validates the curve
// equation. It does not check subgroup membership; callers that need the
// prime-order subgroup use UnmarshalPoint.
func oracleDecode(pp *oracleParams, data []byte) (*oraclePoint, error) {
	if len(data) != 32 {
		return nil, ErrInvalidPoint
	}
	var buf [32]byte
	copy(buf[:], data)
	signX := buf[31] >> 7
	buf[31] &= 0x7f
	// Little-endian to big.Int.
	for i, j := 0, 31; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	y := new(big.Int).SetBytes(buf[:])
	if y.Cmp(pp.p) >= 0 {
		return nil, ErrInvalidPoint
	}
	// Recover x from y: x^2 = (y^2 - 1) / (d*y^2 + 1).
	y2 := mathutil.MulMod(y, y, pp.p)
	u := mathutil.SubMod(y2, big.NewInt(1), pp.p)
	v := mathutil.AddMod(mathutil.MulMod(pp.d, y2, pp.p), big.NewInt(1), pp.p)
	vinv := new(big.Int).ModInverse(v, pp.p)
	if vinv == nil {
		return nil, ErrInvalidPoint
	}
	x2 := mathutil.MulMod(u, vinv, pp.p)
	x, ok := oracleSqrt(pp, x2)
	if !ok {
		return nil, ErrInvalidPoint
	}
	if x.Sign() == 0 && signX == 1 {
		return nil, ErrInvalidPoint
	}
	if uint8(x.Bit(0)) != signX {
		x = mathutil.SubMod(big.NewInt(0), x, pp.p)
	}
	return newOracleAffine(pp, x, y), nil
}

// oracleSqrt computes a square root modulo p = 2^255-19 (p ≡ 5 mod 8)
// using the candidate a^((p+3)/8) and the sqrt(-1) correction.
func oracleSqrt(pp *oracleParams, a *big.Int) (*big.Int, bool) {
	e := new(big.Int).Add(pp.p, big.NewInt(3))
	e.Rsh(e, 3)
	r := new(big.Int).Exp(a, e, pp.p)
	r2 := mathutil.MulMod(r, r, pp.p)
	am := mathutil.Mod(a, pp.p)
	if r2.Cmp(am) == 0 {
		return r, true
	}
	negA := mathutil.SubMod(big.NewInt(0), am, pp.p)
	if r2.Cmp(negA) == 0 {
		return mathutil.MulMod(r, pp.sqrtM1, pp.p), true
	}
	return nil, false
}

// multiScalarMul is the edwards25519 fast path: the interleaved binary
// method walks all scalars' bits from the top sharing a single doubling
// chain, so k terms cost one ~252-doubling pass plus the adds for set
// bits instead of k independent double-and-add ladders.
func (oracleGroup) multiScalarMul(points []Point, scalars []*big.Int) Point {
	pp := oracleParamsOnce()
	pts := make([]*oraclePoint, len(points))
	ks := make([]*big.Int, len(points))
	maxBits := 0
	for i, p := range points {
		ep, ok := p.(*oraclePoint)
		if !ok {
			panic("group: mixing edwards25519 with foreign point")
		}
		pts[i] = ep
		ks[i] = new(big.Int).Mod(scalars[i], pp.l)
		if bl := ks[i].BitLen(); bl > maxBits {
			maxBits = bl
		}
	}
	acc := oracleGroup{}.Identity().(*oraclePoint)
	for i := maxBits - 1; i >= 0; i-- {
		acc = acc.double()
		for j := range pts {
			if ks[j].Bit(i) == 1 {
				acc = acc.add(pts[j])
			}
		}
	}
	return acc
}
