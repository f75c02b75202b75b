package group

import (
	"crypto/elliptic"
	"crypto/sha256"
	"io"
	"math/big"

	"thetacrypt/internal/mathutil"
)

// p256Group wraps the standard library's NIST P-256 curve behind the Group
// interface. P-256 has a prime-order group (cofactor 1), so no subgroup
// checks are needed beyond the on-curve check. It is the second Group the
// schemes can be keyed on (the benchmark's P-256 workloads), with the
// stdlib's scalar multiplication underneath and math/big coordinates at
// the seam.
type p256Group struct{}

// P256 returns the NIST P-256 group.
func P256() Group { return p256Group{} }

var _ Group = p256Group{}

func (p256Group) Name() string { return "p256" }

func (p256Group) Order() *big.Int { return elliptic.P256().Params().N }

func (p256Group) Identity() Point { return &p256Point{infinity: true} }

func (p256Group) Generator() Point {
	params := elliptic.P256().Params()
	return &p256Point{x: mathutil.Clone(params.Gx), y: mathutil.Clone(params.Gy)}
}

func (g p256Group) BaseMul(k *big.Int) Point {
	kk := new(big.Int).Mod(k, g.Order())
	if kk.Sign() == 0 {
		return g.Identity()
	}
	x, y := elliptic.P256().ScalarBaseMult(kk.Bytes())
	return &p256Point{x: x, y: y}
}

func (g p256Group) RandomScalar(r io.Reader) (*big.Int, error) {
	return randomScalar(r, g.Order())
}

func (g p256Group) HashToScalar(domain string, data ...[]byte) *big.Int {
	return hashToScalar(g.Order(), domain, data...)
}

// HashToPoint uses try-and-increment: derive candidate x coordinates from
// a counter-extended hash until one lies on the curve, then choose the
// even-y root deterministically.
func (g p256Group) HashToPoint(domain string, data ...[]byte) Point {
	params := elliptic.P256().Params()
	seedH := sha256.New()
	seedH.Write([]byte("thetacrypt/h2p/" + domain))
	for _, d := range data {
		var lenbuf [8]byte
		putUint64(lenbuf[:], uint64(len(d)))
		seedH.Write(lenbuf[:])
		seedH.Write(d)
	}
	seed := seedH.Sum(nil)
	for ctr := uint64(0); ; ctr++ {
		h := sha256.New()
		h.Write(seed)
		var cb [8]byte
		putUint64(cb[:], ctr)
		h.Write(cb[:])
		x := new(big.Int).SetBytes(h.Sum(nil))
		if x.Cmp(params.P) >= 0 {
			continue
		}
		// y^2 = x^3 - 3x + b
		y2 := new(big.Int).Mul(x, x)
		y2.Mul(y2, x)
		y2.Sub(y2, new(big.Int).Lsh(x, 1))
		y2.Sub(y2, x)
		y2.Add(y2, params.B)
		y2.Mod(y2, params.P)
		y, ok := mathutil.Sqrt3Mod4(y2, params.P)
		if !ok {
			continue
		}
		if y.Bit(0) == 1 {
			y = mathutil.SubMod(big.NewInt(0), y, params.P)
		}
		return &p256Point{x: x, y: y}
	}
}

func (p256Group) PointLen() int { return 33 }

func (g p256Group) UnmarshalPoint(data []byte) (Point, error) {
	if len(data) == 33 && data[0] == 0 {
		// Canonical identity encoding: 0x00 followed by zeros.
		for _, b := range data[1:] {
			if b != 0 {
				return nil, ErrInvalidPoint
			}
		}
		return g.Identity(), nil
	}
	x, y := elliptic.UnmarshalCompressed(elliptic.P256(), data)
	if x == nil {
		return nil, ErrInvalidPoint
	}
	return &p256Point{x: x, y: y}, nil
}

// p256Point is an affine P-256 point; the identity is represented
// explicitly because crypto/elliptic's affine formulas do not define a
// point at infinity.
type p256Point struct {
	x, y     *big.Int
	infinity bool
}

var _ Point = (*p256Point)(nil)

func (p *p256Point) Add(q Point) Point {
	qq, ok := q.(*p256Point)
	if !ok {
		panic("group: mixing p256 with foreign point")
	}
	if p.infinity {
		return qq.clone()
	}
	if qq.infinity {
		return p.clone()
	}
	// P + (-P) is the identity; crypto/elliptic's affine Add does not
	// represent it, so handle the case explicitly.
	if p.x.Cmp(qq.x) == 0 && p.y.Cmp(qq.y) != 0 {
		return &p256Point{infinity: true}
	}
	var x, y *big.Int
	if p.x.Cmp(qq.x) == 0 && p.y.Cmp(qq.y) == 0 {
		x, y = elliptic.P256().Double(p.x, p.y)
	} else {
		x, y = elliptic.P256().Add(p.x, p.y, qq.x, qq.y)
	}
	if x.Sign() == 0 && y.Sign() == 0 {
		return &p256Point{infinity: true}
	}
	return &p256Point{x: x, y: y}
}

func (p *p256Point) Neg() Point {
	if p.infinity {
		return &p256Point{infinity: true}
	}
	params := elliptic.P256().Params()
	return &p256Point{x: mathutil.Clone(p.x), y: mathutil.SubMod(big.NewInt(0), p.y, params.P)}
}

func (p *p256Point) Mul(k *big.Int) Point {
	if p.infinity {
		return &p256Point{infinity: true}
	}
	kk := new(big.Int).Mod(k, elliptic.P256().Params().N)
	if kk.Sign() == 0 {
		return &p256Point{infinity: true}
	}
	x, y := elliptic.P256().ScalarMult(p.x, p.y, kk.Bytes())
	return &p256Point{x: x, y: y}
}

func (p *p256Point) Equal(q Point) bool {
	qq, ok := q.(*p256Point)
	if !ok {
		return false
	}
	if p.infinity || qq.infinity {
		return p.infinity == qq.infinity
	}
	return p.x.Cmp(qq.x) == 0 && p.y.Cmp(qq.y) == 0
}

func (p *p256Point) IsIdentity() bool { return p.infinity }

func (p *p256Point) Marshal() []byte {
	if p.infinity {
		return make([]byte, 33)
	}
	return elliptic.MarshalCompressed(elliptic.P256(), p.x, p.y)
}

func (p *p256Point) clone() *p256Point {
	if p.infinity {
		return &p256Point{infinity: true}
	}
	return &p256Point{x: mathutil.Clone(p.x), y: mathutil.Clone(p.y)}
}
