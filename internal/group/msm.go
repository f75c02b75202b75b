package group

import "math/big"

// Relation is one linear point equation Σ Scalars[i]*Points[i] == 0
// (the group identity). Verification predicates that reduce to such
// relations — DLEQ proofs, FROST share checks — are checked one
// relation at a time with Holds.
type Relation struct {
	Points  []Point
	Scalars []*big.Int
}

// Holds checks the relation individually with one MultiScalarMul.
func (r Relation) Holds(g Group) bool {
	return MultiScalarMul(g, r.Points, r.Scalars).IsIdentity()
}

// multiScalarMuler is the optional fast path a Group implementation can
// provide for MultiScalarMul. Implementations may assume the slices have
// equal, non-zero length and that every point belongs to the group.
type multiScalarMuler interface {
	multiScalarMul(points []Point, scalars []*big.Int) Point
}

// MultiScalarMul computes the multi-scalar multiplication
// Σ scalars[i]*points[i] in one pass. Groups that implement the internal
// fast path (edwards25519 runs Straus's method: one doubling chain shared
// across all terms) use it. Any other group (P-256) falls back to a
// per-term sum that pays each term at its true price: after reduction
// modulo the order, a scalar of 0 (or an identity point) is skipped, 1
// adds the point, −1 adds its negation, and a term on the standard
// generator goes through the fixed-base Group.BaseMul; only the rest
// cost a full Point.Mul. A relation as written — F*G − A − e*H — thus
// costs one base and one full multiplication, not three full ones.
// Both paths branch on scalar values and are variable-time: pass public
// scalars only — secret scalars go through Point.Mul and Group.BaseMul.
// The empty sum is the identity; the slices must have equal length.
func MultiScalarMul(g Group, points []Point, scalars []*big.Int) Point {
	if len(points) != len(scalars) {
		panic("group: MultiScalarMul called with mismatched slice lengths")
	}
	if len(points) == 0 {
		return g.Identity()
	}
	if m, ok := g.(multiScalarMuler); ok {
		return m.multiScalarMul(points, scalars)
	}
	order := g.Order()
	minusOne := new(big.Int).Sub(order, big.NewInt(1))
	gen := g.Generator()
	acc := g.Identity()
	for i, p := range points {
		k := new(big.Int).Mod(scalars[i], order)
		switch {
		case k.Sign() == 0 || p.IsIdentity():
			continue
		case k.IsInt64() && k.Int64() == 1:
			acc = acc.Add(p)
		case k.Cmp(minusOne) == 0:
			acc = acc.Add(p.Neg())
		case p.Equal(gen):
			acc = acc.Add(g.BaseMul(k))
		default:
			acc = acc.Add(p.Mul(k))
		}
	}
	return acc
}
