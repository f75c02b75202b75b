package group

import "math/big"

// Relation is one linear point equation Σ Scalars[i]*Points[i] == 0
// (the group identity). Verification predicates that reduce to such
// relations — DLEQ proofs, FROST share checks — can be folded across
// many relations into one random-linear-combination multi-scalar
// multiplication by a batch verifier.
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
// across all terms) use it; any other group falls back to the naive
// per-term scalar-multiply-and-add, so callers can batch unconditionally.
// The fast path is variable-time: pass public scalars only — secret
// scalars go through Point.Mul and Group.BaseMul. The empty sum is the
// identity; the slices must have equal length.
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
	acc := g.Identity()
	for i, p := range points {
		acc = acc.Add(p.Mul(scalars[i]))
	}
	return acc
}
