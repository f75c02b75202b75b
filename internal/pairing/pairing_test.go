package pairing

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func randFe2(t testing.TB) fe2 {
	t.Helper()
	var buf [64]byte
	var a fe2
	for {
		if _, err := rand.Read(buf[:]); err != nil {
			t.Fatal(err)
		}
		buf[0] &= 0x3f
		buf[32] &= 0x3f
		if a.setBytes(buf[:]) {
			return a
		}
	}
}

func randFe12(t testing.TB) fe12 {
	t.Helper()
	return fe12{
		c0: fe6{randFe2(t), randFe2(t), randFe2(t)},
		c1: fe6{randFe2(t), randFe2(t), randFe2(t)},
	}
}

func TestG1GeneratorOrder(t *testing.T) {
	g := G1Generator()
	if !onCurveG1(&g.x, &g.y) {
		t.Fatal("G1 generator not on curve")
	}
	// (r-1)G == -G implies rG == O without tripping the mod-r reduction.
	rm1 := new(big.Int).Sub(Order(), big.NewInt(1))
	if !g.Mul(rm1).Equal(g.Neg()) {
		t.Fatal("(r-1)G != -G")
	}
}

func TestG2GeneratorOnTwistAndOrder(t *testing.T) {
	g := G2Generator()
	if !onTwist(&g.x, &g.y) {
		t.Fatal("G2 generator not on twist")
	}
	var rg G2
	rg.scalarMul(g, &orderBytes)
	if !rg.IsIdentity() {
		t.Fatal("rG2 != identity: generator not in order-r subgroup")
	}
}

func TestG1GroupLaws(t *testing.T) {
	a, pa, err := RandomG1(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, pb, _ := RandomG1(rand.Reader)
	if !pa.Add(pb).Equal(pb.Add(pa)) {
		t.Fatal("G1 addition not commutative")
	}
	sum := new(big.Int).Add(a, b)
	if !G1BaseMul(sum).Equal(pa.Add(pb)) {
		t.Fatal("(a+b)G != aG + bG in G1")
	}
	if !pa.Add(pa.Neg()).IsIdentity() {
		t.Fatal("P + (-P) != O in G1")
	}
	if !pa.Add(pa).Equal(pa.Double()) {
		t.Fatal("P + P != 2P in G1")
	}
	if !pa.Add(G1Identity()).Equal(pa) {
		t.Fatal("identity not neutral in G1")
	}
}

func TestG2GroupLaws(t *testing.T) {
	a, pa, err := RandomG2(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	b, pb, _ := RandomG2(rand.Reader)
	if !pa.Add(pb).Equal(pb.Add(pa)) {
		t.Fatal("G2 addition not commutative")
	}
	sum := new(big.Int).Add(a, b)
	if !G2BaseMul(sum).Equal(pa.Add(pb)) {
		t.Fatal("(a+b)G != aG + bG in G2")
	}
	if !pa.Add(pa.Neg()).IsIdentity() {
		t.Fatal("P + (-P) != O in G2")
	}
	if !pa.Add(pa).Equal(pa.Double()) {
		t.Fatal("P + P != 2P in G2")
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	e := Pair(G1Generator(), G2Generator())
	if e.IsOne() {
		t.Fatal("e(G1, G2) == 1: degenerate pairing")
	}
	if !e.Exp(Order()).IsOne() {
		t.Fatal("e(G1, G2)^r != 1: pairing value outside order-r subgroup")
	}
}

func TestPairingBilinearity(t *testing.T) {
	a, _ := rand.Int(rand.Reader, Order())
	b, _ := rand.Int(rand.Reader, Order())

	base := Pair(G1Generator(), G2Generator())
	lhs := Pair(G1BaseMul(a), G2BaseMul(b))
	ab := new(big.Int).Mul(a, b)
	if !lhs.Equal(base.Exp(ab)) {
		t.Fatal("e(aP, bQ) != e(P, Q)^(ab)")
	}
	// Swapping the scalars between arguments must not matter.
	if !Pair(G1BaseMul(b), G2BaseMul(a)).Equal(lhs) {
		t.Fatal("e(bP, aQ) != e(aP, bQ)")
	}
}

func TestPairingAdditivity(t *testing.T) {
	_, p1, _ := RandomG1(rand.Reader)
	_, p2, _ := RandomG1(rand.Reader)
	_, q, _ := RandomG2(rand.Reader)
	lhs := Pair(p1.Add(p2), q)
	rhs := Pair(p1, q).Mul(Pair(p2, q))
	if !lhs.Equal(rhs) {
		t.Fatal("e(P1+P2, Q) != e(P1, Q) e(P2, Q)")
	}
}

func TestPairingIdentity(t *testing.T) {
	if !Pair(G1Identity(), G2Generator()).IsOne() {
		t.Fatal("e(O, Q) != 1")
	}
	if !Pair(G1Generator(), G2Identity()).IsOne() {
		t.Fatal("e(P, O) != 1")
	}
}

func TestPairingCheck(t *testing.T) {
	// e(aG1, G2) == e(G1, aG2).
	a, _ := rand.Int(rand.Reader, Order())
	if !PairingCheck(G1BaseMul(a), G2Generator(), G1Generator(), G2BaseMul(a)) {
		t.Fatal("PairingCheck rejected a valid relation")
	}
	if PairingCheck(G1BaseMul(a), G2Generator(), G1Generator(), G2Generator()) {
		t.Fatal("PairingCheck accepted an invalid relation")
	}
}

func TestG1MarshalRoundTrip(t *testing.T) {
	_, p, _ := RandomG1(rand.Reader)
	q, ok := UnmarshalG1(p.Marshal())
	if !ok {
		t.Fatal("unmarshal of valid G1 point rejected")
	}
	if !p.Equal(q) {
		t.Fatal("G1 marshal round trip mismatch")
	}
	id, ok := UnmarshalG1(G1Identity().Marshal())
	if !ok || !id.IsIdentity() {
		t.Fatal("G1 identity round trip mismatch")
	}
	if _, ok := UnmarshalG1(make([]byte, 3)); ok {
		t.Fatal("short G1 encoding accepted")
	}
	bad := p.Marshal()
	bad[10] ^= 1
	if _, ok := UnmarshalG1(bad); ok {
		t.Fatal("off-curve G1 encoding accepted")
	}
}

func TestG2MarshalRoundTrip(t *testing.T) {
	_, p, _ := RandomG2(rand.Reader)
	q, ok := UnmarshalG2(p.Marshal())
	if !ok {
		t.Fatal("unmarshal of valid G2 point rejected")
	}
	if !p.Equal(q) {
		t.Fatal("G2 marshal round trip mismatch")
	}
	id, ok := UnmarshalG2(G2Identity().Marshal())
	if !ok || !id.IsIdentity() {
		t.Fatal("G2 identity round trip mismatch")
	}
	bad := p.Marshal()
	bad[40] ^= 1
	if _, ok := UnmarshalG2(bad); ok {
		t.Fatal("off-twist G2 encoding accepted")
	}
}

func TestHashToG1(t *testing.T) {
	p := HashToG1("test", []byte("msg"))
	if p.IsIdentity() {
		t.Fatal("hash produced identity")
	}
	x, y, _ := p.affine()
	if !onCurveG1(&x, &y) {
		t.Fatal("hash output off curve")
	}
	if !p.Equal(HashToG1("test", []byte("msg"))) {
		t.Fatal("hash not deterministic")
	}
	if p.Equal(HashToG1("test", []byte("other"))) {
		t.Fatal("distinct messages collided")
	}
}

func TestHashToG2(t *testing.T) {
	p := HashToG2("test", []byte("msg"))
	if p.IsIdentity() {
		t.Fatal("hash produced identity")
	}
	var rp G2
	rp.scalarMul(p, &orderBytes)
	if !rp.IsIdentity() {
		t.Fatal("hash output outside order-r subgroup")
	}
	if !p.Equal(HashToG2("test", []byte("msg"))) {
		t.Fatal("hash not deterministic")
	}
}

func TestFp2Sqrt(t *testing.T) {
	for i := 0; i < 8; i++ {
		a := randFe2(t)
		if i == 0 {
			// An element of Fp takes the other branch.
			a.c1 = fe{}
		}
		var sq, root, back fe2
		sq.square(&a)
		if !root.sqrt(&sq) {
			t.Fatal("square of an element reported as non-residue")
		}
		back.square(&root)
		if back.equal(&sq) != 1 {
			t.Fatal("sqrt result does not square back")
		}
	}
}

func TestFp12FieldLaws(t *testing.T) {
	// Generic elements exercise mul, square and inv; cyclotomicSquare and
	// expU hold on the cyclotomic subgroup only, where pairing values live.
	for _, cyclotomic := range []bool{false, true} {
		a, b := randFe12(t), randFe12(t)
		if cyclotomic {
			k, _ := rand.Int(rand.Reader, Order())
			a = Pair(G1BaseMul(k), G2Generator()).v
			b = Pair(G1Generator(), G2BaseMul(k)).v
		}
		var ab, ba, t1, t2 fe12
		ab.mul(&a, &b)
		ba.mul(&b, &a)
		if !ab.equal(&ba) {
			t.Fatal("Fp12 multiplication not commutative")
		}
		t1.inv(&a)
		t1.mul(&t1, &a)
		if !t1.isOne() {
			t.Fatal("a * a^-1 != 1 in Fp12")
		}
		t1.square(&a)
		t2.mul(&a, &a)
		if !t1.equal(&t2) {
			t.Fatal("square != mul(self) in Fp12")
		}
		// Frobenius has order 12: applying it twelve times is the identity map.
		f := a
		for i := 0; i < 12; i++ {
			f.frobenius(&f)
		}
		if !f.equal(&a) {
			t.Fatal("Frobenius^12 != identity")
		}
		// A line multiplies in like the full element it abbreviates.
		l := lineEval{a: randFe2(t), b: randFe2(t), c: randFe2(t)}
		full := fe12{c0: fe6{c0: l.a}, c1: fe6{c0: l.b, c1: l.c}}
		t1.mulLine(&a, &l.a, &l.b, &l.c)
		t2.mul(&a, &full)
		if !t1.equal(&t2) {
			t.Fatal("mulLine != mul by the same element written out")
		}
		if !cyclotomic {
			continue
		}
		t1.cyclotomicSquare(&a)
		t2.square(&a)
		if !t1.equal(&t2) {
			t.Fatal("cyclotomic square != square on a pairing value")
		}
		t1.expU(&a)
		if want := (&GT{v: a}).Exp(new(big.Int).SetUint64(bnU)); !t1.equal(&want.v) {
			t.Fatal("expU != Exp(u) on a pairing value")
		}
		t1.conjugate(&a)
		t1.mul(&t1, &a)
		if !t1.isOne() {
			t.Fatal("conjugate does not invert a pairing value")
		}
	}
}

func TestGTExpHomomorphism(t *testing.T) {
	base := Pair(G1Generator(), G2Generator())
	a, _ := rand.Int(rand.Reader, Order())
	b, _ := rand.Int(rand.Reader, Order())
	lhs := base.Exp(a).Mul(base.Exp(b))
	rhs := base.Exp(new(big.Int).Add(a, b))
	if !lhs.Equal(rhs) {
		t.Fatal("GT exponent addition homomorphism violated")
	}
	if !base.Exp(a).Mul(base.Exp(a).Inv()).IsOne() {
		t.Fatal("g * g^-1 != 1 in GT")
	}
}

func BenchmarkPair(b *testing.B) {
	p := G1Generator()
	q := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Pair(p, q)
	}
}

func BenchmarkG1ScalarMult(b *testing.B) {
	k, _ := rand.Int(rand.Reader, Order())
	p := G1Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Mul(k)
	}
}

func BenchmarkG2ScalarMult(b *testing.B) {
	k, _ := rand.Int(rand.Reader, Order())
	p := G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Mul(k)
	}
}

func TestAteBilinearityMatrix(t *testing.T) {
	// e(aP, bQ) == e(abP, Q) == e(P, abQ) for the default (ate) pairing.
	a, _ := rand.Int(rand.Reader, Order())
	b, _ := rand.Int(rand.Reader, Order())
	ab := new(big.Int).Mul(a, b)
	e1 := Pair(G1BaseMul(a), G2BaseMul(b))
	e2 := Pair(G1BaseMul(ab), G2Generator())
	e3 := Pair(G1Generator(), G2BaseMul(ab))
	if !e1.Equal(e2) || !e1.Equal(e3) {
		t.Fatal("ate pairing bilinearity violated")
	}
}

func TestTateReferencePairing(t *testing.T) {
	// The math/big Tate pairing shares no Miller loop with the ate pairing
	// and none of its arithmetic with the limb code. It must be bilinear
	// and non-degenerate over points the limb code multiplied, and the ate
	// pairing of the same points must relate to its base the same way.
	toOracle := func(p *G1, q *G2) (*oracleG1, *oracleG2) {
		op, ok1 := oracleUnmarshalG1(p.Marshal())
		oq, ok2 := oracleUnmarshalG2(q.Marshal())
		if !ok1 || !ok2 {
			t.Fatal("oracle rejected a point the limb code produced")
		}
		return op, oq
	}
	a, _ := rand.Int(rand.Reader, Order())
	base := oraclePairTate(toOracle(G1Generator(), G2Generator()))
	if base.IsOne() {
		t.Fatal("Tate pairing degenerate")
	}
	if !oraclePairTate(toOracle(G1BaseMul(a), G2Generator())).Equal(base.Exp(a)) {
		t.Fatal("Tate pairing not bilinear")
	}
	if !oraclePairTate(toOracle(G1Generator(), G2BaseMul(a))).Equal(base.Exp(a)) {
		t.Fatal("Tate pairing not bilinear in second argument")
	}
	ate := Pair(G1Generator(), G2Generator())
	if !Pair(G1BaseMul(a), G2Generator()).Equal(ate.Exp(a)) || !Pair(G1Generator(), G2BaseMul(a)).Equal(ate.Exp(a)) {
		t.Fatal("ate pairing disagrees with the relation the Tate pairing satisfies")
	}
}

func BenchmarkPairingCheck(b *testing.B) {
	a, _ := rand.Int(rand.Reader, Order())
	p := G1BaseMul(a)
	q := G2BaseMul(a)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !PairingCheck(p, G2Generator(), G1Generator(), q) {
			b.Fatal("check failed")
		}
	}
}
