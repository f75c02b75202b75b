package pairing

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"testing"
	"testing/quick"
)

// bn254Impl is the surface the frozen tables and the fuzzer drive, bytes
// in and bytes out, so that the limb implementation and the math/big
// oracle it replaced can be run side by side. A nil result means the
// decoder rejected an operand.
type bn254Impl struct {
	name     string
	g1Valid  func(p []byte) bool
	g2Valid  func(p []byte) bool
	g1Mul    func(p []byte, k *big.Int) []byte
	g2Mul    func(p []byte, k *big.Int) []byte
	g1Add    func(a, b []byte) []byte
	g2Add    func(a, b []byte) []byte
	g1Double func(p []byte) []byte
	g2Double func(p []byte) []byte
	g1Neg    func(p []byte) []byte
	g2Neg    func(p []byte) []byte
	hashToG1 func(domain string, data ...[]byte) []byte
	hashToG2 func(domain string, data ...[]byte) []byte
	pair     func(p, q []byte) []byte
	gtExp    func(p, q []byte, k *big.Int) []byte
	gtMul    func(p1, q1, p2, q2 []byte) []byte
	gtInv    func(p, q []byte) []byte
	check    func(a1, b1, a2, b2 []byte) (verdict, ok bool)
}

// curvePoint and targetElem are the methods G1, G2 and GT share with the
// oracle's types of the same shape.
type curvePoint[P any] interface {
	Add(P) P
	Double() P
	Neg() P
	Mul(*big.Int) P
	Marshal() []byte
}

type targetElem[T any] interface {
	Mul(T) T
	Inv() T
	Exp(*big.Int) T
	Marshal() []byte
}

// newImpl wraps one implementation's decoders, hashes and pairing
// functions into the bytes-in, bytes-out surface.
func newImpl[P1 curvePoint[P1], P2 curvePoint[P2], T targetElem[T]](
	name string,
	dec1 func([]byte) (P1, bool), dec2 func([]byte) (P2, bool),
	hash1 func(string, ...[]byte) P1, hash2 func(string, ...[]byte) P2,
	pair func(P1, P2) T, check func(P1, P2, P1, P2) bool,
) bn254Impl {
	// on1/on2 decode every operand and apply f, or return nil.
	on1 := func(f func(p ...P1) P1, encs ...[]byte) []byte {
		ps := make([]P1, len(encs))
		for i, enc := range encs {
			var ok bool
			if ps[i], ok = dec1(enc); !ok {
				return nil
			}
		}
		return f(ps...).Marshal()
	}
	on2 := func(f func(p ...P2) P2, encs ...[]byte) []byte {
		ps := make([]P2, len(encs))
		for i, enc := range encs {
			var ok bool
			if ps[i], ok = dec2(enc); !ok {
				return nil
			}
		}
		return f(ps...).Marshal()
	}
	// onGT pairs each (G1, G2) couple of encodings and applies f.
	onGT := func(f func(e ...T) T, encs ...[]byte) []byte {
		es := make([]T, len(encs)/2)
		for i := range es {
			p, ok1 := dec1(encs[2*i])
			q, ok2 := dec2(encs[2*i+1])
			if !ok1 || !ok2 {
				return nil
			}
			es[i] = pair(p, q)
		}
		return f(es...).Marshal()
	}
	return bn254Impl{
		name:     name,
		g1Valid:  func(p []byte) bool { _, ok := dec1(p); return ok },
		g2Valid:  func(p []byte) bool { _, ok := dec2(p); return ok },
		g1Mul:    func(p []byte, k *big.Int) []byte { return on1(func(p ...P1) P1 { return p[0].Mul(k) }, p) },
		g2Mul:    func(p []byte, k *big.Int) []byte { return on2(func(p ...P2) P2 { return p[0].Mul(k) }, p) },
		g1Add:    func(a, b []byte) []byte { return on1(func(p ...P1) P1 { return p[0].Add(p[1]) }, a, b) },
		g2Add:    func(a, b []byte) []byte { return on2(func(p ...P2) P2 { return p[0].Add(p[1]) }, a, b) },
		g1Double: func(p []byte) []byte { return on1(func(p ...P1) P1 { return p[0].Double() }, p) },
		g2Double: func(p []byte) []byte { return on2(func(p ...P2) P2 { return p[0].Double() }, p) },
		g1Neg:    func(p []byte) []byte { return on1(func(p ...P1) P1 { return p[0].Neg() }, p) },
		g2Neg:    func(p []byte) []byte { return on2(func(p ...P2) P2 { return p[0].Neg() }, p) },
		hashToG1: func(d string, data ...[]byte) []byte { return hash1(d, data...).Marshal() },
		hashToG2: func(d string, data ...[]byte) []byte { return hash2(d, data...).Marshal() },
		pair:     func(p, q []byte) []byte { return onGT(func(e ...T) T { return e[0] }, p, q) },
		gtExp: func(p, q []byte, k *big.Int) []byte {
			return onGT(func(e ...T) T { return e[0].Exp(k) }, p, q)
		},
		gtMul: func(p1, q1, p2, q2 []byte) []byte {
			return onGT(func(e ...T) T { return e[0].Mul(e[1]) }, p1, q1, p2, q2)
		},
		gtInv: func(p, q []byte) []byte { return onGT(func(e ...T) T { return e[0].Inv() }, p, q) },
		check: func(a1e, b1e, a2e, b2e []byte) (bool, bool) {
			a1, ok1 := dec1(a1e)
			b1, ok2 := dec2(b1e)
			a2, ok3 := dec1(a2e)
			b2, ok4 := dec2(b2e)
			if !ok1 || !ok2 || !ok3 || !ok4 {
				return false, false
			}
			return check(a1, b1, a2, b2), true
		},
	}
}

func limbImpl() bn254Impl {
	return newImpl("limbs", UnmarshalG1, UnmarshalG2, HashToG1, HashToG2, Pair, PairingCheck)
}

func oracleImpl() bn254Impl {
	return newImpl("math/big oracle", oracleUnmarshalG1, oracleUnmarshalG2, oracleHashToG1, oracleHashToG2, oraclePair, oraclePairingCheck)
}

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func mustScalar(t testing.TB, s string) *big.Int {
	t.Helper()
	k, ok := new(big.Int).SetString(s, 10)
	if !ok {
		t.Fatalf("bad scalar %q", s)
	}
	return k
}

// bn254KAT mirrors testdata/bn254_kat.json. GT has no decoder, so the GT
// rows name the pairing arguments their operands come from.
type bn254KAT struct {
	G1Mul    []struct{ Point, Scalar, Out string } `json:"g1_mul"`
	G2Mul    []struct{ Point, Scalar, Out string } `json:"g2_mul"`
	G1Add    []struct{ A, B, Out string }          `json:"g1_add"`
	G2Add    []struct{ A, B, Out string }          `json:"g2_add"`
	G1Double []struct{ Point, Out string }         `json:"g1_double"`
	G2Double []struct{ Point, Out string }         `json:"g2_double"`
	G1Neg    []struct{ Point, Out string }         `json:"g1_neg"`
	G2Neg    []struct{ Point, Out string }         `json:"g2_neg"`
	HashToG1 []struct {
		Domain string
		Data   []string
		Out    string
	} `json:"hash_to_g1"`
	HashToG2 []struct {
		Domain string
		Data   []string
		Out    string
	} `json:"hash_to_g2"`
	Pair         []struct{ P, Q, Out string }           `json:"pair"`
	GTExp        []struct{ P, Q, Scalar, Out string }   `json:"gt_exp"`
	GTMul        []struct{ P1, Q1, P2, Q2, Out string } `json:"gt_mul"`
	GTInv        []struct{ P, Q, Out string }           `json:"gt_inv"`
	PairingCheck []struct {
		A1, B1, A2, B2 string
		OK             bool
	} `json:"pairing_check"`
}

func loadKAT(t testing.TB) *bn254KAT {
	t.Helper()
	raw, err := os.ReadFile("testdata/bn254_kat.json")
	if err != nil {
		t.Fatal(err)
	}
	kat := new(bn254KAT)
	if err := json.Unmarshal(raw, kat); err != nil {
		t.Fatal(err)
	}
	return kat
}

// TestBN254KnownAnswers replays testdata/bn254_kat.json, frozen from the
// math/big implementation before it was replaced, against the limb code
// and against that implementation, now the oracle: holding for both is
// what shows the table really is the old code's answers. Every row is
// compared byte for byte: 65/129-byte points, 384-byte GT elements.
func TestBN254KnownAnswers(t *testing.T) {
	kat := loadKAT(t)
	for name, n := range map[string]int{
		"g1_mul": len(kat.G1Mul), "g2_mul": len(kat.G2Mul), "g1_add": len(kat.G1Add), "g2_add": len(kat.G2Add),
		"g1_double": len(kat.G1Double), "g2_double": len(kat.G2Double), "g1_neg": len(kat.G1Neg), "g2_neg": len(kat.G2Neg),
		"hash_to_g1": len(kat.HashToG1), "hash_to_g2": len(kat.HashToG2), "pair": len(kat.Pair),
		"gt_exp": len(kat.GTExp), "gt_mul": len(kat.GTMul), "gt_inv": len(kat.GTInv), "pairing_check": len(kat.PairingCheck),
	} {
		if n == 0 {
			t.Fatalf("known-answer table section %s is empty", name)
		}
	}
	for _, impl := range []bn254Impl{limbImpl(), oracleImpl()} {
		t.Run(impl.name, func(t *testing.T) {
			if impl.name != "limbs" && testing.Short() {
				t.Skip("the oracle takes ~15 ms per pairing")
			}
			check := func(what string, got []byte, want string) {
				t.Helper()
				if enc := hex.EncodeToString(got); enc != want {
					t.Errorf("%s = %s, want %s", what, enc, want)
				}
			}
			for _, c := range kat.G1Mul {
				check("G1 ("+c.Point+").Mul("+c.Scalar+")", impl.g1Mul(unhex(t, c.Point), mustScalar(t, c.Scalar)), c.Out)
			}
			for _, c := range kat.G2Mul {
				check("G2 ("+c.Point+").Mul("+c.Scalar+")", impl.g2Mul(unhex(t, c.Point), mustScalar(t, c.Scalar)), c.Out)
			}
			for _, c := range kat.G1Add {
				check("G1 "+c.A+" + "+c.B, impl.g1Add(unhex(t, c.A), unhex(t, c.B)), c.Out)
			}
			for _, c := range kat.G2Add {
				check("G2 "+c.A+" + "+c.B, impl.g2Add(unhex(t, c.A), unhex(t, c.B)), c.Out)
			}
			for _, c := range kat.G1Double {
				check("G1 2*"+c.Point, impl.g1Double(unhex(t, c.Point)), c.Out)
			}
			for _, c := range kat.G2Double {
				check("G2 2*"+c.Point, impl.g2Double(unhex(t, c.Point)), c.Out)
			}
			for _, c := range kat.G1Neg {
				check("G1 -"+c.Point, impl.g1Neg(unhex(t, c.Point)), c.Out)
			}
			for _, c := range kat.G2Neg {
				check("G2 -"+c.Point, impl.g2Neg(unhex(t, c.Point)), c.Out)
			}
			unhexAll := func(in []string) [][]byte {
				out := make([][]byte, len(in))
				for i, d := range in {
					out[i] = unhex(t, d)
				}
				return out
			}
			for _, c := range kat.HashToG1 {
				check("HashToG1("+c.Domain+")", impl.hashToG1(c.Domain, unhexAll(c.Data)...), c.Out)
			}
			for _, c := range kat.HashToG2 {
				check("HashToG2("+c.Domain+")", impl.hashToG2(c.Domain, unhexAll(c.Data)...), c.Out)
			}
			for _, c := range kat.Pair {
				check("Pair("+c.P+", "+c.Q+")", impl.pair(unhex(t, c.P), unhex(t, c.Q)), c.Out)
			}
			for _, c := range kat.GTExp {
				check("Pair("+c.P+", "+c.Q+").Exp("+c.Scalar+")", impl.gtExp(unhex(t, c.P), unhex(t, c.Q), mustScalar(t, c.Scalar)), c.Out)
			}
			for _, c := range kat.GTMul {
				check("Pair("+c.P1+", "+c.Q1+").Mul(Pair("+c.P2+", "+c.Q2+"))",
					impl.gtMul(unhex(t, c.P1), unhex(t, c.Q1), unhex(t, c.P2), unhex(t, c.Q2)), c.Out)
			}
			for _, c := range kat.GTInv {
				check("Pair("+c.P+", "+c.Q+").Inv()", impl.gtInv(unhex(t, c.P), unhex(t, c.Q)), c.Out)
			}
			for i, c := range kat.PairingCheck {
				got, ok := impl.check(unhex(t, c.A1), unhex(t, c.B1), unhex(t, c.A2), unhex(t, c.B2))
				if !ok || got != c.OK {
					t.Errorf("PairingCheck row %d = %v (decoded %v), want %v", i, got, ok, c.OK)
				}
			}
		})
	}
}

// TestBN254Constants derives every hard-coded constant again with math/big
// from the curve parameter u and the tower's definition, so that a limb
// typed wrongly cannot hide behind a table generated from the same typo.
func TestBN254Constants(t *testing.T) {
	u := new(big.Int).SetUint64(bnU)
	poly := func(c4, c3, c2, c1, c0 int64) *big.Int {
		acc := big.NewInt(c4)
		for _, c := range []int64{c3, c2, c1, c0} {
			acc.Mul(acc, u)
			acc.Add(acc, big.NewInt(c))
		}
		return acc
	}
	p, r := poly(36, 36, 24, 6, 1), poly(36, 36, 18, 6, 1)
	if p.Cmp(oracleBN.p) != 0 || r.Cmp(oracleBN.r) != 0 || u.Cmp(oracleBN.u) != 0 {
		t.Fatal("the oracle's p, r or u is not the BN polynomial in u")
	}
	if FieldModulus().Cmp(p) != 0 || Order().Cmp(r) != 0 {
		t.Fatal("FieldModulus or Order disagrees with the BN polynomials")
	}
	if got := new(big.Int).SetBytes(cofactorBytes[:]); got.Cmp(oracleBN.g2Cofactor) != 0 {
		t.Fatalf("cofactor = %v, want 2p - r = %v", got, oracleBN.g2Cofactor)
	}
	if top := cofactorBytes[0] | orderBytes[0]; top&0x80 != 0 {
		t.Fatal("a ladder scalar reaches 2^255; recodeScalar's top digit would overflow the table")
	}

	limbs := func(x fe) *big.Int {
		v := new(big.Int)
		for i := 3; i >= 0; i-- {
			v.Lsh(v, 64)
			v.Or(v, new(big.Int).SetUint64(x[i]))
		}
		return v
	}
	if got := limbs(fe{p0, p1, p2, p3}); got.Cmp(p) != 0 {
		t.Fatalf("modulus limbs = %v", got)
	}
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	if got := new(big.Int).Mul(new(big.Int).SetUint64(pInvNeg), p); got.Add(got, big.NewInt(1)).Mod(got, two64).Sign() != 0 {
		t.Fatal("pInvNeg·p != -1 mod 2^64")
	}
	if got := limbs(expPMinus2); got.Cmp(new(big.Int).Sub(p, big.NewInt(2))) != 0 {
		t.Fatal("expPMinus2 != p - 2")
	}
	if got := limbs(expPPlus1Over4); got.Cmp(oracleBN.pPlus1Over4) != 0 {
		t.Fatal("expPPlus1Over4 != (p + 1)/4")
	}
	// plain undoes the Montgomery form through the production code.
	plain := func(x fe) *big.Int { return limbs(x.canonical()) }
	R := new(big.Int).Lsh(big.NewInt(1), 256)
	if got := limbs(feOne); got.Cmp(new(big.Int).Mod(R, p)) != 0 {
		t.Fatal("feOne != 2^256 mod p")
	}
	if got := limbs(feR2); got.Cmp(new(big.Int).Mod(new(big.Int).Mul(R, R), p)) != 0 {
		t.Fatal("feR2 != 2^512 mod p")
	}
	if plain(feThree).Cmp(oracleBN.b) != 0 {
		t.Fatal("feThree != 3")
	}
	if got := new(big.Int).Lsh(plain(feHalf), 1); got.Mod(got, p).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("2·feHalf != 1")
	}
	eq2 := func(what string, got fe2, want oracleFp2) {
		t.Helper()
		if plain(got.c0).Cmp(want.c0) != 0 || plain(got.c1).Cmp(want.c1) != 0 {
			t.Errorf("%s = (%v, %v), want (%v, %v)", what, plain(got.c0), plain(got.c1), want.c0, want.c1)
		}
	}
	eq2("twistB", twistB, oracleBN.twistB)
	eq2("g2GenX", g2GenX, oracleBN.g2GenX)
	eq2("g2GenY", g2GenY, oracleBN.g2GenY)
	for j := 1; j <= 5; j++ {
		eq2("frobGamma", frobGamma[j], oracleBN.frobGamma[j])
	}
	if frobGamma[0] != (fe2{}) {
		t.Error("frobGamma[0] is set")
	}

	sixUPlus2 := new(big.Int).Mul(u, big.NewInt(6))
	naf := oracleNAF(sixUPlus2.Add(sixUPlus2, big.NewInt(2)))
	if len(naf) != len(sixUPlus2NAF) {
		t.Fatalf("NAF(6u+2) has %d digits, the table %d", len(naf), len(sixUPlus2NAF))
	}
	for i, d := range naf {
		if sixUPlus2NAF[i] != d {
			t.Fatalf("NAF(6u+2) digit %d is %d, the table says %d", i, d, sixUPlus2NAF[i])
		}
	}
}

// TestFieldAgainstBigInt runs every base-field operation over all pairs
// of values at which carries, borrows and the conditional subtraction
// change sides (0, 1, p-1, the two halves of p, sums that land exactly on
// p) and over hashed ones, against math/big.
func TestFieldAgainstBigInt(t *testing.T) {
	p := FieldModulus()
	big1 := big.NewInt(1)
	half := new(big.Int).Rsh(p, 1)
	vals := []*big.Int{
		big.NewInt(0), big1, big.NewInt(2), big.NewInt(3),
		new(big.Int).Sub(p, big1), new(big.Int).Sub(p, big.NewInt(2)),
		half, new(big.Int).Add(half, big1),
		new(big.Int).Lsh(big1, 64), new(big.Int).Sub(new(big.Int).Lsh(big1, 64), big1),
		new(big.Int).Lsh(big1, 192), new(big.Int).Lsh(big1, 253),
		new(big.Int).Sub(new(big.Int).Lsh(big1, 253), big1),
	}
	for i := 0; i < 8; i++ {
		seed := oracleHashSeed("field", [][]byte{{byte(i)}})
		vals = append(vals, new(big.Int).Mod(new(big.Int).SetBytes(seed), p))
	}
	toFe := func(v *big.Int) fe {
		var x fe
		if !x.setBytes(v.FillBytes(make([]byte, 32))) {
			t.Fatalf("setBytes rejected %v", v)
		}
		return x
	}
	check := func(what string, got fe, want *big.Int) {
		t.Helper()
		var buf [32]byte
		got.putBytes(buf[:])
		if new(big.Int).SetBytes(buf[:]).Cmp(want) != 0 {
			t.Errorf("%s = %x, want %x", what, buf, want)
		}
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, p) }
	for _, a := range vals {
		x := toFe(a)
		var z fe
		z.neg(&x)
		check(fmt.Sprintf("-%v", a), z, mod(new(big.Int).Neg(a)))
		z.dbl(&x)
		check(fmt.Sprintf("2*%v", a), z, mod(new(big.Int).Lsh(a, 1)))
		z.square(&x)
		check(fmt.Sprintf("%v^2", a), z, mod(new(big.Int).Mul(a, a)))
		z.inv(&x)
		inv := new(big.Int).ModInverse(a, p)
		if inv == nil {
			inv = new(big.Int)
		}
		check(fmt.Sprintf("1/%v", a), z, inv)
		wantRoot := new(big.Int).Exp(a, oracleBN.pPlus1Over4, p)
		isSquare := new(big.Int).Exp(wantRoot, big.NewInt(2), p).Cmp(a) == 0
		if ok := z.sqrt(&x); ok != isSquare {
			t.Errorf("sqrt(%v) reports %v, want %v", a, ok, isSquare)
		}
		check(fmt.Sprintf("%v^((p+1)/4)", a), z, wantRoot)
		if odd := x.isOdd() == 1; odd != (a.Bit(0) == 1) {
			t.Errorf("isOdd(%v) = %v", a, odd)
		}
		if zero := x.isZero() == 1; zero != (a.Sign() == 0) {
			t.Errorf("isZero(%v) = %v", a, zero)
		}
		for _, b := range vals {
			y := toFe(b)
			z.add(&x, &y)
			check(fmt.Sprintf("%v + %v", a, b), z, mod(new(big.Int).Add(a, b)))
			z.sub(&x, &y)
			check(fmt.Sprintf("%v - %v", a, b), z, mod(new(big.Int).Sub(a, b)))
			z.mul(&x, &y)
			check(fmt.Sprintf("%v * %v", a, b), z, mod(new(big.Int).Mul(a, b)))
			// The receiver may alias either operand.
			z = x
			z.mul(&z, &y)
			check(fmt.Sprintf("aliased %v * %v", a, b), z, mod(new(big.Int).Mul(a, b)))
			if eq := x.equal(&y) == 1; eq != (a.Cmp(b) == 0) {
				t.Errorf("equal(%v, %v) = %v", a, b, eq)
			}
		}
	}
	// Every encoding from p upwards is refused.
	var x fe
	for _, v := range []*big.Int{p, new(big.Int).Add(p, big1), new(big.Int).Sub(new(big.Int).Lsh(big1, 256), big1)} {
		if x.setBytes(v.FillBytes(make([]byte, 32))) {
			t.Errorf("setBytes accepted %v", v)
		}
	}
}

// TestNAF moved here from internal/mathutil with the function it tests,
// which only the old Miller loop (now the oracle's) ever called: the
// digits reconstruct the value and no two adjacent ones are non-zero.
func TestNAF(t *testing.T) {
	f := func(v uint32) bool {
		k := new(big.Int).SetUint64(uint64(v))
		digits := oracleNAF(k)
		acc := new(big.Int)
		for i, d := range digits {
			if d != 0 && i+1 < len(digits) && digits[i+1] != 0 {
				return false
			}
			acc.Add(acc, new(big.Int).Lsh(big.NewInt(int64(d)), uint(i)))
		}
		return acc.Cmp(k) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if oracleNAF(big.NewInt(-1)) != nil {
		t.Fatal("negative NAF should be nil")
	}
}

// oracleHashToTwist is the oracle's HashToG2 without its last step: a
// point on the twist whose cofactor has not been cleared. The twist has
// r·(2p - r) points, so such a point lies outside the order-r subgroup
// unless something went astronomically wrong; callers check.
func oracleHashToTwist(domain string, data ...[]byte) *oracleG2 {
	seed := oracleHashSeed("thetacrypt/bn254g2/"+domain, data)
	for ctr := uint64(0); ; ctr += 2 {
		c0 := oracleHashCandidate(seed, ctr, oracleBN.p)
		c1 := oracleHashCandidate(seed, ctr+1, oracleBN.p)
		if c0 == nil || c1 == nil {
			continue
		}
		x := oracleFp2{c0: c0, c1: c1}
		y, ok := x.square(oracleBN).mul(x, oracleBN).add(oracleBN.twistB, oracleBN).sqrt(oracleBN)
		if ok {
			return &oracleG2{x: x, y: y, z: oracleFp2One()}
		}
	}
}

// TestBN254UnmarshalRejections pins every accept/reject decision of the two
// decoders. The expected verdict is written into each row and both the
// limb decoder and the oracle must give it; for the on-twist points outside
// the order-r subgroup, which UnmarshalG2 has to keep refusing, the judge
// is the oracle's unreduced r·P.
func TestBN254UnmarshalRejections(t *testing.T) {
	p := oracleBN.p
	be := func(v *big.Int) []byte { return v.FillBytes(make([]byte, 32)) }
	cat := func(prefix byte, coords ...*big.Int) []byte {
		out := []byte{prefix}
		for _, c := range coords {
			out = append(out, be(c)...)
		}
		return out
	}
	one, two, zero := big.NewInt(1), big.NewInt(2), big.NewInt(0)
	pPlus1 := new(big.Int).Add(p, one)
	allOnes := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	type row struct {
		name string
		enc  []byte
		ok   bool
	}

	h1 := oracleHashToG1("rejections", []byte("g1"))
	h1x, h1y, _ := h1.affine()
	g1rows := []row{
		{"generator", cat(4, one, two), true},
		{"identity", make([]byte, 65), true},
		{"hashed point", cat(4, h1x, h1y), true},
		{"negated generator", cat(4, one, new(big.Int).Sub(p, two)), true},
		{"empty", nil, false},
		{"one byte", []byte{0}, false},
		{"64 bytes", cat(4, one, two)[:64], false},
		{"66 bytes", append(cat(4, one, two), 0), false},
		{"G2-sized", make([]byte, 129), false},
		{"infinity with a set bit in x", cat(0, one, zero), false},
		{"infinity with a set bit in y", cat(0, zero, one), false},
		{"infinity prefix on the generator", cat(0, one, two), false},
		{"prefix 2", cat(2, one, two), false},
		{"prefix 3", cat(3, one, two), false},
		{"prefix 5", cat(5, one, two), false},
		{"prefix ff", cat(0xff, one, two), false},
		{"x = p", cat(4, p, two), false},
		{"x = p + 1 (generator unreduced)", cat(4, pPlus1, two), false},
		{"y = p + 2 (generator unreduced)", cat(4, one, new(big.Int).Add(p, two)), false},
		{"y = p", cat(4, one, p), false},
		{"x = 2^256 - 1", cat(4, allOnes, two), false},
		{"y = 2^256 - 1", cat(4, one, allOnes), false},
		{"off curve: (1, 3)", cat(4, one, big.NewInt(3)), false},
		{"off curve: (0, 0)", cat(4, zero, zero), false},
		{"off curve: hashed x, generator y", cat(4, h1x, two), false},
	}
	for _, c := range g1rows {
		_, limb := UnmarshalG1(c.enc)
		_, oracle := oracleUnmarshalG1(c.enc)
		if limb != c.ok || oracle != c.ok {
			t.Errorf("G1 %s: limbs accept=%v, oracle accept=%v, want %v", c.name, limb, oracle, c.ok)
		}
	}

	gx, gy := oracleBN.g2GenX, oracleBN.g2GenY
	h2 := oracleHashToG2("rejections", []byte("g2"))
	h2x, h2y, _ := h2.affine()
	g2 := func(prefix byte, x, y oracleFp2) []byte { return cat(prefix, x.c0, x.c1, y.c0, y.c1) }
	g2rows := []row{
		{"generator", g2(4, gx, gy), true},
		{"identity", make([]byte, 129), true},
		{"hashed point", g2(4, h2x, h2y), true},
		{"negated generator", g2(4, gx, gy.neg(oracleBN)), true},
		{"empty", nil, false},
		{"G1-sized", make([]byte, 65), false},
		{"128 bytes", g2(4, gx, gy)[:128], false},
		{"130 bytes", append(g2(4, gx, gy), 0), false},
		{"infinity with the last bit set", append(make([]byte, 128), 1), false},
		{"infinity prefix on the generator", g2(0, gx, gy), false},
		{"prefix 2", g2(2, gx, gy), false},
		{"prefix ff", g2(0xff, gx, gy), false},
		{"x.c0 = x.c0 + p", g2(4, oracleFp2{c0: new(big.Int).Add(gx.c0, p), c1: gx.c1}, gy), false},
		{"x.c1 = p", g2(4, oracleFp2{c0: gx.c0, c1: p}, gy), false},
		{"y.c0 = 2^256 - 1", g2(4, gx, oracleFp2{c0: allOnes, c1: gy.c1}), false},
		{"y.c1 = y.c1 + p", g2(4, gx, oracleFp2{c0: gy.c0, c1: new(big.Int).Add(gy.c1, p)}), false},
		{"off twist: generator x, hashed y", g2(4, gx, h2y), false},
		{"off twist: conjugated x", g2(4, gx.conj(oracleBN), gy), false},
		{"off twist: (0, 0)", g2(4, oracleFp2Zero(), oracleFp2Zero()), false},
	}
	// On the twist, outside the subgroup: bare, doubled, and hidden behind
	// a subgroup point.
	outside := 0
	for i := 0; i < 6; i++ {
		raw := oracleHashToTwist("rejections", []byte{byte(i)})
		for _, pt := range []*oracleG2{raw, raw.Double(), raw.Add(oracleG2Generator()), raw.Add(h2)} {
			x, y, _ := pt.affine()
			if !oracleOnTwist(x, y) {
				t.Fatal("a twist point left the twist")
			}
			if pt.mulRaw(oracleBN.r).IsIdentity() {
				t.Fatalf("twist point %d was meant to lie outside the order-r subgroup", i)
			}
			g2rows = append(g2rows, row{"on the twist, outside the subgroup", g2(4, x, y), false})
			outside++
		}
		cx, cy, _ := raw.mulRaw(oracleBN.g2Cofactor).affine()
		g2rows = append(g2rows, row{"the same point with the cofactor cleared", g2(4, cx, cy), true})
	}
	if outside != 24 {
		t.Fatalf("built %d points outside the subgroup, want 24", outside)
	}
	for _, c := range g2rows {
		_, limb := UnmarshalG2(c.enc)
		_, oracle := oracleUnmarshalG2(c.enc)
		if limb != c.ok || oracle != c.ok {
			t.Errorf("G2 %s (%x…): limbs accept=%v, oracle accept=%v, want %v", c.name, c.enc[:min(len(c.enc), 9)], limb, oracle, c.ok)
		}
	}
}

func fuzzScalar(b []byte) *big.Int {
	k := new(big.Int).SetBytes(b)
	if len(b) > 0 && b[0]&1 == 1 {
		k.Neg(k)
	}
	return k
}

// FuzzBN254AgainstBigInt runs the limb implementation and the math/big
// oracle side by side on fuzzer-chosen scalars and encodings and requires
// identical decoder verdicts, identical bytes out of Mul, Add, Double and
// Neg in both groups and out of Pair, and the same PairingCheck verdict.
// An encoding neither decoder accepts still drives the arithmetic: both
// sides hash it to a point, and hash it to the twist without clearing the
// cofactor for a point UnmarshalG2 must refuse. testdata/fuzz holds the
// seed corpus, which plain go test replays.
func FuzzBN254AgainstBigInt(f *testing.F) {
	r := Order()
	f.Add([]byte{}, []byte{1}, G1Generator().Marshal(), G2Generator().Marshal())
	f.Add(r.Bytes(), new(big.Int).Sub(r, big.NewInt(2)).Bytes(), make([]byte, 65), make([]byte, 129))

	limb, oracle := limbImpl(), oracleImpl()
	f.Fuzz(func(t *testing.T, a, b, enc1, enc2 []byte) {
		if len(a) > 80 || len(b) > 80 || len(enc1) > 160 || len(enc2) > 160 {
			t.Skip("oversized input")
		}
		ka, kb := fuzzScalar(a), fuzzScalar(b)
		same := func(what string, got, want []byte) {
			t.Helper()
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: limbs %x, big.Int %x (a=%x b=%x enc1=%x enc2=%x)", what, got, want, a, b, enc1, enc2)
			}
		}

		// Decoder verdicts, then a point per group that both sides hold.
		p, q := enc1, enc2
		if ok, want := limb.g1Valid(enc1), oracle.g1Valid(enc1); ok != want {
			t.Fatalf("UnmarshalG1(%x): limbs accept=%v, big.Int accept=%v", enc1, ok, want)
		} else if !ok {
			p = limb.hashToG1("fuzz", enc1)
			same("HashToG1", p, oracle.hashToG1("fuzz", enc1))
		}
		if ok, want := limb.g2Valid(enc2), oracle.g2Valid(enc2); ok != want {
			t.Fatalf("UnmarshalG2(%x): limbs accept=%v, big.Int accept=%v", enc2, ok, want)
		} else if !ok {
			q = limb.hashToG2("fuzz", enc2)
			same("HashToG2", q, oracle.hashToG2("fuzz", enc2))
		}
		stray := oracleHashToTwist("fuzz", enc2)
		sx, sy, _ := stray.affine()
		strayEnc := append(append([]byte{4}, sx.bytes()...), sy.bytes()...)
		if ok, want := limb.g2Valid(strayEnc), stray.mulRaw(oracleBN.r).IsIdentity(); ok != want {
			t.Fatalf("UnmarshalG2 of the uncleared twist point %x: limbs accept=%v, r·P is the identity=%v", strayEnc, ok, want)
		}

		same("G1 Mul", limb.g1Mul(p, ka), oracle.g1Mul(p, ka))
		same("G2 Mul", limb.g2Mul(q, kb), oracle.g2Mul(q, kb))
		bG1, aG2 := limb.g1Mul(G1Generator().Marshal(), kb), limb.g2Mul(G2Generator().Marshal(), ka)
		same("G1 Add", limb.g1Add(p, bG1), oracle.g1Add(p, bG1))
		same("G2 Add", limb.g2Add(q, aG2), oracle.g2Add(q, aG2))
		same("G1 Add to itself", limb.g1Add(p, p), oracle.g1Add(p, p))
		same("G2 Add to itself", limb.g2Add(q, q), oracle.g2Add(q, q))
		same("G1 Double", limb.g1Double(p), oracle.g1Double(p))
		same("G2 Double", limb.g2Double(q), oracle.g2Double(q))
		same("G1 Neg", limb.g1Neg(p), oracle.g1Neg(p))
		same("G2 Neg", limb.g2Neg(q), oracle.g2Neg(q))

		same("Pair", limb.pair(p, q), oracle.pair(p, q))

		// e(ka·P, Q) against e(P, ka·Q), which holds, or against
		// e(P, kb·Q), which holds only if the fuzzer arranged it.
		kQ := limb.g2Mul(q, ka)
		if len(a)%2 == 1 {
			kQ = limb.g2Mul(q, kb)
		}
		kP := limb.g1Mul(p, ka)
		got, _ := limb.check(kP, q, p, kQ)
		want, _ := oracle.check(kP, q, p, kQ)
		if got != want {
			t.Fatalf("PairingCheck: limbs %v, big.Int %v (a=%x b=%x enc1=%x enc2=%x)", got, want, a, b, enc1, enc2)
		}
	})
}

// TestBN254Allocations bounds what the hot operations allocate: Mul the
// returned point and the scalar's reduction, Pair the returned element,
// PairingCheck nothing — the same for a one-bit scalar as for a 254-bit
// one, so nothing per bit, per digit, per Miller step or per field
// operation.
func TestBN254Allocations(t *testing.T) {
	p, q := HashToG1("allocs"), HashToG2("allocs")
	one := big.NewInt(1)
	full := new(big.Int).Sub(Order(), big.NewInt(1))
	for _, op := range []struct {
		name string
		max  float64
		run  func(k *big.Int)
	}{
		{"G1.Mul", 4, func(k *big.Int) { p.Mul(k) }},
		{"G2.Mul", 4, func(k *big.Int) { q.Mul(k) }},
	} {
		short := testing.AllocsPerRun(20, func() { op.run(one) })
		long := testing.AllocsPerRun(20, func() { op.run(full) })
		if short != long {
			t.Errorf("%s allocates %v times for a 1-bit scalar and %v for a 254-bit one", op.name, short, long)
		}
		if long > op.max {
			t.Errorf("%s allocates %v times per call, want at most %v", op.name, long, op.max)
		}
	}
	p2, q2 := p.Mul(full), q.Mul(full)
	if n := testing.AllocsPerRun(10, func() { Pair(p, q) }); n > 1 {
		t.Errorf("Pair allocates %v times per call, want at most 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { PairingCheck(p2, q, p, q2) }); n > 1 {
		t.Errorf("PairingCheck allocates %v times per call, want at most 1", n)
	}
}

// TestBN254ScalarRecoding checks what makes the ladders' sequence of
// operations independent of the scalar: every scalar, whatever its size,
// recodes to exactly 64 digits that the 8-entry table covers, and the
// digits say the scalar. The ladder then does four doublings, one scan of
// the whole table and one addition per digit, zero digits included.
func TestBN254ScalarRecoding(t *testing.T) {
	r := Order()
	scalars := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(7), big.NewInt(8), big.NewInt(9), big.NewInt(15), big.NewInt(16),
		big.NewInt(0x88), big.NewInt(-1),
		new(big.Int).Sub(r, big.NewInt(1)), new(big.Int).Sub(r, big.NewInt(2)), new(big.Int).Rsh(r, 1),
		new(big.Int).Lsh(big.NewInt(1), 253),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 253), big.NewInt(1)),
	}
	rows := make([][32]byte, 0, len(scalars)+3)
	for _, k := range scalars {
		rows = append(rows, scalarBytes(k))
	}
	// The unreduced scalars the ladder also takes, and the largest it may.
	rows = append(rows, orderBytes, cofactorBytes)
	var top [32]byte
	for i := range top {
		top[i] = 0xff
	}
	top[0] = 0x7f
	rows = append(rows, top)
	for _, kb := range rows {
		digits := recodeScalar(&kb)
		sum := new(big.Int)
		for i, d := range digits {
			if lo, hi := int8(-8), int8(7); d < lo || (d > hi && !(i == 63 && d == 8)) {
				t.Fatalf("digit %d of %x is %d", i, kb, d)
			}
			sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(4*i)))
		}
		if digits[63] < 0 {
			t.Fatalf("top digit of %x is %d", kb, digits[63])
		}
		if sum.Cmp(new(big.Int).SetBytes(kb[:])) != 0 {
			t.Fatalf("digits of %x sum to %x", kb, sum)
		}
	}
	// Every digit value the table can be asked for comes back as that
	// multiple.
	p := HashToG1("recoding")
	var table [8]G1
	table[0] = *p
	for i := 1; i < 8; i++ {
		table[i].add(&table[i-1], p)
	}
	for d := int8(-8); d <= 8; d++ {
		var got G1
		got.lookup(&table, d)
		if want := p.Mul(big.NewInt(int64(d))); !got.Equal(want) {
			t.Fatalf("lookup(%d) is not %d·P", d, d)
		}
	}
}
