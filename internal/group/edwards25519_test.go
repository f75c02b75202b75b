package group

import (
	"bytes"
	"crypto/ed25519"
	"crypto/sha512"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math/big"
	"os"
	"testing"
)

// edwardsImpls is the limb implementation and the math/big oracle it
// replaced; the frozen tables must hold for both, which is what shows the
// tables really are the old code's answers.
func edwardsImpls() []Group { return []Group{Edwards25519(), bigIntEdwards25519()} }

func unhex(t testing.TB, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func mustPoint(t testing.TB, g Group, enc string) Point {
	t.Helper()
	p, err := g.UnmarshalPoint(unhex(t, enc))
	if err != nil {
		t.Fatalf("%s: UnmarshalPoint(%s): %v", g.Name(), enc, err)
	}
	return p
}

func mustScalar(t testing.TB, s string) *big.Int {
	t.Helper()
	k, ok := new(big.Int).SetString(s, 10)
	if !ok {
		t.Fatalf("bad scalar %q", s)
	}
	return k
}

// TestEdwardsKnownAnswers replays testdata/edwards25519_kat.json, frozen
// from the math/big implementation before it was replaced: Mul, BaseMul,
// Add, Neg and HashToPoint outputs, byte for byte, for scalars that
// include 0, 1, l-1, l, l+1, 2^255, negatives and 512-bit values.
func TestEdwardsKnownAnswers(t *testing.T) {
	raw, err := os.ReadFile("testdata/edwards25519_kat.json")
	if err != nil {
		t.Fatal(err)
	}
	var kat struct {
		Mul []struct{ Point, Scalar, Out string }
		// The JSON key is base_mul.
		BaseMul []struct{ Scalar, Out string } `json:"base_mul"`
		Add     []struct{ A, B, Out string }
		Neg     []struct{ Point, Out string }
		// The JSON key is hash_to_point.
		HashToPoint []struct {
			Domain string
			Data   []string
			Out    string
		} `json:"hash_to_point"`
	}
	if err := json.Unmarshal(raw, &kat); err != nil {
		t.Fatal(err)
	}
	if len(kat.Mul) == 0 || len(kat.BaseMul) == 0 || len(kat.Add) == 0 || len(kat.Neg) == 0 || len(kat.HashToPoint) == 0 {
		t.Fatal("known-answer table has an empty section")
	}
	for _, g := range edwardsImpls() {
		t.Run(g.Name(), func(t *testing.T) {
			check := func(what string, got Point, want string) {
				t.Helper()
				if enc := hex.EncodeToString(got.Marshal()); enc != want {
					t.Errorf("%s = %s, want %s", what, enc, want)
				}
			}
			for _, c := range kat.Mul {
				check("("+c.Point+").Mul("+c.Scalar+")", mustPoint(t, g, c.Point).Mul(mustScalar(t, c.Scalar)), c.Out)
			}
			for _, c := range kat.BaseMul {
				check("BaseMul("+c.Scalar+")", g.BaseMul(mustScalar(t, c.Scalar)), c.Out)
			}
			for _, c := range kat.Add {
				check(c.A+" + "+c.B, mustPoint(t, g, c.A).Add(mustPoint(t, g, c.B)), c.Out)
			}
			for _, c := range kat.Neg {
				check("-"+c.Point, mustPoint(t, g, c.Point).Neg(), c.Out)
			}
			for _, c := range kat.HashToPoint {
				data := make([][]byte, len(c.Data))
				for i, d := range c.Data {
					data[i] = unhex(t, d)
				}
				check("HashToPoint("+c.Domain+")", g.HashToPoint(c.Domain, data...), c.Out)
			}
		})
	}
}

// TestEdwardsBaseMulMatchesStdlibEd25519 checks BaseMul against an
// implementation this repo did not write: RFC 8032 §5.1.5 derives the
// public key as [clamp(SHA-512(seed)[:32])]B, which is what
// crypto/ed25519 computes.
func TestEdwardsBaseMulMatchesStdlibEd25519(t *testing.T) {
	g := Edwards25519()
	seeds := [][]byte{
		// RFC 8032 §7.1 TEST 1; public key d75a9801...f7075 11a.
		unhex(t, "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"),
		make([]byte, ed25519.SeedSize),
		bytes.Repeat([]byte{0xff}, ed25519.SeedSize),
	}
	for i := 0; i < 64; i++ {
		d := sha512.Sum512([]byte{'s', 'e', 'e', 'd', byte(i)})
		seeds = append(seeds, d[:ed25519.SeedSize])
	}
	for _, seed := range seeds {
		want := ed25519.NewKeyFromSeed(seed).Public().(ed25519.PublicKey)
		h := sha512.Sum512(seed)
		h[0] &= 248
		h[31] &= 127
		h[31] |= 64
		// The clamped scalar is little-endian.
		le := h[:32]
		be := make([]byte, 32)
		for j := range le {
			be[31-j] = le[j]
		}
		got := g.BaseMul(new(big.Int).SetBytes(be)).Marshal()
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %x: BaseMul(clamped) = %x, crypto/ed25519 public key = %x", seed, got, want)
		}
	}
	if got := hex.EncodeToString(ed25519.NewKeyFromSeed(seeds[0]).Public().(ed25519.PublicKey)); got != "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a" {
		t.Fatalf("stdlib disagrees with RFC 8032 TEST 1: %s", got)
	}
}

// smallOrderEncodings are the canonical encodings of the eight points
// whose order divides the cofactor, identity first.
var smallOrderEncodings = []string{
	"0100000000000000000000000000000000000000000000000000000000000000", // order 1
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f", // order 2
	"0000000000000000000000000000000000000000000000000000000000000000", // order 4
	"0000000000000000000000000000000000000000000000000000000000000080", // order 4
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05", // order 8
	"26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a", // order 8
	"c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa", // order 8
}

// TestEdwardsUnmarshalRejections pins every rejection UnmarshalPoint makes.
// Length, y >= p, x = 0 with the sign bit and off-curve are rejected
// exactly as the math/big implementation rejected them. Small-order and
// mixed-order points are rejected too — the check that implementation
// documented but, reducing l to 0 before multiplying by it, never made;
// for those rows the reference is the oracle's unreduced l*P. The identity
// is the one small-order point inside the prime-order subgroup and is
// accepted.
func TestEdwardsUnmarshalRejections(t *testing.T) {
	pp := oracleParamsOnce()
	limb, oracle := Edwards25519(), bigIntEdwards25519()

	// The seven small-order points other than the identity, alone and
	// added to prime-order points (mixed order). The oracle's decoder has
	// no subgroup check, so it can build them.
	primeOrder := []Point{
		oracle.Generator(),
		oracle.BaseMul(big.NewInt(7)),
		oracle.HashToPoint("rejection-table"),
	}
	outside := 0
	for i, s := range smallOrderEncodings {
		enc := unhex(t, s)
		tor, err := oracleDecode(pp, enc)
		if err != nil {
			t.Fatalf("small-order encoding %d is not on the curve: %v", i, err)
		}
		if !tor.double().double().double().IsIdentity() {
			t.Fatalf("small-order encoding %d does not have order dividing 8", i)
		}
		if i == 0 {
			if !tor.IsIdentity() {
				t.Fatal("first small-order encoding is not the identity")
			}
			continue
		}
		cases := []*oraclePoint{tor}
		for _, p := range primeOrder {
			cases = append(cases, p.Add(tor).(*oraclePoint))
		}
		for _, c := range cases {
			if c.inPrimeOrderSubgroup() {
				t.Fatalf("%x was meant to lie outside the prime-order subgroup", c.Marshal())
			}
			if p, err := limb.UnmarshalPoint(c.Marshal()); !errors.Is(err, ErrInvalidPoint) || p != nil {
				t.Errorf("point %x of order divisible by 2: got (%v, %v), want ErrInvalidPoint", c.Marshal(), p, err)
			}
			outside++
		}
	}
	if outside != 7*4 {
		t.Fatalf("checked %d points outside the subgroup, want 28", outside)
	}

	type rejection struct {
		name string
		enc  []byte
	}
	var table []rejection
	add := func(name string, enc []byte) { table = append(table, rejection{name, enc}) }

	// y >= p: p itself (y = 0 unreduced), p+1 (the identity unreduced),
	// p+2, 2^255-1, each with either sign bit.
	for _, low := range []byte{0xed, 0xee, 0xef, 0xff} {
		enc := bytes.Repeat([]byte{0xff}, 32)
		enc[0] = low
		enc[31] = 0x7f
		add("y >= p "+hex.EncodeToString(enc[:1]), bytes.Clone(enc))
		enc[31] = 0xff
		add("y >= p signed "+hex.EncodeToString(enc[:1]), enc)
	}

	// x = 0 with the sign bit set: y = 1 and y = -1.
	add("x=0 sign=1 y=1", unhex(t, "0100000000000000000000000000000000000000000000000000000000000080"))
	add("x=0 sign=1 y=-1", unhex(t, "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"))

	// y with no x on the curve.
	for _, y := range []byte{2, 7, 8} {
		enc := make([]byte, 32)
		enc[0] = y
		add("off curve y="+string(rune('0'+y)), enc)
	}

	// Wrong lengths.
	good := limb.Generator().Marshal()
	add("nil", nil)
	add("empty", []byte{})
	add("31 bytes", good[:31])
	add("33 bytes", append(bytes.Clone(good), 0))
	add("64 bytes", append(bytes.Clone(good), good...))

	for _, g := range edwardsImpls() {
		t.Run(g.Name(), func(t *testing.T) {
			for _, r := range table {
				if p, err := g.UnmarshalPoint(r.enc); !errors.Is(err, ErrInvalidPoint) || p != nil {
					t.Errorf("%s (%x): got (%v, %v), want ErrInvalidPoint", r.name, r.enc, p, err)
				}
			}
			p, err := g.UnmarshalPoint(unhex(t, smallOrderEncodings[0]))
			if err != nil || !p.IsIdentity() {
				t.Errorf("identity encoding: got (%v, %v), want the identity", p, err)
			}
			if _, err := g.UnmarshalPoint(good); err != nil {
				t.Errorf("generator encoding rejected: %v", err)
			}
		})
	}
}

// fuzzScalar reads b as a big-endian magnitude whose sign is the low bit of
// the first byte, so the fuzzer reaches negative and over-long scalars.
func fuzzScalar(b []byte) *big.Int {
	k := new(big.Int).SetBytes(b)
	if len(b) > 0 && b[0]&1 == 1 {
		k.Neg(k)
	}
	return k
}

// FuzzEdwardsAgainstBigInt runs the limb implementation and the math/big
// oracle side by side on fuzzer-chosen scalars and encodings and requires
// identical accept/reject decisions and identical bytes out of Mul,
// BaseMul, Add, Neg, MultiScalarMul and the bare curve decoder (which also
// takes the on-curve points of mixed order that UnmarshalPoint refuses).
func FuzzEdwardsAgainstBigInt(f *testing.F) {
	l := Edwards25519().Order()
	gen := Edwards25519().Generator().Marshal()
	f.Add([]byte{}, []byte{1}, gen)
	f.Add(l.Bytes(), new(big.Int).Sub(l, big.NewInt(1)).Bytes(), unhex(f, smallOrderEncodings[4]))
	f.Add(new(big.Int).Add(l, big.NewInt(1)).Bytes(), new(big.Int).Lsh(big.NewInt(1), 255).Bytes(), gen[:31])

	f.Fuzz(func(t *testing.T, a, b, enc []byte) {
		if len(a) > 80 || len(b) > 80 || len(enc) > 80 {
			t.Skip("oversized input")
		}
		limb, oracle := Edwards25519(), bigIntEdwards25519()
		pp := oracleParamsOnce()
		ka, kb := fuzzScalar(a), fuzzScalar(b)
		same := func(what string, got, want Point) {
			t.Helper()
			if g, w := got.Marshal(), want.Marshal(); !bytes.Equal(g, w) {
				t.Fatalf("%s: limbs %x, big.Int %x (a=%x b=%x enc=%x)", what, g, w, a, b, enc)
			}
		}

		// The bare decoder: same verdict, and the same bytes back through
		// add, double and encode even off the prime-order subgroup.
		var raw edPoint
		rawOK := raw.setBytes(enc)
		oraw, oerr := oracleDecode(pp, enc)
		if rawOK != (oerr == nil) {
			t.Fatalf("curve decode of %x: limbs accept=%v, big.Int err=%v", enc, rawOK, oerr)
		}
		if rawOK {
			same("decode/encode", &ed25519Point{raw}, oraw)
			var sum, dbl edPoint
			same("mixed-order add", &ed25519Point{*sum.add(&raw, &edGenerator)}, oraw.add(oracleGroup{}.Generator().(*oraclePoint)))
			same("mixed-order double", &ed25519Point{*dbl.double(&raw)}, oraw.double())
		}

		// UnmarshalPoint: on the curve and in the prime-order subgroup,
		// the latter judged by the oracle's unreduced l*P.
		p, err := limb.UnmarshalPoint(enc)
		var op Point = oraw
		if want := rawOK && oraw.inPrimeOrderSubgroup(); (err == nil) != want {
			t.Fatalf("UnmarshalPoint(%x): limbs err=%v, big.Int on curve=%v in subgroup=%v", enc, err, rawOK, want)
		}
		if err != nil {
			if !errors.Is(err, ErrInvalidPoint) || p != nil {
				t.Fatalf("UnmarshalPoint(%x) = (%v, %v), want ErrInvalidPoint", enc, p, err)
			}
			// Fall back to a point both sides derive from the input.
			p, op = limb.HashToPoint("fuzz", enc), oracle.HashToPoint("fuzz", enc)
		}
		same("point", p, op)

		q, oq := limb.BaseMul(kb), oracle.BaseMul(kb)
		same("BaseMul", q, oq)
		same("Mul", p.Mul(ka), op.Mul(ka))
		same("Add", p.Add(q), op.Add(oq))
		same("Neg", p.Neg(), op.Neg())
		kab := new(big.Int).Mul(ka, kb)
		same("MultiScalarMul",
			MultiScalarMul(limb, []Point{p, q, limb.Generator()}, []*big.Int{ka, kb, kab}),
			MultiScalarMul(oracle, []Point{op, oq, oracle.Generator()}, []*big.Int{ka, kb, kab}))
	})
}

// TestEdwardsMulAllocations bounds what Mul and BaseMul allocate: the
// returned point and the scalar's reduction, the same for a one-bit scalar
// as for a 253-bit one — nothing per bit, per digit or per point operation.
func TestEdwardsMulAllocations(t *testing.T) {
	g := Edwards25519()
	p := g.HashToPoint("allocs")
	one := big.NewInt(1)
	full := new(big.Int).Sub(g.Order(), big.NewInt(1))
	g.BaseMul(one) // build the base-point table outside the measurement
	for _, op := range []struct {
		name string
		run  func(k *big.Int)
	}{
		{"Mul", func(k *big.Int) { p.Mul(k) }},
		{"BaseMul", func(k *big.Int) { g.BaseMul(k) }},
	} {
		short := testing.AllocsPerRun(50, func() { op.run(one) })
		long := testing.AllocsPerRun(50, func() { op.run(full) })
		if short != long {
			t.Errorf("%s allocates %v times for a 1-bit scalar and %v for a 253-bit one", op.name, short, long)
		}
		if long > 3 {
			t.Errorf("%s allocates %v times per call, want at most 3", op.name, long)
		}
	}
}

// TestEdwardsScalarRecodings checks the two digit recodings reconstruct
// the scalar and stay in range, at the values where carries run furthest.
func TestEdwardsScalarRecodings(t *testing.T) {
	l := Edwards25519().Order()
	scalars := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(8), big.NewInt(15), big.NewInt(16),
		new(big.Int).Sub(l, big.NewInt(1)),
		new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 252), big.NewInt(1)),
		hashToScalar(l, "recoding"),
	}
	for _, k := range scalars {
		s := ed25519Scalar(k)
		sum := new(big.Int)
		for i, d := range signedRadix16(&s) {
			if d < -8 || d > 8 {
				t.Fatalf("radix-16 digit %d of %v is %d", i, k, d)
			}
			sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(4*i)))
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("radix-16 digits of %v sum to %v", k, sum)
		}
		sum.SetInt64(0)
		for i, d := range nonAdjacentForm5(&s) {
			if d != 0 && (d%2 == 0 || d < -15 || d > 15) {
				t.Fatalf("NAF digit %d of %v is %d", i, k, d)
			}
			sum.Add(sum, new(big.Int).Lsh(big.NewInt(int64(d)), uint(i)))
		}
		if sum.Cmp(k) != 0 {
			t.Fatalf("NAF digits of %v sum to %v", k, sum)
		}
	}
}

func BenchmarkEdwardsBaseMul(b *testing.B) {
	g := Edwards25519()
	k := hashToScalar(g.Order(), "bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.BaseMul(k)
	}
}

func BenchmarkEdwardsUnmarshalPoint(b *testing.B) {
	g := Edwards25519()
	enc := g.HashToPoint("bench").Marshal()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.UnmarshalPoint(enc); err != nil {
			b.Fatal(err)
		}
	}
}
