package group

import (
	"crypto/rand"
	"crypto/sha512"
	"math/big"
	"testing"
)

// naiveMSM is the reference per-term scalar-multiply-and-add.
func naiveMSM(g Group, points []Point, scalars []*big.Int) Point {
	acc := g.Identity()
	for i, p := range points {
		acc = acc.Add(p.Mul(scalars[i]))
	}
	return acc
}

func msmCase(t *testing.T, g Group, n int) ([]Point, []*big.Int) {
	t.Helper()
	pts := make([]Point, n)
	ks := make([]*big.Int, n)
	for i := range pts {
		k, err := g.RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = g.HashToPoint("msm-test", []byte{byte(i)})
		ks[i] = k
	}
	return pts, ks
}

func TestMultiScalarMulMatchesNaive(t *testing.T) {
	for _, g := range []Group{Edwards25519(), P256()} {
		t.Run(g.Name(), func(t *testing.T) {
			for _, n := range []int{1, 2, 7, 32} {
				pts, ks := msmCase(t, g, n)
				fast := MultiScalarMul(g, pts, ks)
				slow := naiveMSM(g, pts, ks)
				if !fast.Equal(slow) {
					t.Fatalf("n=%d: fast path disagrees with naive sum", n)
				}
			}
			// Scalars outside [0, order) reduce like Mul does.
			pts, ks := msmCase(t, g, 3)
			ks[0] = new(big.Int).Add(ks[0], g.Order())
			ks[1] = new(big.Int).Neg(ks[1])
			if !MultiScalarMul(g, pts, ks).Equal(naiveMSM(g, pts, ks)) {
				t.Fatal("unreduced scalars disagree with naive sum")
			}
			// Zero scalars contribute nothing.
			if !MultiScalarMul(g, pts, []*big.Int{big.NewInt(0), big.NewInt(0), big.NewInt(0)}).IsIdentity() {
				t.Fatal("all-zero MSM is not the identity")
			}
		})
	}
}

func TestMultiScalarMulEmptyAndMismatch(t *testing.T) {
	g := Edwards25519()
	if !MultiScalarMul(g, nil, nil).IsIdentity() {
		t.Fatal("empty MSM is not the identity")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched slice lengths did not panic")
		}
	}()
	MultiScalarMul(g, []Point{g.Generator()}, nil)
}

// fallbackPoint and fallbackScalar decode one term of the P-256
// fallback's differential test from a selector value: the point kinds
// and scalar shapes the per-term shortcuts branch on, next to the ones
// they must leave to a full multiplication.
const (
	fallbackPointKinds  = 5
	fallbackScalarKinds = 8
)

func fallbackPoint(g Group, kind, i int) Point {
	switch kind {
	case 0:
		return g.Generator()
	case 1:
		return g.Identity()
	case 2:
		return g.HashToPoint("msm-fallback", []byte{byte(i)})
	case 3:
		return g.Generator().Neg()
	default:
		// The generator reached by arithmetic, not by Generator().
		return g.BaseMul(big.NewInt(1)).Add(g.Identity())
	}
}

func fallbackScalar(g Group, kind, i int, raw []byte) *big.Int {
	n := g.Order()
	switch kind {
	case 0:
		return big.NewInt(0)
	case 1:
		return big.NewInt(1)
	case 2:
		return new(big.Int).Sub(n, big.NewInt(1))
	case 3:
		return new(big.Int).Set(n)
	case 4:
		return new(big.Int).Add(n, big.NewInt(1))
	case 5:
		// Negative: −(raw + i), and −1 when raw is empty.
		v := new(big.Int).SetBytes(raw)
		return v.Neg(v.Add(v, big.NewInt(int64(i+1))))
	case 6:
		// 512 bits, well above the order.
		h := sha512.Sum512(append([]byte{byte(i)}, raw...))
		v := new(big.Int).SetBytes(h[:])
		return v.SetBit(v, 511, 1)
	default:
		return new(big.Int).SetBytes(raw)
	}
}

// fallbackTerms builds one term per selector byte (at most 8), the
// scalar material cut from raw.
func fallbackTerms(g Group, sel, raw []byte) ([]Point, []*big.Int) {
	if len(sel) > 8 {
		sel = sel[:8]
	}
	pts := make([]Point, len(sel))
	ks := make([]*big.Int, len(sel))
	for i, s := range sel {
		chunk := raw
		if len(chunk) > 40 {
			chunk = chunk[:40]
		}
		if len(raw) > 40 {
			raw = raw[40:]
		}
		pts[i] = fallbackPoint(g, int(s)%fallbackPointKinds, i)
		ks[i] = fallbackScalar(g, int(s)/fallbackPointKinds%fallbackScalarKinds, i, chunk)
	}
	return pts, ks
}

// TestMultiScalarMulFallbackShortcuts: the P-256 per-term path — skip
// for 0 and the identity, Add for 1, Neg for −1, BaseMul for the
// generator — agrees with the plain per-term Mul+Add sum for every
// point kind against every scalar shape, alone and mixed.
func TestMultiScalarMulFallbackShortcuts(t *testing.T) {
	g := P256()
	raw := []byte("0123456789abcdef0123456789abcdef")
	for pk := 0; pk < fallbackPointKinds; pk++ {
		for sk := 0; sk < fallbackScalarKinds; sk++ {
			pts := []Point{fallbackPoint(g, pk, 0)}
			ks := []*big.Int{fallbackScalar(g, sk, 0, raw)}
			if got, want := MultiScalarMul(g, pts, ks), naiveMSM(g, pts, ks); !got.Equal(want) {
				t.Fatalf("point kind %d, scalar kind %d: fallback %x, per-term sum %x", pk, sk, got.Marshal(), want.Marshal())
			}
		}
	}
	// Terms that cancel: P + (−1)·P, and G·k + G·(n−k) through both
	// generator spellings, sum to the identity.
	k := new(big.Int).SetBytes(raw)
	h := fallbackPoint(g, 2, 0)
	cancel := [][]Point{{h, h}, {g.Generator(), fallbackPoint(g, 4, 0)}}
	scal := [][]*big.Int{
		{big.NewInt(1), new(big.Int).Sub(g.Order(), big.NewInt(1))},
		{k, new(big.Int).Sub(g.Order(), k)},
	}
	for i := range cancel {
		if got := MultiScalarMul(g, cancel[i], scal[i]); !got.IsIdentity() {
			t.Fatalf("cancelling terms %d sum to %x, want the identity", i, got.Marshal())
		}
	}
	// Every selector value, eight terms at a time.
	sel := make([]byte, fallbackPointKinds*fallbackScalarKinds)
	for i := range sel {
		sel[i] = byte(i)
	}
	for off := 0; off < len(sel); off += 8 {
		pts, ks := fallbackTerms(g, sel[off:off+8], raw)
		if got, want := MultiScalarMul(g, pts, ks), naiveMSM(g, pts, ks); !got.Equal(want) {
			t.Fatalf("selectors %v: fallback %x, per-term sum %x", sel[off:off+8], got.Marshal(), want.Marshal())
		}
	}
}

// FuzzMultiScalarMulFallback checks the P-256 fallback against the
// per-term Mul+Add sum on fuzzed mixes of generator, identity and
// hashed points with scalars 0, 1, n−1, n, n+1, negative, 512-bit and
// arbitrary values.
func FuzzMultiScalarMulFallback(f *testing.F) {
	f.Add([]byte{0, 5, 10, 15}, []byte{})
	f.Add([]byte{20, 26, 32, 38}, []byte("seed"))
	f.Fuzz(func(t *testing.T, sel, raw []byte) {
		if len(raw) > 400 {
			t.Skip("oversized input")
		}
		g := P256()
		pts, ks := fallbackTerms(g, sel, raw)
		if got, want := MultiScalarMul(g, pts, ks), naiveMSM(g, pts, ks); !got.Equal(want) {
			t.Fatalf("sel=%x raw=%x: fallback %x, per-term sum %x", sel, raw, got.Marshal(), want.Marshal())
		}
	})
}

func TestRelationHolds(t *testing.T) {
	g := Edwards25519()
	a, err := g.RandomScalar(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	neg := new(big.Int).Sub(g.Order(), a)
	good := Relation{Points: []Point{g.Generator(), g.Generator()}, Scalars: []*big.Int{a, neg}}
	if !good.Holds(g) {
		t.Fatal("a*G + (-a)*G rejected")
	}
	bad := Relation{Points: []Point{g.Generator()}, Scalars: []*big.Int{big.NewInt(1)}}
	if bad.Holds(g) {
		t.Fatal("1*G accepted as identity")
	}
}

func BenchmarkMSM32Fast(b *testing.B) {
	g := Edwards25519()
	pts := make([]Point, 32)
	ks := make([]*big.Int, 32)
	for i := range pts {
		k, err := g.RandomScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		pts[i] = g.HashToPoint("msm-bench", []byte{byte(i)})
		ks[i] = k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MultiScalarMul(g, pts, ks)
	}
}

func BenchmarkMSM32Naive(b *testing.B) {
	g := Edwards25519()
	pts := make([]Point, 32)
	ks := make([]*big.Int, 32)
	for i := range pts {
		k, err := g.RandomScalar(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		pts[i] = g.HashToPoint("msm-bench", []byte{byte(i)})
		ks[i] = k
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveMSM(g, pts, ks)
	}
}
