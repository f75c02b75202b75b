// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (Section 4), plus two ablations (A1 primitive
// micro-benchmarks, A3 group backends). Each target regenerates the
// corresponding rows/series through internal/eval with scaled-down
// virtual windows; the full-size runs (60 s capacity windows, 5 min
// steady state) are produced by
// `go run ./cmd/thetabench -duration 60s -steady 5m all`.
package thetacrypt_test

import (
	"crypto/rand"
	"io"
	"os"
	"testing"
	"time"

	"thetacrypt/internal/eval"
	"thetacrypt/internal/group"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/sg02"
)

// benchWriter streams experiment rows to stdout when -v is given,
// otherwise discards them (the series still get computed).
func benchWriter(b *testing.B) io.Writer {
	if testing.Verbose() {
		return os.Stdout
	}
	return io.Discard
}

// quickOpts keeps the per-point virtual windows small enough for a
// benchmark run; shapes (knee ordering, percentile gaps) are preserved.
func quickOpts() eval.Options {
	return eval.Options{
		Duration:       time.Second,
		SteadyDuration: 3 * time.Second,
		Seed:           7,
	}
}

// BenchmarkTable1SchemeInventory regenerates Table 1 (E1).
func BenchmarkTable1SchemeInventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eval.Table1(benchWriter(b))
	}
}

// BenchmarkTable2Deployments regenerates Table 2 (E2).
func BenchmarkTable2Deployments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eval.Table2Print(benchWriter(b))
	}
}

// BenchmarkTable3SchemeParams regenerates Table 3 (E3).
func BenchmarkTable3SchemeParams(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eval.Table3(benchWriter(b))
	}
}

// BenchmarkFig4CapacityTest regenerates the Figure 4 capacity series
// (E4) on a representative deployment subset (small local, small
// global, medium global); the CLI covers all six.
func BenchmarkFig4CapacityTest(b *testing.B) {
	opts := quickOpts()
	opts.Deployments = []string{"DO-7-L", "DO-7-G", "DO-31-G"}
	for i := 0; i < b.N; i++ {
		if err := eval.Fig4(benchWriter(b), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4Steady regenerates Table 4 (E5): knee capacity, δres,
// ηθ on DO-31-G.
func BenchmarkTable4Steady(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := eval.Table4(benchWriter(b), quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5aPercentiles regenerates Figure 5a (E6).
func BenchmarkFig5aPercentiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := eval.Fig5a(benchWriter(b), quickOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bPayload regenerates Figure 5b (E7) for two
// representative schemes (the CLI covers all six).
func BenchmarkFig5bPayload(b *testing.B) {
	opts := quickOpts()
	opts.Schemes = []schemes.ID{schemes.SG02, schemes.BLS04}
	for i := 0; i < b.N; i++ {
		if err := eval.Fig5b(benchWriter(b), opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroPrimitives is ablation A1: the per-primitive
// micro-benchmark view the paper contrasts with system-level results.
func BenchmarkMicroPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if err := eval.MicroBench(benchWriter(b), 10, 31, 256, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGroups is ablation A3: the SG02 decryption-share
// primitive on the 51-bit-limb edwards25519 group against the
// stdlib-backed P-256 group.
func BenchmarkAblationGroups(b *testing.B) {
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		g := g
		b.Run(g.Name(), func(b *testing.B) {
			pk, ks, err := sg02.Deal(rand.Reader, g, 2, 7)
			if err != nil {
				b.Fatal(err)
			}
			ct, err := sg02.Encrypt(rand.Reader, pk, []byte("bench message"), nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sg02.DecryptShare(rand.Reader, pk, ks[0], ct); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
