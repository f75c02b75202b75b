package eval

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"thetacrypt/internal/schemes"
)

func TestPercentile(t *testing.T) {
	data := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{50, 5}, {95, 10}, {100, 10}, {10, 1}, {34, 4},
	}
	for _, tc := range cases {
		if got := percentile(data, tc.p); got != tc.want {
			t.Fatalf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestTable2Deployments(t *testing.T) {
	deps := Table2()
	if len(deps) != 6 {
		t.Fatalf("got %d deployments", len(deps))
	}
	for _, d := range deps {
		if d.N != 3*d.T+1 {
			t.Fatalf("%s: n=%d t=%d violates n=3t+1", d.Name, d.N, d.T)
		}
		// One-way latency is symmetric and positive.
		if d.OneWay(1, 2) != d.OneWay(2, 1) {
			t.Fatalf("%s: asymmetric link", d.Name)
		}
	}
	local, _ := DeploymentByName("DO-7-L")
	global, _ := DeploymentByName("DO-7-G")
	if local.OneWay(1, 2) >= time.Millisecond {
		t.Fatal("local deployment link too slow")
	}
	// In the global deployment some pair spans continents.
	var maxDelay time.Duration
	for i := 1; i <= 7; i++ {
		for j := 1; j <= 7; j++ {
			if d := global.OneWay(i, j); d > maxDelay {
				maxDelay = d
			}
		}
	}
	if maxDelay < 50*time.Millisecond {
		t.Fatalf("global deployment max one-way %v too small", maxDelay)
	}
	if _, err := DeploymentByName("DO-9000"); err == nil {
		t.Fatal("unknown deployment accepted")
	}
}

func TestSimDeterminism(t *testing.T) {
	dep, _ := DeploymentByName("DO-7-L")
	spec := RunSpec{Scheme: schemes.CKS05, Deployment: dep, Rate: 4, Duration: time.Second, Seed: 99}
	r1, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Offered != r2.Offered || r1.Completed != r2.Completed || r1.L95All != r2.L95All {
		t.Fatalf("same seed diverged: %+v vs %+v", r1, r2)
	}
}

func TestSimCompletesAtLowLoad(t *testing.T) {
	dep, _ := DeploymentByName("DO-7-L")
	r, err := Run(RunSpec{Scheme: schemes.CKS05, Deployment: dep, Rate: 2, Duration: 2 * time.Second, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != r.Offered {
		t.Fatalf("low load should complete everything: %d/%d", r.Completed, r.Offered)
	}
	// Unloaded latency is bounded by a few multiples of the crypto
	// costs plus network delay.
	unloaded := r.Costs.ShareGen + time.Duration(dep.T+1)*r.Costs.ShareVerify + r.Costs.Combine
	if r.L95All > 10*unloaded+100*time.Millisecond {
		t.Fatalf("unloaded L95 %v too high (budget %v)", r.L95All, unloaded)
	}
}

func TestGlobalDeploymentAddsLatency(t *testing.T) {
	local, _ := DeploymentByName("DO-7-L")
	global, _ := DeploymentByName("DO-7-G")
	spec := RunSpec{Scheme: schemes.CKS05, Rate: 2, Duration: 2 * time.Second, Seed: 7}
	spec.Deployment = local
	rl, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Deployment = global
	rg, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if rg.L95All <= rl.L95All+20*time.Millisecond {
		t.Fatalf("global (%v) should be much slower than local (%v)", rg.L95All, rl.L95All)
	}
	// The paper's core observation: geography shifts latency but not
	// the computation-bound capacity. Verify the latency shift is at
	// least one WAN round trip.
	if rg.L95All-rl.L95All < 40*time.Millisecond {
		t.Fatal("WAN latency not reflected")
	}
}

func TestFrostPrecomputationAblation(t *testing.T) {
	dep, _ := DeploymentByName("DO-7-G")
	two, err := Run(RunSpec{Scheme: schemes.KG20, Deployment: dep, Rate: 2, Duration: 2 * time.Second, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(RunSpec{Scheme: schemes.KG20, Deployment: dep, Rate: 2, Duration: 2 * time.Second, Seed: 11, Precomputed: true})
	if err != nil {
		t.Fatal(err)
	}
	if two.Completed == 0 || one.Completed == 0 {
		t.Fatalf("no completions: two=%d one=%d", two.Completed, one.Completed)
	}
	// Dropping the commitment round must save at least a large fraction
	// of one WAN round trip at low load. Read it at Lθ, the latency by
	// which a quorum of nodes holds the signature: L95 over all nodes is
	// pinned by the one slowest inter-region link in either mode, so
	// there the two differ only by the calibrated cost of round 1.
	if one.LnetTheta+20*time.Millisecond >= two.LnetTheta {
		t.Fatalf("precomputed (Lθ %v) not faster than two-round (Lθ %v)", one.LnetTheta, two.LnetTheta)
	}
}

func TestSchemeOrderingAtSmallScale(t *testing.T) {
	// Paper: in small deployments, local crypto dominates, so ECDH-based
	// schemes beat pairing-based ones.
	dep, _ := DeploymentByName("DO-7-L")
	cks, err := Run(RunSpec{Scheme: schemes.CKS05, Deployment: dep, Rate: 2, Duration: 2 * time.Second, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	bls, err := Run(RunSpec{Scheme: schemes.BLS04, Deployment: dep, Rate: 2, Duration: 2 * time.Second, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if cks.L95All >= bls.L95All {
		t.Fatalf("ECDH-based CKS05 (%v) should beat pairing-based BLS04 (%v) at small scale", cks.L95All, bls.L95All)
	}
}

func TestKneeAndUsableCapacity(t *testing.T) {
	mk := func(rate, tput float64, l95 time.Duration) *RunResult {
		return &RunResult{Spec: RunSpec{Rate: rate}, Completed: 1, Throughput: tput, L95All: l95}
	}
	series := []*RunResult{
		mk(1, 1, 100*time.Millisecond),
		mk(2, 2, 100*time.Millisecond),
		mk(4, 4, 110*time.Millisecond), // knee: best tput/latency
		mk(8, 5, 400*time.Millisecond),
		mk(16, 5.2, 2*time.Second),
	}
	knee := Knee(series)
	if knee == nil || knee.Spec.Rate != 4 {
		t.Fatalf("knee = %+v, want rate 4", knee)
	}
	if got := UsableCapacity(series); got != 5.2 {
		t.Fatalf("usable capacity = %v", got)
	}
	if Knee(nil) != nil {
		t.Fatal("empty knee should be nil")
	}
}

func TestStaticTables(t *testing.T) {
	var sb strings.Builder
	Table1(&sb)
	if !strings.Contains(sb.String(), "SG02") || !strings.Contains(sb.String(), "randomness") {
		t.Fatal("Table 1 incomplete")
	}
	sb.Reset()
	Table2Print(&sb)
	if !strings.Contains(sb.String(), "DO-127-G") {
		t.Fatal("Table 2 incomplete")
	}
	sb.Reset()
	Table3(&sb)
	if !strings.Contains(sb.String(), "O(n^2)") {
		t.Fatal("Table 3 incomplete")
	}
}

func TestCalibrationCaching(t *testing.T) {
	c1, err := Calibrate(schemes.CKS05, 1, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Calibrate(schemes.CKS05, 1, 4, 256)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("calibration cache miss for identical key")
	}
	if c1.ShareGen <= 0 || c1.ShareVerify <= 0 || c1.Combine <= 0 {
		t.Fatalf("implausible costs: %+v", c1)
	}
}

func TestValidateSimAgainstRealStack(t *testing.T) {
	if testing.Short() {
		t.Skip("real-stack validation is wall-clock bound")
	}
	dep, _ := DeploymentByName("DO-7-L")
	spec := RunSpec{Scheme: schemes.CKS05, Deployment: dep, Rate: 4, Duration: 2 * time.Second, Seed: 42}
	simRes, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	realRes, err := RunReal(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sim Lθ=%v L95=%v | real Lθ=%v L95=%v (host cores: %d)",
		simRes.LnetTheta, simRes.L95All, realRes.LnetTheta, realRes.L95All, runtime.NumCPU())
	// The latencies above are logged, not compared: the simulator gives
	// each node a dedicated vCPU while the real stack multiplexes all n
	// nodes (and whatever else the host runs) onto its cores, so their
	// ratio measures the machine's load. What both runs must do on any
	// machine is complete every request they were offered.
	for name, res := range map[string]*RunResult{"sim": simRes, "real": realRes} {
		if res.Offered == 0 || res.Completed != res.Offered {
			t.Fatalf("%s run completed %d of %d offered requests", name, res.Completed, res.Offered)
		}
	}
}
