// Command bench is the repository's benchmark: four named workloads on
// real in-process deployments, six end-to-end metrics each, and — in a
// separate traced run — a per-layer budget measured from outside the
// program. See README.md in this directory and BENCHMARK.json at the
// repository root.
//
//	go run ./bench -workload sg02-decrypt-p256-stack -seed 1
//	go run ./bench -workload sg02-decrypt-p256-stack -seed 1 -trace 1
//	go run ./bench                  # every workload, one process each
//	go run ./bench -check           # two sets of runs, compared to the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"time"
)

// defaultSeconds matches run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// setupRepeats is how often a run sets the deployment up; setup_s is
// the median, the last deployment is the one measured.
const setupRepeats = 3

// Share of -seconds given to the unloaded phase; the saturated phase
// gets the rest.
const unloadedShare = 0.6

// tailPercent is the reported tail of the unloaded latency: the highest
// percentile that keeps ten samples beyond it on the slowest workload.
const tailPercent = 75

// metric is one reported value. The JSON shape is the driver's.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of a run's standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload (default: each of the four, one process per workload)")
		seed    = flag.Int64("seed", 1, "seed of the input generator")
		seconds = flag.Int("seconds", defaultSeconds, "length of the timed phases, in seconds")
		trace   = flag.Int("trace", 0, "1 decorates the layer boundaries and reports the per-layer metrics")
		check   = flag.Bool("check", false, "run two sets of runs and compare every end-to-end metric with its bound in BENCHMARK.json")
		out     = flag.String("out", "", "directory the traced run writes its spans to (default: a temp dir)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	ctx := context.Background()
	var err error
	switch {
	case *check:
		err = runCheck(ctx, *name)
	case *name == "":
		err = runEach(ctx, *seed, *seconds, *trace, *out)
	default:
		w, ok := workloadByName(*name)
		if !ok {
			err = fmt.Errorf("unknown workload %q", *name)
			break
		}
		var rep report
		if rep, err = runWorkload(ctx, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out); err != nil {
			break
		}
		line, _ := json.Marshal(rep) // a map of finite floats and three scalars always encodes
		fmt.Println(string(line))
		if !rep.Correct {
			err = fmt.Errorf("%s: wrong results", w.name)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// selfCommand re-runs this binary; one workload per process keeps one
// workload's memory peak, heap and warmed caches out of the next.
func selfCommand(ctx context.Context, args ...string) (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	return cmd, nil
}

func workloadArgs(name string, seed int64, seconds, trace int) []string {
	return []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(trace)}
}

func runEach(ctx context.Context, seed int64, seconds, trace int, out string) error {
	var failed []string
	for _, w := range workloads {
		args := workloadArgs(w.name, seed, seconds, trace)
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd, err := selfCommand(ctx, args...)
		if err != nil {
			return err
		}
		cmd.Stdout = os.Stdout
		if err := cmd.Run(); err != nil {
			failed = append(failed, w.name)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed workloads: %v", failed)
	}
	return nil
}

// commit is the revision the binary was built from; run.sh sets it with
// -ldflags -X, and a plain `go build` in a git checkout leaves it to the
// toolchain's VCS stamp.
var commit string

func buildCommit() string {
	if commit != "" {
		return commit
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func printEnvironment(w io.Writer, wl workload, seed int64, window time.Duration, traced bool) {
	fmt.Fprintf(w, "# workload %s  seed %d  seconds %v  traced %v\n", wl.name, seed, window.Seconds(), traced)
	fmt.Fprintf(w, "# nproc %d  GOMAXPROCS %d  %s %s/%s  commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, buildCommit())
	fmt.Fprintf(w, "# every node in this process; TCP is host loopback; injected message delay 0\n")
	fmt.Fprintf(w, "# closed loop: unloaded = 1 client, saturated = waves of %d from one goroutine\n", waveSize)
}

// setUp builds the workload's deployment and warms it: warm-up units
// through the unloaded path, then one wave through the batch path.
func setUp(ctx context.Context, w workload, in *inputs, tr *tracer) (*session, error) {
	s, err := w.build(ctx, in, tr)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.warmup; i++ {
		if _, _, err := s.one(ctx); err != nil {
			s.d.Close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	if _, failed, err := s.wave(ctx); err != nil || failed > 0 {
		s.d.Close()
		return nil, fmt.Errorf("warm-up wave: %d failed: %v", failed, err)
	}
	return s, nil
}

func runWorkload(ctx context.Context, w workload, seed int64, window time.Duration, traced bool, out string) (report, error) {
	printEnvironment(os.Stdout, w, seed, window, traced)
	in := newInputs(seed)
	log := &errLog{}
	if traced {
		return runTraced(ctx, w, in, window, out, log)
	}

	var setups []float64
	var s *session
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.d.Close()
		}
		start := time.Now()
		var err error
		if s, err = setUp(ctx, w, in, nil); err != nil {
			return report{}, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer s.d.Close()

	stopRSS := sampleRSS()
	unloadedWindow := time.Duration(unloadedShare * float64(window))
	unEnd, satEnd := phaseLimit(unloadedWindow, w.unloadedRate), phaseLimit(window-unloadedWindow, w.waveRate)
	un := runUnloaded(ctx, s, "u", unEnd, log)
	sat := runSaturated(ctx, s, satEnd, log)
	rss, err := stopRSS()
	if err != nil {
		return report{}, err
	}
	// Verification runs after the timed phases, so it is charged to
	// neither the throughput nor the CPU per request.
	wrongUn := verifyAll(ctx, un.checks, log)
	wrongSat := verifyAll(ctx, sat.checks, log)

	good := sat.completed() - wrongSat
	if len(un.latencies) == 0 || good <= 0 {
		return report{}, fmt.Errorf("no request completed (unloaded %d/%d, saturated %d/%d)",
			un.completed(), un.attempted, sat.completed(), sat.attempted)
	}
	lat := sortedCopy(un.latencies)
	rep := report{
		Correct:   wrongUn+wrongSat == 0,
		Attempted: un.attempted + sat.attempted,
		Failed:    un.failed + sat.failed + wrongUn + wrongSat,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"latency_p50_ms": {percentile(lat, 50), "ms"},
			"latency_p75_ms": {percentile(lat, tailPercent), "ms"},
			"throughput_rps": {float64(good) / sat.elapsed.Seconds(), "1/s"},
			"cpu_ms_per_req": {float64(sat.used.cpu) / float64(time.Millisecond) / float64(sat.completed()), "ms"},
			"rss_p90_mb":     {percentile(sortedCopy(rss), 90), "MB"},
		},
	}
	fmt.Printf("unloaded:  %d requests in %.2fs, %d failed; p%d has %d samples beyond it (ten would allow p%d)\n",
		un.attempted, un.elapsed.Seconds(), un.failed+wrongUn, tailPercent, samplesBeyond(len(lat), tailPercent), tailPercentile(len(lat)))
	fmt.Printf("saturated: %d requests in %.2fs, %d failed\n", sat.attempted, sat.elapsed.Seconds(), sat.failed+wrongSat)
	noteCutShort("unloaded", unEnd, un.attempted)
	noteCutShort("saturated", satEnd, sat.attempted/waveSize)
	fmt.Printf("failed_frac %.6f (%d of %d)\n", float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted)
	printMetrics(os.Stdout, rep.Metrics)
	printMetrics(os.Stdout, counterMetrics(un, sat))
	return rep, nil
}

// noteCutShort says when a phase of fixed work ended on its time cap:
// its numbers were then taken in a smaller state than other runs'.
func noteCutShort(name string, end limit, done int) {
	if end.units == 0 {
		return
	}
	if done < end.units {
		fmt.Printf("%s: CUT SHORT after %v at %d of %d units of fixed work; not comparable with a full run\n", name, end.budget, done, end.units)
		return
	}
	fmt.Printf("%s: fixed work, %d units (time cap %v)\n", name, end.units, end.budget)
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-44s %14.4f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// counterMetrics are the per-layer metrics that come free with every
// run: growth of the nodes' own counters and of the Go runtime's over
// the timed phases. Frames and allocation are per completed request of
// both phases; the precompute ratios are of the saturated phase, the
// only one in which verifications can coalesce. Frames are what the
// workload's transport (tcpnet or memnet) sent, standalone acks included.
func counterMetrics(un, sat phase) map[string]metric {
	all := float64(un.completed() + sat.completed())
	return map[string]metric{
		"orchestration.rejected_shares":    {float64(un.grown.RejectedShares + sat.grown.RejectedShares), "count"},
		"orchestration.overloaded":         {float64(un.grown.Overloaded + sat.grown.Overloaded), "count"},
		"orchestration.partial_broadcasts": {float64(un.grown.PartialBroadcasts + sat.grown.PartialBroadcasts), "count"},
		"net.frames_per_req":               {ratio(float64(un.grown.FramesSent+sat.grown.FramesSent), all), "count"},
		"relink.resent_per_req":            {ratio(float64(un.grown.Resent+sat.grown.Resent), all), "count"},
		"relink.dropped":                   {float64(un.grown.Dropped + sat.grown.Dropped), "count"},
		"precompute.lagrange_hit_ratio":    {ratio(float64(sat.grown.LagrangeHits), float64(sat.grown.LagrangeHits+sat.grown.LagrangeMisses)), "ratio"},
		"precompute.relations_per_batch":   {ratio(float64(sat.grown.BatchedRelations), float64(sat.grown.BatchesVerified)), "count"},
		"precompute.coalesced_ratio":       {ratio(float64(sat.grown.CoalescedRequests), float64(sat.grown.CoalescedRequests+sat.grown.BatchesVerified)), "ratio"},
		"precompute.batch_fallbacks":       {float64(sat.grown.BatchFallbacks), "count"},
		"precompute.nonce_exhaustions":     {float64(sat.grown.NonceExhaustions), "count"},
		"process.alloc_kb_per_req":         {ratio(float64(un.used.allocBytes+sat.used.allocBytes)/1024, all), "kB"},
		"process.gc_cpu_frac":              {ratio(un.used.gcCPU+sat.used.gcCPU, (un.used.cpu + sat.used.cpu).Seconds()), "ratio"},
	}
}
