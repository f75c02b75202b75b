package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
)

// checkSets and checkRuns shape the -check mode like the acceptance
// procedure that consumes BENCHMARK.json: two sets of ten runs per
// workload, every run with its own seed.
const (
	checkSets = 2
	checkRuns = 10
)

// benchmarkFile is the part of BENCHMARK.json the check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of sorted as Python's
// statistics.quantiles(values, n=4) computes them (the exclusive
// method); sorted needs at least two values.
func quartiles(sorted []float64) (q [3]float64) {
	m := len(sorted)
	for i := 1; i <= 3; i++ {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	return q
}

// runCheck runs every workload (or the named one) checkSets×checkRuns
// times and fails when, for some end-to-end metric, one set's
// interquartile spread exceeds the metric's bound (setup_s excepted) or
// the two sets' medians differ by more than it. Both rules are the
// acceptance procedure's, which also asks for spreads below a third of
// the bound: a wider one is marked, and does not fail the check.
func runCheck(ctx context.Context, only string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-check runs from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	violations := 0
	for _, w := range workloads {
		if only != "" && w.name != only {
			continue
		}
		// values[set][metric] are the set's ten values.
		values := make([]map[string][]float64, checkSets)
		for set := range values {
			values[set] = make(map[string][]float64)
			for run := 0; run < checkRuns; run++ {
				seed := int64(set*checkRuns + run + 1)
				rep, err := runChild(ctx, w.name, seed, bf.RunSeconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
				}
				if !rep.Correct || rep.Failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d requests failed", w.name, seed, rep.Failed, rep.Attempted)
				}
				for name, m := range rep.Metrics {
					values[set][name] = append(values[set][name], m.Value)
				}
			}
		}
		fmt.Printf("%s\n  %-16s %12s %12s %8s %8s %8s %6s\n", w.name, "metric", "median 1", "median 2", "iqr 1", "iqr 2", "shift", "bound")
		for _, e := range bf.EndToEnd {
			var med, spread [checkSets]float64
			for set := range values {
				q := quartiles(sortedCopy(values[set][e.Name]))
				med[set], spread[set] = q[1], (q[2]-q[0])/q[1]
			}
			shift := med[1]/med[0] - 1
			verdict := ""
			widest := max(spread[0], spread[1])
			switch {
			case (e.Name != "setup_s" && widest > e.Bound) || max(shift, -shift) > e.Bound:
				verdict = "  OUTSIDE BOUND"
				violations++
			case e.Name != "setup_s" && widest > e.Bound/3:
				verdict = "  spread above a third of the bound"
			}
			fmt.Printf("  %-16s %12.4f %12.4f %8.4f %8.4f %+8.4f %6.2f%s\n",
				e.Name, med[0], med[1], spread[0], spread[1], shift, e.Bound, verdict)
		}
	}
	if violations > 0 {
		return fmt.Errorf("%d metrics outside their bounds", violations)
	}
	return nil
}

// runChild runs one untraced workload in a child process and parses
// the report on the last line of its output.
func runChild(ctx context.Context, name string, seed int64, seconds int) (report, error) {
	cmd, err := selfCommand(ctx, workloadArgs(name, seed, seconds, 0)...)
	if err != nil {
		return report{}, err
	}
	out, err := cmd.Output()
	if err != nil {
		return report{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return report{}, fmt.Errorf("parse report: %w", err)
	}
	return rep, nil
}
