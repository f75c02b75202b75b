// Command thetabench regenerates the paper's simulated evaluation:
// every table and figure of Section 4. The end-to-end benchmark of the
// real stack is bench/run.sh.
//
// Subcommands:
//
//	table1 | table2 | table3   static inventories
//	fig4                       capacity test (throughput-latency)
//	table4                     knee capacity, δres, ηθ on DO-31-G
//	fig5a                      latency percentiles at knee capacity
//	fig5b                      payload-size sweep
//	micro                      primitive micro-benchmarks (calibration)
//	validate                   simulator vs real-stack cross check
//	all                        everything above except micro and validate
//
// Flags: -duration (capacity window, default 5s), -steady (steady-state
// window, default 30s), -schemes, -deployments, -seed. The paper's full
// windows are -duration 60s -steady 5m.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"thetacrypt/internal/eval"
	"thetacrypt/internal/schemes"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thetabench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		duration    = flag.Duration("duration", 5*time.Second, "virtual load window per capacity point")
		steady      = flag.Duration("steady", 30*time.Second, "virtual window for steady-state runs")
		schemesFlag = flag.String("schemes", "", "comma-separated scheme subset")
		deploysFlag = flag.String("deployments", "", "comma-separated deployment subset")
		seed        = flag.Uint64("seed", 1, "simulation seed")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		return fmt.Errorf("missing subcommand (table1|table2|table3|fig4|table4|fig5a|fig5b|micro|validate|all)")
	}
	opts := eval.Options{
		Duration:       *duration,
		SteadyDuration: *steady,
		Seed:           *seed,
	}
	if *schemesFlag != "" {
		for _, s := range strings.Split(*schemesFlag, ",") {
			id := schemes.ID(strings.TrimSpace(s))
			if _, err := schemes.Lookup(id); err != nil {
				return err
			}
			opts.Schemes = append(opts.Schemes, id)
		}
	}
	if *deploysFlag != "" {
		opts.Deployments = strings.Split(*deploysFlag, ",")
	}

	w := os.Stdout
	cmd := flag.Arg(0)
	switch cmd {
	case "table1":
		eval.Table1(w)
	case "table2":
		eval.Table2Print(w)
	case "table3":
		eval.Table3(w)
	case "fig4":
		return eval.Fig4(w, opts)
	case "table4":
		return eval.Table4(w, opts)
	case "fig5a":
		return eval.Fig5a(w, opts)
	case "fig5b":
		return eval.Fig5b(w, opts)
	case "micro":
		ids := opts.Schemes
		return eval.MicroBench(w, 10, 31, 256, ids)
	case "validate":
		ids := opts.Schemes
		if len(ids) == 0 {
			ids = []schemes.ID{schemes.CKS05, schemes.BLS04}
		}
		fmt.Fprintln(w, "# simulator vs real stack, DO-7-L at 4 req/s")
		for _, id := range ids {
			if err := eval.Validate(w, id, 3*time.Second); err != nil {
				return err
			}
		}
		return nil
	case "all":
		eval.Table1(w)
		fmt.Fprintln(w)
		eval.Table2Print(w)
		fmt.Fprintln(w)
		eval.Table3(w)
		fmt.Fprintln(w)
		if err := eval.Fig4(w, opts); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := eval.Table4(w, opts); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := eval.Fig5a(w, opts); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return eval.Fig5b(w, opts)
	default:
		return fmt.Errorf("unknown subcommand %q", cmd)
	}
	return nil
}
