package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is the process's cumulative resource consumption at one moment.
type usage struct {
	cpu        time.Duration // user + system, getrusage(RUSAGE_SELF)
	gcCPU      float64       // seconds, /cpu/classes/gc/total
	allocBytes uint64        // cumulative heap allocation
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	return usage{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      samples[0].Value.Float64(),
		allocBytes: samples[1].Value.Uint64(),
	}
}

// residentMB reads the process's resident set from /proc/self/statm.
func residentMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", raw)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// rssInterval is the period of the resident-set sampler.
const rssInterval = 25 * time.Millisecond

// sampleRSS samples the resident set every rssInterval until the
// returned function is called, which stops the sampler and returns the
// samples. The high-water mark (VmHWM) is not used: with the small live
// heaps of the crypto-bound workloads it records one garbage-collection
// overshoot and differs by half between two runs of the same code.
func sampleRSS() (stop func() ([]float64, error)) {
	quit := make(chan struct{})
	type result struct {
		samples []float64
		err     error
	}
	done := make(chan result, 1)
	go func() {
		var r result
		tick := time.NewTicker(rssInterval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				mb, err := residentMB()
				if err != nil {
					r.err = err
				} else {
					r.samples = append(r.samples, mb)
				}
			case <-quit:
				done <- r
				return
			}
		}
	}()
	return func() ([]float64, error) {
		close(quit)
		r := <-done
		if r.err == nil && len(r.samples) == 0 {
			r.err = fmt.Errorf("no resident-set sample taken")
		}
		return r.samples, r.err
	}
}

// phase is the outcome of one timed phase.
type phase struct {
	attempted, failed int
	latencies         []float64 // ms, completed units only (unloaded phase)
	elapsed           time.Duration
	used              usage    // growth over the phase
	grown             counters // growth of the deployment's counters over the phase
	checks            []check
}

func (p phase) completed() int { return p.attempted - p.failed }

// measured wraps a phase body with the before/after snapshots.
func measured(d *deployment, body func(p *phase)) phase {
	var p phase
	c0, u0, start := sumCounters(d.stats()), readUsage(), time.Now()
	body(&p)
	p.elapsed = time.Since(start)
	u1 := readUsage()
	p.used = usage{cpu: u1.cpu - u0.cpu, gcCPU: u1.gcCPU - u0.gcCPU, allocBytes: u1.allocBytes - u0.allocBytes}
	p.grown = sumCounters(d.stats()).sub(c0)
	return p
}

// errLog prints the first few failures of a run in full and counts the
// rest, so a systematically failing run explains itself without
// flooding the report.
type errLog struct{ seen int }

func (l *errLog) note(where string, err error) {
	if l.seen++; l.seen <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", where, err)
	}
}

// runUnloaded is the closed loop with one client: each unit is timed
// from its submission to its result, and the next starts only then.
// Units are named "<tag><i>" so a traced run can tell the phases apart.
func runUnloaded(ctx context.Context, s *session, tag string, end limit, log *errLog) phase {
	return measured(s.d, func(p *phase) {
		for start := time.Now(); !end.reached(p.attempted, start); p.attempted++ {
			lat, c, err := s.one(withRequest(ctx, tag+strconv.Itoa(p.attempted)))
			if err != nil {
				p.failed++
				log.note("unloaded request", err)
				continue
			}
			p.latencies = append(p.latencies, float64(lat)/float64(time.Millisecond))
			p.checks = append(p.checks, c)
		}
	})
}

// runSaturated is the closed loop with waveSize units in flight:
// back-to-back waves, each submitted as one batch and awaited as one
// stream, from this one goroutine. The limit counts waves.
func runSaturated(ctx context.Context, s *session, end limit, log *errLog) phase {
	return measured(s.d, func(p *phase) {
		for start, w := time.Now(), 0; !end.reached(w, start); w++ {
			cs, failed, err := s.wave(withRequest(ctx, "w"+strconv.Itoa(w)))
			if err != nil {
				log.note("saturated wave", err)
			}
			p.attempted += waveSize
			p.failed += failed
			p.checks = append(p.checks, cs...)
		}
	})
}

// verifyAll runs every check and returns how many failed.
func verifyAll(ctx context.Context, checks []check, log *errLog) int {
	wrong := 0
	for _, c := range checks {
		if err := c(ctx); err != nil {
			wrong++
			log.note("wrong result", err)
		}
	}
	return wrong
}
