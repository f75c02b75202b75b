package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"thetacrypt/internal/network"
	"thetacrypt/internal/schemes"
)

// outerLayers are the decorated layers above the engine, outermost
// first; each reports its self time.
var outerLayers = []string{"client", "service", "router"}

// spanMetrics reduces a traced unloaded phase to the per-layer latency
// metrics: the median, per request, of each layer's self time, of the
// submitting node's timeline between the Service and P2P boundaries,
// and of the network's message counts and one-way times. Only requests
// whose ID starts with tag are read. quorum is the number of peer
// messages that complete a round at the submitting node.
func spanMetrics(spans []span, events []netEvent, owner map[string]spanRef, tag string, quorum int) map[string]metric {
	self := selfTimes(spans)
	byID := make(map[int64]span, len(spans))
	type perReq struct {
		layerSelf  map[string]int64
		submit     int64
		head, comp int64
		wait, tail int64
		timelines  int
		msgs       int
		startBytes int
		protoBytes int
	}
	reqs := make(map[string]*perReq)
	get := func(id string) *perReq {
		r := reqs[id]
		if r == nil {
			r = &perReq{layerSelf: make(map[string]int64)}
			reqs[id] = r
		}
		return r
	}
	// waitEnd is when the engine-layer wait for an instance returned.
	waitEnd := make(map[string]int64)
	for _, s := range spans {
		byID[s.ID] = s
		if !strings.HasPrefix(s.Req, tag) {
			continue
		}
		r := get(s.Req)
		layer, _, _ := strings.Cut(s.Name, ".")
		r.layerSelf[layer] += self[s.ID]
		switch s.Name {
		case "engine.submit":
			r.submit += s.dur()
		case "engine.wait":
			if s.Inst != "" {
				waitEnd[s.Inst] = max(waitEnd[s.Inst], s.End)
			}
		}
	}

	// Network events, grouped by instance.
	type sendKey struct {
		committee, instance string
		kind                network.Kind
		round, from         int
	}
	sent := make(map[sendKey]int64)
	byInst := make(map[string][]netEvent)
	var sendCalls, oneWay []float64
	for _, ev := range events {
		ref, ok := owner[ev.Instance]
		if !ok || !strings.HasPrefix(ref.req, tag) {
			continue
		}
		byInst[ev.Instance] = append(byInst[ev.Instance], ev)
		if ev.Send {
			sent[sendKey{ev.Committee, ev.Instance, ev.Kind, ev.Round, ev.From}] = ev.At
			sendCalls = append(sendCalls, float64(ev.Dur)/1e3)
		}
	}
	for inst, evs := range byInst {
		ref := owner[inst]
		r := get(ref.req)
		// The submitting node is the one that announced the instance.
		front, committee, announced := 0, "", int64(0)
		for _, ev := range evs {
			if ev.Send && ev.Kind == network.KindStart {
				front, committee, announced = ev.Node, ev.Committee, ev.At
			}
		}
		own := make(map[int]int64)        // round → own broadcast
		arrivals := make(map[int][]int64) // round → arrivals at the submitting node
		for _, ev := range evs {
			if !ev.Send {
				if at, ok := sent[sendKey{ev.Committee, ev.Instance, ev.Kind, ev.Round, ev.From}]; ok {
					oneWay = append(oneWay, float64(ev.At-at)/1e3)
				}
				switch ev.Kind {
				case network.KindStart:
					r.startBytes += ev.Bytes
				case network.KindProto:
					r.msgs++
					r.protoBytes += ev.Bytes
				}
			}
			if ev.Node != front || ev.Committee != committee || ev.Kind != network.KindProto {
				continue
			}
			if ev.Send {
				own[ev.Round] = ev.At
			} else {
				arrivals[ev.Round] = append(arrivals[ev.Round], ev.At)
			}
		}
		submitted, okSubmit := byID[ref.id]
		end, okEnd := waitEnd[inst]
		if front == 0 || !okSubmit || !okEnd || len(own) == 0 {
			continue
		}
		rounds := make([]int, 0, len(own))
		for k := range own {
			rounds = append(rounds, k)
		}
		sort.Ints(rounds)
		complete, prev := true, announced
		var comp, wait int64
		for _, k := range rounds {
			at := arrivals[k]
			if len(at) < quorum {
				complete = false
				break
			}
			sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
			comp += max(0, own[k]-prev)
			wait += max(0, at[quorum-1]-own[k])
			prev = at[quorum-1]
		}
		if !complete {
			continue
		}
		r.head += announced - submitted.Start
		r.comp += comp
		r.wait += wait
		r.tail += max(0, end-prev)
		r.timelines++
	}

	col := func(f func(*perReq) (float64, bool)) float64 {
		var v []float64
		for _, r := range reqs {
			if x, ok := f(r); ok {
				v = append(v, x)
			}
		}
		return finite(median(v))
	}
	out := make(map[string]metric)
	for _, layer := range outerLayers {
		out[layer+".self_ms"] = metric{col(func(r *perReq) (float64, bool) {
			return float64(r.layerSelf[layer]) / 1e6, true
		}), "ms"}
	}
	out["engine.submit_ms"] = metric{col(func(r *perReq) (float64, bool) { return float64(r.submit) / 1e6, true }), "ms"}
	timeline := func(f func(*perReq) int64) float64 {
		return col(func(r *perReq) (float64, bool) { return float64(f(r)) / 1e6, r.timelines > 0 })
	}
	out["orchestration.head_ms"] = metric{timeline(func(r *perReq) int64 { return r.head }), "ms"}
	out["orchestration.round_compute_ms"] = metric{timeline(func(r *perReq) int64 { return r.comp }), "ms"}
	out["orchestration.quorum_wait_ms"] = metric{timeline(func(r *perReq) int64 { return r.wait }), "ms"}
	out["orchestration.tail_ms"] = metric{timeline(func(r *perReq) int64 { return r.tail }), "ms"}
	out["net.proto_msgs_per_req"] = metric{col(func(r *perReq) (float64, bool) { return float64(r.msgs), true }), "count"}
	out["net.start_bytes_per_req"] = metric{col(func(r *perReq) (float64, bool) { return float64(r.startBytes), true }), "B"}
	out["net.proto_bytes_per_req"] = metric{col(func(r *perReq) (float64, bool) { return float64(r.protoBytes), true }), "B"}
	out["net.send_call_us"] = metric{finite(median(sendCalls)), "us"}
	ow := sortedCopy(oneWay)
	out["net.one_way_p50_us"] = metric{finite(percentile(ow, 50)), "us"}
	out["net.one_way_p90_us"] = metric{finite(percentile(ow, 90)), "us"}
	return out
}

// budgetMetrics derives the budget from the traced run's numbers: what
// the layer timings predict for the blocking steps and for the CPU of
// all nodes, and what of the unloaded latency neither the outer layers'
// self times nor that prediction explain.
func budgetMetrics(w workload, m map[string]metric, tracedP50, untracedP50, cpuPerReq float64) {
	v := func(name string) float64 { return m[name].Value }
	var critical, cpu float64
	if w.dealing {
		// A lifecycle cycle: every node deals once and checks every
		// other node's dealing, for the generation and again for the
		// resharing.
		perNode := v("dkg.deal_ms") + v("share.reshare_deal_ms") +
			float64(w.n-1)*(v("dkg.verify_ms")+v("share.reshare_verify_ms")+v("identity.seal_us")/1e3+v("identity.open_us")/1e3)
		critical, cpu = perNode, float64(w.n)*perNode
	} else {
		critical = v("schemes.round1_ms") + v("schemes.share_gen_ms") +
			float64(w.t+1)*v("schemes.share_verify_ms") + v("schemes.combine_ms")
		// Every node verifies a quorum and combines; FROST's shares
		// come from its t+1 signers only, the other schemes' from all.
		senders := w.n
		if w.scheme == schemes.KG20 {
			senders = w.t + 1
		}
		cpu = float64(senders)*(v("schemes.round1_ms")+v("schemes.share_gen_ms")) +
			float64(w.n)*(float64(w.t+1)*v("schemes.share_verify_ms")+v("schemes.combine_ms"))
	}
	m["budget.crypto_critical_ms"] = metric{critical, "ms"}
	m["budget.crypto_cpu_share"] = metric{ratio(cpu, cpuPerReq), "ratio"}
	// What remains holds the network hops, queueing behind other nodes'
	// work on the shared cores, and anything no boundary shows.
	explained := v("client.self_ms") + v("service.self_ms") + v("router.self_ms") + v("engine.submit_ms") + critical
	m["budget.unattributed_ms"] = metric{tracedP50 - explained, "ms"}
	m["trace.overhead_frac"] = metric{ratio(tracedP50, untracedP50) - 1, "ratio"}
}

// printBudget lays the unloaded latency out against the layers.
func printBudget(out io.Writer, w workload, m map[string]metric, tracedP50 float64) {
	fmt.Fprintf(out, "\nbudget of one unloaded %s request (medians, ms; traced p50 %.3f)\n", w.name, tracedP50)
	row := func(label, name string) {
		fmt.Fprintf(out, "  %-34s %10.3f  %s\n", label, m[name].Value, name)
	}
	row("client SDK: HTTP, JSON, SSE", "client.self_ms")
	row("service handler", "service.self_ms")
	row("router", "router.self_ms")
	row("engine admission", "engine.submit_ms")
	row("submit → announcement on P2P", "orchestration.head_ms")
	row("own share generation", "orchestration.round_compute_ms")
	row("wait for the round's quorum", "orchestration.quorum_wait_ms")
	row("quorum → result returned", "orchestration.tail_ms")
	fmt.Fprintln(out, "  of which the layer timings predict")
	row("crypto on the blocking path", "budget.crypto_critical_ms")
	row("neither self time nor crypto", "budget.unattributed_ms")
	fmt.Fprintf(out, "  one network hop takes %.0f us (p50) to %.0f us (p90)\n",
		m["net.one_way_p50_us"].Value, m["net.one_way_p90_us"].Value)
	fmt.Fprintf(out, "  crypto share of CPU per request %.3f; tracing overhead %.3f\n",
		m["budget.crypto_cpu_share"].Value, m["trace.overhead_frac"].Value)
}

// runTraced is the second kind of run: an undecorated deployment gives
// the unloaded latency to compare with, then the same deployment is
// rebuilt with every boundary decorated and driven through both phases,
// and last the layers' public functions are timed on their own.
func runTraced(ctx context.Context, w workload, in *inputs, window time.Duration, out string, log *errLog) (report, error) {
	quarter := window / 4
	base, err := setUp(ctx, w, in, nil)
	if err != nil {
		return report{}, fmt.Errorf("set-up (undecorated): %w", err)
	}
	unEnd, satEnd := phaseLimit(quarter, w.unloadedRate), phaseLimit(quarter, w.waveRate)
	plain := runUnloaded(ctx, base, "b", unEnd, log)
	wrong := verifyAll(ctx, plain.checks, log)
	base.d.Close()

	tr := newTracer()
	defer tr.stop()
	s, err := setUp(ctx, w, in, tr)
	if err != nil {
		return report{}, fmt.Errorf("set-up (decorated): %w", err)
	}
	defer s.d.Close()
	un := runUnloaded(ctx, s, "u", unEnd, log)
	sat := runSaturated(ctx, s, satEnd, log)
	wrong += verifyAll(ctx, un.checks, log) + verifyAll(ctx, sat.checks, log)
	if len(plain.latencies) == 0 || len(un.latencies) == 0 || sat.completed() == 0 {
		return report{}, fmt.Errorf("no request completed in a traced phase")
	}

	dir, err := traceDir(out)
	if err != nil {
		return report{}, err
	}
	spans, events, owner := tr.snapshot()
	path := tracePath(dir, w, in.seed)
	if err := writeTrace(path, spans, events); err != nil {
		return report{}, fmt.Errorf("write spans: %w", err)
	}

	m := counterMetrics(un, sat)
	for name, v := range spanMetrics(spans, events, owner, "u", w.quorum()) {
		m[name] = v
	}
	// The keystore timings use the key count an untraced run ends with.
	timings, err := layerTimings(w, w.finalKeys())
	if err != nil {
		return report{}, err
	}
	for name, v := range timings {
		m[name] = v
	}
	tracedP50, untracedP50 := median(un.latencies), median(plain.latencies)
	cpuPerReq := float64(sat.used.cpu) / float64(time.Millisecond) / float64(sat.completed())
	budgetMetrics(w, m, tracedP50, untracedP50, cpuPerReq)

	fmt.Printf("undecorated: %d unloaded requests; decorated: %d unloaded, %d saturated; %d failed\n",
		plain.attempted, un.attempted, sat.attempted, plain.failed+un.failed+sat.failed+wrong)
	noteCutShort("undecorated", unEnd, plain.attempted)
	noteCutShort("unloaded", unEnd, un.attempted)
	noteCutShort("saturated", satEnd, sat.attempted/waveSize)
	fmt.Printf("spans written to %s (%d spans, %d network events)\n", path, len(spans), len(events))
	printMetrics(os.Stdout, m)
	printBudget(os.Stdout, w, m, tracedP50)
	return report{
		Correct:   wrong == 0,
		Attempted: plain.attempted + un.attempted + sat.attempted,
		Failed:    plain.failed + un.failed + sat.failed + wrong,
		Metrics:   m,
	}, nil
}

// traceDir resolves the directory the traced run writes to.
func traceDir(out string) (string, error) {
	if out == "" {
		return os.MkdirTemp("", "thetabench-trace-*")
	}
	return out, os.MkdirAll(out, 0o755)
}

// finite guards the report against a NaN or infinity, which JSON cannot
// carry: a layer that produced no sample reports 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func tracePath(dir string, w workload, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d.spans.json", w.name, seed))
}
