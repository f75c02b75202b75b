package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/group"
	"thetacrypt/internal/network"
	"thetacrypt/internal/schemes"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 5}, {75, 8}, {90, 9}, {91, 10}, {100, 10}, {1, 1}} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of no samples = %v, want NaN", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median sorts a copy: got %v, want 5", got)
	}
}

func TestTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n, p, beyond int
	}{{100, 90, 10}, {100, 91, 9}, {54, 75, 13}, {40, 75, 10}, {39, 75, 9}, {1000, 99, 10}} {
		if got := samplesBeyond(c.n, float64(c.p)); got != c.beyond {
			t.Errorf("samplesBeyond(%d, p%d) = %d, want %d", c.n, c.p, got, c.beyond)
		}
	}
	for _, c := range []struct{ n, want int }{{100, 90}, {1000, 99}, {54, 81}, {40, 75}, {20, 50}, {19, 0}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if want := [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartiles([]float64{1, 2}), [3]float64{0.75, 1.5, 2.25}; got != want {
		t.Errorf("quartiles(1, 2) = %v, want %v", got, want)
	}
}

func TestSelfTimeIsDurationMinusChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 90, End: 130}, // sticks out of the parent by 30
		{ID: 5, Parent: 2, Start: 15, End: 20},  // a grandchild is not span 1's child
	}
	got := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 40, 5: 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestCounterDeltas(t *testing.T) {
	node := func(rejected, sent, resent uint64, hits, batches, coalesced int64) api.EngineStats {
		return api.EngineStats{
			RejectedShares: rejected,
			Transport: &api.TransportStats{Peers: []api.PeerStats{
				{Peer: 2, Sent: sent, Resent: resent},
				{Peer: 3, Sent: sent},
			}},
			Crypto: &api.CryptoStats{LagrangeHits: hits, BatchesVerified: batches, CoalescedRequests: coalesced},
		}
	}
	before := sumCounters([]api.EngineStats{node(1, 10, 0, 5, 2, 0), node(0, 20, 1, 5, 2, 1)})
	after := sumCounters([]api.EngineStats{node(1, 25, 2, 9, 6, 2), node(2, 30, 1, 6, 3, 1), {}})
	if before.FramesSent != 60 || before.Resent != 1 || before.LagrangeHits != 10 {
		t.Fatalf("sumCounters over two nodes and their peers = %+v", before)
	}
	got := after.sub(before)
	want := counters{RejectedShares: 2, FramesSent: 50, Resent: 2, LagrangeHits: 5, BatchesVerified: 5, CoalescedRequests: 2}
	if got != want {
		t.Errorf("growth = %+v, want %+v", got, want)
	}
	if r := ratio(3, 0); r != 0 {
		t.Errorf("ratio with a zero base = %v, want 0", r)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	draw := func(seed int64) (out [][]byte) {
		in := newInputs(seed)
		for i := 0; i < 50; i++ {
			out = append(out, in.bytes(32), []byte(in.name("s")))
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("two generators with the same seed produced different inputs")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("generators with different seeds produced the same inputs")
	}
	if bytes.Equal(a[0], a[2]) {
		t.Error("consecutive payloads of one generator are equal")
	}
}

// TestFixedWorkLimits pins the key lifecycle workload's work per run:
// its keystore grows with every cycle, so the counts are part of what
// its numbers mean.
func TestFixedWorkLimits(t *testing.T) {
	keylife, _ := workloadByName("keylife-p256-stack")
	end := phaseLimit(12*time.Second, keylife.unloadedRate)
	if end.units != 480 || end.budget != 36*time.Second {
		t.Errorf("keylife unloaded phase of 12s ends at %+v, want 480 units capped at 36s", end)
	}
	now := time.Now()
	if end.reached(479, now) || !end.reached(480, now) || !end.reached(0, now.Add(-37*time.Second)) {
		t.Error("a fixed-work limit ends at its unit count, or at its cap, and not before")
	}
	if got, want := keylife.finalKeys(), 1+12+8+480+8*30; got != want {
		t.Errorf("keylife ends with %d keys, want %d", got, want)
	}
	sign, _ := workloadByName("bls04-sign-stack")
	boxed := phaseLimit(12*time.Second, sign.unloadedRate)
	if boxed.units != 0 || boxed.budget != 12*time.Second || boxed.reached(1<<30, now) {
		t.Errorf("a serving workload's phase is boxed by time alone, got %+v", boxed)
	}
	if sign.finalKeys() != 1 {
		t.Errorf("a serving workload ends with %d keys, want the dealt one", sign.finalKeys())
	}
}

// TestBenchmarkFileMatchesProgram keeps BENCHMARK.json and the program
// from drifting apart on what they both state.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the program's default window %d", bf.RunSeconds, defaultSeconds)
	}
	var inFile, inProgram []string
	for _, w := range bf.Workloads {
		inFile = append(inFile, w.Name)
	}
	for _, w := range workloads {
		inProgram = append(inProgram, w.name)
	}
	if !reflect.DeepEqual(inFile, inProgram) {
		t.Errorf("BENCHMARK.json names workloads %v, the program runs %v", inFile, inProgram)
	}
}

// TestSpanMetricsTimeline feeds one request's spans and network events
// with known times through the reduction. Times are in milliseconds.
func TestSpanMetricsTimeline(t *testing.T) {
	const msec = int64(1e6)
	sp := func(id, parent int64, name, inst string, start, end int64) span {
		return span{ID: id, Parent: parent, Req: "u0", Name: name, Inst: inst, Start: start * msec, End: end * msec}
	}
	spans := []span{
		sp(1, 0, "client.submit", "", 0, 100),
		sp(2, 1, "service.http", "", 10, 90),
		sp(3, 2, "engine.submit", "X", 20, 30),
		sp(4, 0, "client.wait", "", 100, 1000),
		sp(5, 4, "service.http", "", 110, 990),
		sp(6, 5, "engine.wait", "X", 120, 980),
		{ID: 7, Req: "w0", Name: "client.submit", Start: 0, End: 5000 * msec}, // another phase: ignored
	}
	ev := func(node int, send bool, kind network.Kind, round, from int, at int64, bytes int) netEvent {
		return netEvent{Node: node, Send: send, Instance: "X", Kind: kind, Round: round, From: from, At: at * msec, Bytes: bytes, Dur: msec / 100}
	}
	events := []netEvent{
		ev(1, true, network.KindStart, 0, 1, 25, 300),
		ev(2, false, network.KindStart, 0, 1, 60, 300),
		ev(3, false, network.KindStart, 0, 1, 70, 300),
		ev(1, true, network.KindProto, 1, 1, 200, 80),
		ev(2, true, network.KindProto, 1, 2, 300, 80),
		ev(3, true, network.KindProto, 1, 3, 350, 80),
		ev(1, false, network.KindProto, 1, 3, 450, 80), // second to arrive: completes a quorum of two
		ev(1, false, network.KindProto, 1, 2, 400, 80),
		{Node: 1, Send: true, Instance: "other", Kind: network.KindStart, At: 1}, // unowned: ignored
	}
	owner := map[string]spanRef{"X": {req: "u0", id: 3}}

	m := spanMetrics(spans, events, owner, "u", 2)
	for name, want := range map[string]float64{
		"client.self_ms":                 (100 - 80) + (900 - 880),
		"service.self_ms":                (80 - 10) + (880 - 860),
		"router.self_ms":                 0,
		"engine.submit_ms":               10,
		"orchestration.head_ms":          25 - 20,
		"orchestration.round_compute_ms": 200 - 25,
		"orchestration.quorum_wait_ms":   450 - 200,
		"orchestration.tail_ms":          980 - 450,
		"net.proto_msgs_per_req":         2,
		"net.proto_bytes_per_req":        160,
		"net.start_bytes_per_req":        600,
		"net.send_call_us":               10,
		"net.one_way_p50_us":             (70 - 25) * 1000, // of 35, 45, 100, 100 ms
		"net.one_way_p90_us":             100 * 1000,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	// With a quorum of three the round never completes at node 1: the
	// timeline is left out instead of being guessed.
	if got := spanMetrics(spans, events, owner, "u", 3)["orchestration.tail_ms"].Value; got != 0 {
		t.Errorf("tail with an unreachable quorum = %v, want 0", got)
	}
}

// TestDecoratorsAreTransparent runs the same seeded requests through an
// undecorated and a decorated deployment of each kind: both must return
// results that verify, and the decorated one must have seen every layer.
func TestDecoratorsAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real deployments")
	}
	ctx := context.Background()
	for _, name := range []string{"sg02-decrypt-p256-stack", "keylife-p256-stack", "kg20-sign-ed25519-sharded"} {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("no workload %q", name)
		}
		t.Run(name, func(t *testing.T) {
			for _, tr := range []*tracer{nil, newTracer()} {
				s, err := w.build(ctx, newInputs(11), tr)
				if err != nil {
					t.Fatalf("build (traced %v): %v", tr != nil, err)
				}
				if tr != nil {
					defer tr.stop()
				}
				defer s.d.Close()
				_, c, err := s.one(withRequest(ctx, "u0"))
				if err != nil {
					t.Fatalf("request (traced %v): %v", tr != nil, err)
				}
				cs, failed, err := s.wave(withRequest(ctx, "w0"))
				if err != nil || failed != 0 {
					t.Fatalf("wave (traced %v): %d failed, %v", tr != nil, failed, err)
				}
				for _, c := range append(cs, c) {
					if err := c(ctx); err != nil {
						t.Errorf("result does not verify (traced %v): %v", tr != nil, err)
					}
				}
				if tr == nil {
					continue
				}
				spans, events, owner := tr.snapshot()
				m := spanMetrics(spans, events, owner, "u", w.quorum())
				outer := "client.self_ms"
				if name == "kg20-sign-ed25519-sharded" { // the one workload without an HTTP hop
					outer = "router.self_ms"
				}
				// The quorum wait is left out: on a busy host the peers'
				// shares can all be in before node 1 sends its own.
				for _, name := range []string{outer, "engine.submit_ms", "orchestration.head_ms",
					"orchestration.tail_ms", "net.proto_msgs_per_req", "net.one_way_p50_us"} {
					if m[name].Value <= 0 {
						t.Errorf("%s = %v after a traced request, want > 0", name, m[name].Value)
					}
				}
			}
		})
	}
}

// configOf strips a node's Info down to what its wiring decides: the
// counters, link states and key material that differ between any two
// deployments are dropped.
func configOf(info api.Info) api.Info {
	out := api.Info{NodeIndex: info.NodeIndex, N: info.N, T: info.T, Schemes: info.Schemes}
	for _, k := range info.Keys {
		k.PublicKey = nil
		out.Keys = append(out.Keys, k)
	}
	if st := info.Stats; st != nil {
		out.Stats = &api.EngineStats{QueueCap: st.QueueCap}
		if tp := st.Transport; tp != nil {
			links := &api.TransportStats{Policy: tp.Policy, Reliable: tp.Reliable, Authenticated: tp.Authenticated}
			for _, p := range tp.Peers {
				links.Peers = append(links.Peers, api.PeerStats{Peer: p.Peer, QueueCap: p.QueueCap})
			}
			out.Stats.Transport = links
		}
		if st.Crypto != nil {
			out.Stats.Crypto = &api.CryptoStats{}
		}
	}
	return out
}

// TestTracedStackIsWiredLikeNewNode guards tracedNode, which repeats
// thetacrypt.NewNode's wiring: the same stackConfig built both ways must
// give nodes that report the same configuration and keep the same files.
func TestTracedStackIsWiredLikeNewNode(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real deployments")
	}
	ctx := context.Background()
	cfg := stackConfig{t: 1, n: 4, scheme: schemes.SG02, group: group.P256(), persist: true}
	var views [2][]api.Info
	for k, tr := range []*tracer{nil, newTracer()} {
		d, err := newStack(cfg, tr)
		if err != nil {
			t.Fatalf("build (traced %v): %v", tr != nil, err)
		}
		for i, node := range d.nodes {
			info, err := node.Info(ctx)
			if err != nil {
				t.Fatalf("info of node %d (traced %v): %v", i+1, tr != nil, err)
			}
			views[k] = append(views[k], configOf(info))
			if _, err := os.Stat(filepath.Join(d.dir, fmt.Sprintf("node%d.key", i+1))); err != nil {
				t.Errorf("keystore file of node %d (traced %v): %v", i+1, tr != nil, err)
			}
		}
		d.Close()
		if tr != nil {
			tr.stop()
		}
	}
	if !reflect.DeepEqual(views[0], views[1]) {
		t.Errorf("nodes from NewNode report\n%+v\nnodes from tracedNode report\n%+v", views[0], views[1])
	}
	if st := views[0][0].Stats; st == nil || st.Transport == nil || !st.Transport.Authenticated || len(st.Transport.Peers) != cfg.n-1 {
		t.Errorf("node 1 reports no authenticated transport with %d peers: %+v", cfg.n-1, views[0][0])
	}
}
