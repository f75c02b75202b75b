package eval

import (
	"container/heap"
	"math/rand/v2"
	"time"

	"thetacrypt/internal/schemes"
)

// The simulator: a discrete-event model of one Θ-network run. Each node
// is a non-preemptive single-server queue (the paper's 1-vCPU container
// pin) processing an explicit FIFO message queue, exactly like the
// orchestration engine's worker loop: the service time of a message is
// decided when it is popped (a share for a finished instance costs only
// a parse), and quorum-completing messages run the combine inline before
// the next message is served. Links add one-way delays from the
// deployment's region matrix plus uniform jitter.

// simEvent is one scheduled action in virtual time.
type simEvent struct {
	at  time.Duration
	seq uint64 // tie-break for determinism
	fn  func()
}

type eventQueue []*simEvent

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*simEvent)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}

// sim is the event loop.
type sim struct {
	now    time.Duration
	seq    uint64
	queue  eventQueue
	rng    *rand.Rand
	cutoff time.Duration
}

func newSim(seed uint64, cutoff time.Duration) *sim {
	return &sim{
		rng:    rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb)),
		cutoff: cutoff,
	}
}

// at schedules fn at absolute virtual time t.
func (s *sim) at(t time.Duration, fn func()) {
	s.seq++
	heap.Push(&s.queue, &simEvent{at: t, seq: s.seq, fn: fn})
}

// run drains the event queue until the cutoff.
func (s *sim) run() {
	for s.queue.Len() > 0 {
		ev := heap.Pop(&s.queue).(*simEvent)
		if ev.at > s.cutoff {
			return
		}
		s.now = ev.at
		ev.fn()
	}
}

// msgKind classifies node-queue messages.
type msgKind int

const (
	msgRequest msgKind = iota + 1
	msgShare
	msgCommit
)

type nodeMsg struct {
	kind msgKind
	k    int // request index
}

// nodeServer is the single-vCPU worker of one node.
type nodeServer struct {
	queue []nodeMsg
	busy  bool
}

// RunSpec describes one simulated experiment cell.
type RunSpec struct {
	Scheme     schemes.ID
	Deployment Deployment
	// Rate is the offered load in requests per second.
	Rate float64
	// Duration is the virtual load window (the paper uses 60 s for the
	// capacity test and 5 min for the steady state).
	Duration time.Duration
	// PayloadSize is the request payload in bytes (default 256).
	PayloadSize int
	// Seed makes the run deterministic.
	Seed uint64
	// JitterFrac is the uniform link jitter (default 0.1).
	JitterFrac float64
}

// RunResult aggregates one cell's measurements.
type RunResult struct {
	Spec      RunSpec
	Costs     SchemeCosts
	Offered   int
	Completed int
	// Throughput is completed requests over the active interval, per
	// the paper's estimator.
	Throughput float64
	// L95All is the 95th percentile over all per-(request, node)
	// server-side latencies (Fig 4's y-axis).
	L95All time.Duration
	// NodeL95 is each node's 95th-percentile latency (basis of the
	// fairness metrics).
	NodeL95 []time.Duration
	// LnetTheta, Lnet50, Lnet95 are percentiles of the NodeL95
	// distribution with θ = (t+1)/n*100 (Fig 5a / Table 4).
	LnetTheta, Lnet50, Lnet95 time.Duration
	// Samples is the number of (request, node) completion samples.
	Samples int
	// Debug counters: gens, verifies, combines, parses completed.
	Debug [4]int
	// DeltaRes is the residual delay factor (L95-Lθ)/Lθ.
	DeltaRes float64
	// EtaTheta is the latency fairness index Lθ/L95.
	EtaTheta float64
}

// reqState tracks one request across the nodes.
type reqState struct {
	arrival  []time.Duration
	arrived  []bool
	acc      []int // accumulated shares per node (own + verified)
	commits  []int // FROST commitments received per node
	signed   []bool
	finished []bool
	done     []time.Duration
	pending  []int // shares buffered before the node can verify them
}

func newReqState(n int) *reqState {
	return &reqState{
		arrival:  make([]time.Duration, n+1),
		arrived:  make([]bool, n+1),
		acc:      make([]int, n+1),
		commits:  make([]int, n+1),
		signed:   make([]bool, n+1),
		finished: make([]bool, n+1),
		done:     make([]time.Duration, n+1),
		pending:  make([]int, n+1),
	}
}

// Run executes one simulated cell.
func Run(spec RunSpec) (*RunResult, error) {
	if spec.PayloadSize <= 0 {
		spec.PayloadSize = 256
	}
	if spec.JitterFrac == 0 {
		spec.JitterFrac = 0.1
	}
	costs, err := Calibrate(spec.Scheme, spec.Deployment.T, spec.Deployment.N, spec.PayloadSize)
	if err != nil {
		return nil, err
	}

	d := spec.Deployment
	n := d.N
	quorum := d.T + 1
	// The paper allows a grace period of up to 10% beyond the
	// experiment window; scaled-down runs get at least 2 s so tail
	// requests of low-rate global deployments can complete.
	grace := spec.Duration / 10
	if grace < 2*time.Second {
		grace = 2 * time.Second
	}
	cutoff := spec.Duration + grace
	s := newSim(spec.Seed, cutoff)
	var dbg [4]int

	delay := func(i, j int) time.Duration {
		base := d.OneWay(i, j)
		return base + time.Duration(float64(base)*s.rng.Float64()*spec.JitterFrac)
	}

	interactive := spec.Scheme == schemes.KG20
	isSigner := func(i int) bool { return i <= quorum }

	// Offered load: Poisson arrivals over the duration window.
	var emits []time.Duration
	for t := time.Duration(0); t < spec.Duration; {
		gap := time.Duration(s.rng.ExpFloat64() / spec.Rate * float64(time.Second))
		t += gap
		if t < spec.Duration {
			emits = append(emits, t)
		}
	}
	states := make([]*reqState, len(emits))
	for k := range states {
		states[k] = newReqState(n)
	}
	servers := make([]nodeServer, n+1)

	// The node worker loop. deliver enqueues a message; the server pops
	// one message at a time; service outcomes may run continuations
	// (combine, FROST signing) inline before the next pop.
	var startNext func(j int)
	deliver := func(j int, m nodeMsg) {
		servers[j].queue = append(servers[j].queue, m)
		if !servers[j].busy {
			startNext(j)
		}
	}

	// broadcastShare schedules delivery of node i's share to all peers.
	broadcastShare := func(k, i int) {
		for j := 1; j <= n; j++ {
			if j == i {
				continue
			}
			k, j := k, j
			s.at(s.now+delay(i, j), func() { deliver(j, nodeMsg{kind: msgShare, k: k}) })
		}
	}
	broadcastCommit := func(k, i int) {
		for j := 1; j <= n; j++ {
			if j == i {
				continue
			}
			k, j := k, j
			s.at(s.now+delay(i, j), func() { deliver(j, nodeMsg{kind: msgCommit, k: k}) })
		}
	}

	// resume frees the server and pops the next queued message.
	resume := func(j int) {
		servers[j].busy = false
		if len(servers[j].queue) > 0 {
			startNext(j)
		}
	}

	// combineCont runs the combine inline when node j holds a quorum,
	// mirroring the engine's advance loop (finalize happens in the same
	// worker step as the quorum-completing update).
	combineCont := func(k, j int) bool {
		st := states[k]
		if st.finished[j] || st.acc[j] < quorum {
			return false
		}
		s.at(s.now+costs.Combine, func() {
			dbg[2]++
			st.finished[j] = true
			st.done[j] = s.now
			resume(j)
		})
		return true
	}

	// signCont runs FROST round 2 inline at signer j once the
	// commitment set completed, then broadcasts the signature share.
	signCont := func(k, j int) bool {
		st := states[k]
		if !isSigner(j) || st.signed[j] || st.commits[j] < quorum {
			return false
		}
		st.signed[j] = true
		s.at(s.now+costs.ShareGen, func() {
			dbg[0]++
			st.acc[j]++ // own signature share
			broadcastShare(k, j)
			if !combineCont(k, j) {
				resume(j)
			}
		})
		return true
	}

	// drainPending re-enqueues shares buffered before node j was able to
	// verify them (instance not started, or FROST commitments missing).
	drainPending := func(k, j int) {
		st := states[k]
		for st.pending[j] > 0 {
			st.pending[j]--
			servers[j].queue = append(servers[j].queue, nodeMsg{kind: msgShare, k: k})
		}
	}

	startNext = func(j int) {
		srv := &servers[j]
		m := srv.queue[0]
		srv.queue = srv.queue[1:]
		srv.busy = true
		st := states[m.k]
		switch m.kind {
		case msgRequest:
			st.arrived[j] = true
			st.arrival[j] = s.now
			if interactive {
				if !isSigner(j) {
					s.at(s.now+costs.Parse, func() { resume(j) })
					return
				}
				// Round 1: nonce generation plus commitment broadcast.
				s.at(s.now+costs.Round1, func() {
					st.commits[j]++
					broadcastCommit(m.k, j)
					if !signCont(m.k, j) {
						resume(j)
					}
				})
				return
			}
			// Non-interactive: compute and broadcast the local share.
			drainPending(m.k, j)
			s.at(s.now+costs.ShareGen, func() {
				dbg[0]++
				st.acc[j]++ // own share
				broadcastShare(m.k, j)
				if !combineCont(m.k, j) {
					resume(j)
				}
			})
		case msgShare:
			if st.finished[j] {
				// Late share for a finished instance: parse and drop.
				dbg[3]++
				s.at(s.now+costs.Parse, func() { resume(j) })
				return
			}
			if !st.arrived[j] || (interactive && st.commits[j] < quorum) {
				// The real engine backlogs such shares without
				// verification work.
				st.pending[j]++
				s.at(s.now+costs.Parse, func() { resume(j) })
				return
			}
			s.at(s.now+costs.ShareVerify, func() {
				dbg[1]++
				st.acc[j]++
				if !combineCont(m.k, j) {
					resume(j)
				}
			})
		case msgCommit:
			s.at(s.now+costs.Parse, func() {
				st.commits[j]++
				if st.commits[j] >= quorum {
					drainPending(m.k, j)
					if signCont(m.k, j) {
						return
					}
				}
				resume(j)
			})
		}
	}

	// Schedule request deliveries from the orchestrator (node 0, FRA1).
	for k, emit := range emits {
		for j := 1; j <= n; j++ {
			k, j := k, j
			s.at(emit+delay(0, j), func() { deliver(j, nodeMsg{kind: msgRequest, k: k}) })
		}
	}

	s.run()

	res := summarize(spec, costs, states, quorum, n, spec.Duration, grace)
	res.Debug = dbg
	return res, nil
}
