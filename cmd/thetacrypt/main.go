// Command thetacrypt runs one standalone Thetacrypt service node: TCP
// P2P mesh to its peers plus the HTTP service layer for applications.
// With -router it instead runs the stateless routing tier in front of
// several committee deployments, serving the same /v2 surface.
//
// Usage:
//
//	thetacrypt -key keys/node1.key -peers keys/peers.txt -listen :7001 -http :8081
//	thetacrypt -key keys/node1.key -peers keys/peers.txt -listen :7001 -http :8081 \
//	           -secure -identity keys/node1.id -roster keys/roster.json
//	thetacrypt -router -committees alpha=http://10.0.0.1:8081,beta=http://10.0.1.1:8081 -http :8080
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"thetacrypt"
	"thetacrypt/client"
	"thetacrypt/internal/keys"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thetacrypt:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		keyPath     = flag.String("key", "", "path to this node's key file")
		peersPath   = flag.String("peers", "", "path to the peers file (index addr per line)")
		listen      = flag.String("listen", ":7001", "P2P listen address")
		httpAddr    = flag.String("http", ":8081", "service-layer HTTP listen address")
		workers     = flag.Int("workers", 0, "engine worker goroutines (0 = default 1)")
		queueLen    = flag.Int("queue", 0, "engine event-queue length; a full queue answers HTTP 429 (0 = default 4096)")
		retainTTL   = flag.Duration("retain-ttl", 0, "how long finished results stay retrievable (0 = default 2m)")
		retainMax   = flag.Int("retain-max", 0, "max finished results retained, oldest evicted first (0 = default 4096)")
		peerQueue   = flag.Int("peer-queue", 0, "per-peer outbound queue length, in frames (0 = default 1024)")
		peerPolicy  = flag.String("peer-policy", "block", "full-queue policy per peer: block, drop-oldest, or fail-fast")
		ackWindow   = flag.Int("ack-window", 0, "per-peer in-flight window: unacknowledged frames retained for resend-on-reconnect (0 = default 1024)")
		ackInterval = flag.Duration("ack-interval", 0, "coalescing delay for delivery acknowledgements and the resend scan cadence (0 = default 25ms)")
		resendAfter = flag.Duration("resend-timeout", 0, "how long a frame stays unacknowledged before retransmission (0 = default 500ms)")
		dialRetry   = flag.Duration("dial-retry", 0, "initial peer reconnect backoff, doubling per failure (0 = default 250ms)")
		dialMax     = flag.Duration("dial-backoff-max", 0, "cap on the peer reconnect backoff (0 = default 4s)")
		sendTimeout = flag.Duration("send-timeout", 0, "bound on each round broadcast; bites only when a block-policy peer queue is saturated (0 = default 5s)")
		persist     = flag.Bool("persist", false, "make the -key file durable: rewrite it at start, then append one fsynced frame per installed key (generated keys, reshared epochs) and zero the share each reshare supersedes")
		refresh     = flag.Duration("refresh-interval", 0, "proactive-refresh schedule: reshare every reshareable key to its own committee at this interval (0 = disabled)")
		routerMode  = flag.Bool("router", false, "run the stateless routing tier over committee endpoints instead of a node")
		committees  = flag.String("committees", "", "router mode: comma-separated committee endpoints, each \"url\" or \"name=url\"")
		secure      = flag.Bool("secure", false, "authenticated mesh: require -identity and -roster, run every link over mutually authenticated TLS 1.3 pinned to the roster, seal DKG sub-shares")
		idPath      = flag.String("identity", "", "path to this node's private identity file (node<i>.id from thetakeygen)")
		rosterPath  = flag.String("roster", "", "path to the mesh roster file (roster.json from thetakeygen)")
	)
	flag.Parse()
	if *routerMode {
		return runRouter(*committees, *httpAddr)
	}
	policy, err := thetacrypt.ParseQueuePolicy(*peerPolicy)
	if err != nil {
		return err
	}
	if *keyPath == "" || *peersPath == "" {
		return fmt.Errorf("both -key and -peers are required")
	}
	raw, err := os.ReadFile(*keyPath)
	if err != nil {
		return fmt.Errorf("read key file: %w", err)
	}
	nk, err := keys.UnmarshalKeystore(raw)
	if err != nil {
		return fmt.Errorf("parse key file: %w", err)
	}
	peers, err := readPeers(*peersPath, nk.Index)
	if err != nil {
		return err
	}
	// Secure mode: -identity and -roster travel together; naming either
	// one implies the intent, and -secure guards against silently
	// falling back to plaintext links when a path is forgotten.
	if *secure && (*idPath == "" || *rosterPath == "") {
		return fmt.Errorf("-secure requires both -identity and -roster")
	}
	if (*idPath == "") != (*rosterPath == "") {
		return fmt.Errorf("-identity and -roster must be given together")
	}
	var nodeID *thetacrypt.IdentityKey
	var roster thetacrypt.IdentityRoster
	if *idPath != "" {
		if nodeID, err = thetacrypt.LoadIdentity(*idPath); err != nil {
			return err
		}
		if roster, err = thetacrypt.LoadRoster(*rosterPath); err != nil {
			return err
		}
	}
	keyFile := ""
	if *persist {
		keyFile = *keyPath
	}
	node, err := thetacrypt.NewNode(thetacrypt.NodeConfig{
		Keys:       nk,
		KeyFile:    keyFile,
		ListenAddr: *listen,
		Peers:      peers,
		Identity:   nodeID,
		Roster:     roster,
		Engine: thetacrypt.EngineOptions{
			Workers:         *workers,
			QueueLen:        *queueLen,
			RetainTTL:       *retainTTL,
			RetainMax:       *retainMax,
			SendTimeout:     *sendTimeout,
			RefreshInterval: *refresh,
		},
		Transport: thetacrypt.TransportOptions{
			OutQueueLen:    *peerQueue,
			Policy:         policy,
			AckWindow:      *ackWindow,
			AckInterval:    *ackInterval,
			ResendTimeout:  *resendAfter,
			DialRetry:      *dialRetry,
			DialBackoffMax: *dialMax,
		},
	})
	if err != nil {
		return err
	}
	defer node.Close()

	st := node.Stats()
	mesh := "plaintext mesh"
	if nodeID != nil {
		mesh = "secure mesh"
	}
	fmt.Printf("node %d up: p2p %s (%s), http %s, n=%d t=%d, queue=%d, retention: see /v2/info stats\n",
		nk.Index, *listen, mesh, *httpAddr, nk.N, nk.T, st.QueueCap)
	return serveUntilSignal(&http.Server{Addr: *httpAddr, Handler: node.Handler()})
}

// runRouter serves the /v2 surface of a stateless routing tier over the
// named committee endpoints: the router owns no shares and no engine,
// only the key→committee placement map, so any number of identically
// configured replicas can front the same fleet.
func runRouter(committees, httpAddr string) error {
	if committees == "" {
		return fmt.Errorf("-router requires -committees (url or name=url, comma-separated)")
	}
	var backends []thetacrypt.RouterBackend
	for _, entry := range strings.Split(committees, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, url := "", entry
		if at := strings.IndexByte(entry, '='); at >= 0 {
			name, url = entry[:at], entry[at+1:]
		}
		if !strings.Contains(url, "://") {
			return fmt.Errorf("committee endpoint %q is not a URL (want http://host:port)", url)
		}
		backends = append(backends, thetacrypt.RouterBackend{Name: name, Service: client.New(url)})
	}
	if len(backends) == 0 {
		return fmt.Errorf("-committees named no endpoints")
	}
	rt := thetacrypt.NewRouter(backends...)

	// Probing Info at startup is advisory: committees that are still
	// coming up are reported down and picked up on first use.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	info, err := rt.Info(ctx)
	cancel()
	if err != nil {
		fmt.Printf("router up: http %s, %d committees (none reachable yet: %v)\n", httpAddr, len(backends), err)
	} else {
		down := 0
		for _, c := range info.Committees {
			if c.Down {
				down++
			}
		}
		fmt.Printf("router up: http %s, %d committees (%d reachable), %d keys placed\n",
			httpAddr, len(backends), len(backends)-down, len(info.Keys))
	}
	return serveUntilSignal(&http.Server{Addr: httpAddr, Handler: thetacrypt.ServiceHandler(rt)})
}

// serveUntilSignal runs the HTTP server until it fails or the process
// is asked to stop.
func serveUntilSignal(srv *http.Server) error {
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case <-sig:
		fmt.Println("shutting down")
		return srv.Close()
	}
}

// readPeers parses "index host:port" lines, excluding self.
func readPeers(path string, self int) (map[int]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open peers file: %w", err)
	}
	defer f.Close()
	peers := make(map[int]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("bad peers line %q", line)
		}
		idx, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("bad peer index in %q: %w", line, err)
		}
		if idx == self {
			continue
		}
		peers[idx] = fields[1]
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("read peers file: %w", err)
	}
	return peers, nil
}
