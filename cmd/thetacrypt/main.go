// Command thetacrypt runs one standalone Thetacrypt service node: a
// TCP P2P mesh to its peers, every link mutually authenticated TLS 1.3
// pinned to the roster, plus the HTTP service layer for applications.
// With -router it instead runs the stateless routing tier in front of
// several committee deployments, serving the same /v2 surface.
//
// Usage:
//
//	thetacrypt -key keys/node1.key -identity keys/node1.id -roster keys/roster.json \
//	           -peers keys/peers.txt -listen :7001 -http :8081
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
		keyPath    = flag.String("key", "", "path to this node's key file")
		peersPath  = flag.String("peers", "", "path to the peers file (index addr per line)")
		listen     = flag.String("listen", ":7001", "P2P listen address")
		httpAddr   = flag.String("http", ":8081", "service-layer HTTP listen address")
		persist    = flag.Bool("persist", false, "make the -key file durable: rewrite it at start, then append one fsynced frame per installed key (generated keys, reshared epochs) and zero the share each reshare supersedes")
		routerMode = flag.Bool("router", false, "run the stateless routing tier over committee endpoints instead of a node")
		committees = flag.String("committees", "", "router mode: comma-separated committee endpoints, each \"url\" or \"name=url\"")
		idPath     = flag.String("identity", "", "path to this node's private identity file (node<i>.id from thetakeygen)")
		rosterPath = flag.String("roster", "", "path to the mesh roster file (roster.json from thetakeygen)")
	)
	flag.Parse()
	if *routerMode {
		return runRouter(*committees, *httpAddr)
	}
	if *keyPath == "" || *peersPath == "" || *idPath == "" || *rosterPath == "" {
		return fmt.Errorf("-key, -identity, -roster and -peers are all required")
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
	nodeID, err := thetacrypt.LoadIdentity(*idPath)
	if err != nil {
		return err
	}
	roster, err := thetacrypt.LoadRoster(*rosterPath)
	if err != nil {
		return err
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
	})
	if err != nil {
		return err
	}
	defer node.Close()

	st := node.Stats()
	fmt.Printf("node %d up: p2p %s, http %s, n=%d t=%d, queue=%d, retention: see /v2/info stats\n",
		nk.Index, *listen, *httpAddr, nk.N, nk.T, st.QueueCap)
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
