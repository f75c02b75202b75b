package main

import (
	"crypto/rand"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"

	"thetacrypt"
	"thetacrypt/api"
	"thetacrypt/client"
	"thetacrypt/internal/committee"
	"thetacrypt/internal/group"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network/securelink"
	"thetacrypt/internal/network/tcpnet"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/schemes"
)

// deployment is one running system under test: the Service the load
// generator talks to, the engines whose counters are snapshotted
// around each phase, and everything Close has to stop.
type deployment struct {
	// svc is the client-facing entry point: a client.Client for the
	// stack workloads, the Router for the sharded one.
	svc api.Service
	// stats snapshots every node's engine, committee by committee.
	stats func() []api.EngineStats
	// nodes are the stack's members as Services (verification asks
	// each of them for its keychain); nil for the sharded deployment.
	nodes []api.Service
	// dir is the deployment's scratch directory ("" when none).
	dir     string
	closers []func()
}

func (d *deployment) Close() {
	for i := len(d.closers) - 1; i >= 0; i-- {
		d.closers[i]()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir) // scratch keystore files; nothing reads them again
	}
}

// stackConfig describes the deployable stack: client.Client → HTTP →
// ServiceHandler(node 1) → n Nodes over tcpnet loopback with
// securelink identities.
type stackConfig struct {
	t, n    int
	scheme  schemes.ID
	group   group.Group // nil selects the default (edwards25519)
	persist bool        // give every node a KeyFile in a temp dir
}

// newStack deals keys, starts the nodes on loopback, and fronts node 1
// with the /v2 HTTP handler. With a nil tracer every piece comes from
// the public facade; with a tracer the same wiring is rebuilt from the
// layers so the P2P and Service boundaries can be decorated.
func newStack(cfg stackConfig, tr *tracer) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()

	stores, err := keys.Deal(rand.Reader, cfg.t, cfg.n, keys.Options{
		Schemes: []schemes.ID{cfg.scheme},
		Group:   cfg.group,
	})
	if err != nil {
		return nil, fmt.Errorf("deal keys: %w", err)
	}
	ids := make([]*identity.Key, cfg.n)
	roster := make(identity.Roster, cfg.n)
	for i := range ids {
		if ids[i], err = identity.Generate(rand.Reader, i+1); err != nil {
			return nil, fmt.Errorf("generate identity %d: %w", i+1, err)
		}
		roster[i+1] = ids[i].Public()
	}
	if cfg.persist {
		if d.dir, err = os.MkdirTemp("", "thetabench-keys-*"); err != nil {
			return nil, err
		}
	}

	type member struct {
		svc     api.Service
		stats   func() api.EngineStats
		addr    string
		setPeer func(int, string)
	}
	members := make([]member, cfg.n)
	for i := range members {
		ncfg := thetacrypt.NodeConfig{
			Keys:       stores[i],
			ListenAddr: "127.0.0.1:0",
			Identity:   ids[i],
			Roster:     roster,
		}
		if cfg.persist {
			ncfg.KeyFile = filepath.Join(d.dir, fmt.Sprintf("node%d.key", i+1))
		}
		if tr == nil {
			node, err := thetacrypt.NewNode(ncfg)
			if err != nil {
				return nil, fmt.Errorf("start node %d: %w", i+1, err)
			}
			d.closers = append(d.closers, node.Close)
			members[i] = member{svc: node, stats: node.Stats, addr: node.P2PAddr(), setPeer: node.SetPeer}
			continue
		}
		unit, transport, err := tracedNode(ncfg, tr)
		if err != nil {
			return nil, fmt.Errorf("start traced node %d: %w", i+1, err)
		}
		d.closers = append(d.closers, func() {
			unit.Engine.Stop()
			_ = transport.Close() // shutting down; a close error changes nothing
		})
		members[i] = member{svc: unit, stats: unit.Stats, addr: transport.Addr(), setPeer: transport.SetPeer}
	}
	for i := range members {
		for j := range members {
			if i != j {
				members[i].setPeer(j+1, members[j].addr)
			}
		}
	}
	d.nodes = make([]api.Service, cfg.n)
	for i, m := range members {
		d.nodes[i] = m.svc
	}
	d.stats = func() []api.EngineStats {
		out := make([]api.EngineStats, len(members))
		for i, m := range members {
			out[i] = m.stats()
		}
		return out
	}

	front := members[0].svc
	if tr != nil {
		front = tr.service("engine", front)
	}
	handler := http.Handler(thetacrypt.ServiceHandler(front))
	hc := &http.Client{}
	if tr != nil {
		handler = tr.handler("service", handler)
		hc.Transport = tr.roundTripper(http.DefaultTransport)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler}
	served := make(chan struct{})
	go func() {
		defer close(served)
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bench: http server:", err)
		}
	}()
	d.closers = append(d.closers, func() {
		hc.CloseIdleConnections()
		_ = srv.Close() // in-flight polls are abandoned with the deployment
		<-served
	})
	d.svc = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(hc))
	if tr != nil {
		d.svc = tr.service("client", d.svc)
	}
	ok = true
	return d, nil
}

// tracedNode is thetacrypt.NewNode with the transport handed to the
// engine through the tracer's P2P decorator. The facade gives no seam
// for that, so the same four steps are repeated here.
func tracedNode(cfg thetacrypt.NodeConfig, tr *tracer) (committee.Unit, *tcpnet.Transport, error) {
	if cfg.KeyFile != "" {
		cfg.Keys.SetPersistPath(cfg.KeyFile)
		if err := cfg.Keys.Save(); err != nil {
			return committee.Unit{}, nil, fmt.Errorf("persist keystore: %w", err)
		}
	}
	transport, err := tcpnet.New(tcpnet.Config{
		Self:       cfg.Keys.Index,
		ListenAddr: cfg.ListenAddr,
		Secure:     &securelink.Config{Key: cfg.Identity, Roster: cfg.Roster},
	})
	if err != nil {
		return committee.Unit{}, nil, fmt.Errorf("transport: %w", err)
	}
	engine := orchestration.New(orchestration.Config{
		Keys:     cfg.Keys,
		Net:      tr.p2p(cfg.Keys.Index, "", transport),
		Identity: cfg.Identity,
		Roster:   cfg.Roster,
	})
	return committee.Unit{Store: cfg.Keys, Engine: engine}, transport, nil
}

// shardedConfig describes the embedded fleet: a Router over embedded
// Clusters (memnet), one distinctly named key per committee.
type shardedConfig struct {
	t, n   int
	scheme schemes.ID
	keyIDs []string // one committee per key ID
}

func newSharded(cfg shardedConfig, tr *tracer) (*deployment, error) {
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.Close()
		}
	}()
	backends := make([]thetacrypt.RouterBackend, len(cfg.keyIDs))
	var statFns []func() api.EngineStats
	for c, keyID := range cfg.keyIDs {
		name := "committee-" + keyID
		var svc api.Service
		if tr == nil {
			cl, err := thetacrypt.NewCluster(cfg.t, cfg.n, thetacrypt.ClusterOptions{
				Schemes: []schemes.ID{cfg.scheme},
				KeyID:   keyID,
			})
			if err != nil {
				return nil, fmt.Errorf("start cluster %s: %w", keyID, err)
			}
			d.closers = append(d.closers, cl.Close)
			for i := 1; i <= cfg.n; i++ {
				statFns = append(statFns, func() api.EngineStats { return cl.StatsAt(i) })
			}
			svc = cl
		} else {
			// The committee's engine hook is the one place the facade's
			// Cluster hands over each node's transport.
			com, err := committee.New(cfg.t, cfg.n, committee.Config{
				Schemes: []schemes.ID{cfg.scheme},
				KeyID:   keyID,
				Engine: func(ec orchestration.Config) orchestration.Config {
					ec.Net = tr.p2p(ec.Keys.Index, name, ec.Net)
					return ec
				},
			})
			if err != nil {
				return nil, fmt.Errorf("start traced committee %s: %w", keyID, err)
			}
			d.closers = append(d.closers, com.Close)
			for i := 1; i <= cfg.n; i++ {
				statFns = append(statFns, com.UnitAt(i).Stats)
			}
			svc = tr.service("engine", com)
		}
		backends[c] = thetacrypt.RouterBackend{Name: name, Service: svc}
	}
	d.stats = func() []api.EngineStats {
		out := make([]api.EngineStats, len(statFns))
		for i, fn := range statFns {
			out[i] = fn()
		}
		return out
	}
	d.svc = thetacrypt.NewRouter(backends...)
	if tr != nil {
		d.svc = tr.service("router", d.svc)
	}
	ok = true
	return d, nil
}
