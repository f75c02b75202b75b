// Package thetacrypt is the public facade of the Thetacrypt
// reproduction: a distributed service for threshold cryptography
// on-demand. It re-exports the request vocabulary of the protocol API
// and provides two integration styles, mirroring the paper's dual API:
//
//   - Cluster: an embedded in-process Θ-network (simulated transport)
//     for applications, tests, and the examples/ programs.
//   - Node: one member of a real deployment over TCP, exposing the
//     HTTP service layer (used by cmd/thetacrypt).
//
// Every node holds a transport identity, and each DKG and reshare
// sub-share is sealed to its recipient's. A Node's links are mutually
// authenticated TLS 1.3 pinned to the roster.
//
// Low-level scheme access (the paper's scheme API) is available through
// the re-exported key material: sg02/bz03 ciphertexts can be created
// with Cluster.Encrypt, signatures verified with the scheme packages.
package thetacrypt

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"thetacrypt/api"
	"thetacrypt/internal/committee"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/network/securelink"
	"thetacrypt/internal/network/tcpnet"
	"thetacrypt/internal/orchestration"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/router"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/service"
)

// Re-exported request vocabulary (API v2; see package api).
type (
	// Request is a threshold operation request.
	Request = protocols.Request
	// Operation selects sign, decrypt, or coin.
	Operation = protocols.Operation
	// SchemeID identifies one of the six schemes.
	SchemeID = schemes.ID
	// Service is the one client-facing interface over every deployment
	// style: Cluster and Node here, client.Client for remote access.
	Service = api.Service
	// Handle identifies a submitted protocol instance.
	Handle = api.Handle
	// Result is a finished operation's outcome.
	Result = api.Result
	// ServiceInfo describes a deployment endpoint.
	ServiceInfo = api.Info
	// EngineStats is a node's engine snapshot: instance lifecycle and
	// flow control counters.
	EngineStats = api.EngineStats
	// CryptoStats is the peer-share check counts inside EngineStats.
	CryptoStats = api.CryptoStats
	// TransportStats is the per-peer health snapshot of a node's P2P
	// links (state, queue depth, send/drop counters).
	TransportStats = api.TransportStats
	// PeerStats is one peer link's health inside TransportStats.
	PeerStats = api.PeerStats
	// Keystore is a node's keychain: named keys addressed by
	// (scheme, key ID), dealt offline or generated at runtime.
	Keystore = keys.Keystore
	// Key is one named key of a keystore.
	Key = keys.Key
	// KeyInfo describes one named key in listings (Service.Keys, Info).
	KeyInfo = api.KeyInfo
	// GenerateKeyOptions configures Service.GenerateKey.
	GenerateKeyOptions = api.GenerateKeyOptions
	// ReshareOptions configures Service.ReshareKey: the new threshold
	// and committee of a live resharing.
	ReshareOptions = api.ReshareOptions
)

// DefaultKeyID names the key a request without an explicit KeyID
// resolves to.
const DefaultKeyID = keys.DefaultKeyID

// PublicKeyOf resolves a named key's public material, typed — e.g.
// PublicKeyOf[*frost.PublicKey](ks, KG20, ""). The empty key ID
// selects the scheme's default key.
func PublicKeyOf[P any](ks *Keystore, scheme SchemeID, keyID string) (P, error) {
	return keys.Public[P](ks, scheme, keyID)
}

// Execute submits one request against any Service and waits for its
// value.
func Execute(ctx context.Context, s Service, req Request) ([]byte, error) {
	return api.Execute(ctx, s, req)
}

// ExecuteBatch submits a batch against any Service and waits for all
// results, in request order.
func ExecuteBatch(ctx context.Context, s Service, reqs []Request) ([]Result, error) {
	return api.ExecuteBatch(ctx, s, reqs)
}

// Operations.
const (
	OpSign    = protocols.OpSign
	OpDecrypt = protocols.OpDecrypt
	OpCoin    = protocols.OpCoin
	OpKeyGen  = protocols.OpKeyGen
	OpReshare = protocols.OpReshare
)

// Scheme identifiers (Table 1).
const (
	SG02  = schemes.SG02
	BZ03  = schemes.BZ03
	SH00  = schemes.SH00
	BLS04 = schemes.BLS04
	KG20  = schemes.KG20
	CKS05 = schemes.CKS05
)

// ClusterOptions configures an embedded cluster. Its nodes run the
// same engine and transport defaults as a standalone Node, each with a
// fresh identity. A Cluster is for demos and tests: its SH00 key
// (dealt unless Schemes leaves SH00 out) is built on the repository's
// public test primes, so anyone can forge its signatures.
type ClusterOptions struct {
	// Schemes to deal keys for; empty means all six.
	Schemes []SchemeID
	// KeyID names the dealt keys; empty selects DefaultKeyID. Sharded
	// deployments give each committee distinct key names so the router's
	// placement map spreads traffic instead of shadowing duplicates.
	KeyID string
	// Latency is the simulated one-way network delay between nodes.
	Latency time.Duration
}

// unitService is the surface a Cluster or Node serves from its
// committee.Unit. Embedding it through this unexported interface
// promotes the Service methods without exporting the Unit's engine
// and keystore.
type unitService interface {
	api.Service
	api.KeyFetcher
	api.DetailedSubmitter
	Stats() EngineStats
}

var (
	_ Service               = (*Cluster)(nil)
	_ api.KeyFetcher        = (*Cluster)(nil)
	_ api.DetailedSubmitter = (*Cluster)(nil)
	_ Service               = (*Node)(nil)
	_ api.KeyFetcher        = (*Node)(nil)
	_ api.DetailedSubmitter = (*Node)(nil)
)

// Cluster is an embedded in-process Θ-network of n nodes: one
// committee.Committee behind the facade's option types. Node 1 answers
// the Service methods — Submit, SubmitBatch, SubmitDetailed, Wait,
// Encrypt, Info, Keys, Key (api.KeyFetcher), GenerateKey and
// ReshareKey — and Stats snapshots node 1's engine. GenerateKey and
// ReshareKey run real protocol instances across every node; Encrypt
// creates an SG02 or BZ03 ciphertext under a named public key (the
// scheme API), the empty key ID selecting the scheme's default key.
type Cluster struct {
	unitService
	com *committee.Committee
}

// NewCluster deals fresh keys and starts n in-process nodes with
// threshold t (any t+1 cooperate, up to t may be corrupted). The SH00
// key is dealt from the repository's public test primes, not fresh
// ones, and can be forged: use a Cluster for demos and tests only.
func NewCluster(t, n int, opts ClusterOptions) (*Cluster, error) {
	com, err := committee.New(t, n, committee.Config{
		Schemes: opts.Schemes,
		KeyID:   opts.KeyID,
		Latency: opts.Latency,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{unitService: com.Unit, com: com}, nil
}

// Close stops all nodes.
func (c *Cluster) Close() { c.com.Close() }

// N returns the cluster size.
func (c *Cluster) N() int { return c.com.N() }

// KeystoreAt returns node i's keystore (1-indexed); the public parts
// serve as the scheme API.
func (c *Cluster) KeystoreAt(i int) *Keystore { return c.com.UnitAt(i).Store }

// StatsAt snapshots node i's engine (1-indexed): instance lifecycle and
// flow control counters.
func (c *Cluster) StatsAt(i int) EngineStats { return c.com.UnitAt(i).Stats() }

// Router is the stateless router tier over several committees (see
// internal/router). It is one of three Service implementations: the
// node-side committee.Unit, which Cluster, Node and the embedded
// committee serve through; Router; and client.Client.
type Router = router.Router

// RouterBackend names one committee behind a Router; its Service may be
// an embedded Cluster, a client.Client pointed at a deployment, or any
// other Service implementation.
type RouterBackend = router.Backend

// NewRouter fronts the given committees with a stateless router: keys
// are placed on the committee that holds them (first backend wins on
// duplicates), requests are forwarded to the owning committee, batches
// scatter/gather, and Info/Keys merge the fleet view.
func NewRouter(backends ...RouterBackend) *Router {
	return router.New(backends)
}

// ServiceHandler serves the /v2 HTTP surface over any Service — the
// handler a router deployment mounts so the client SDK talks to a
// sharded fleet exactly as it talks to one node.
func ServiceHandler(svc api.Service) http.Handler {
	return service.NewFront(svc)
}

// Mesh identity material (see internal/identity).
type (
	// IdentityKey is one node's private transport identity: the Ed25519
	// key that authenticates its links and the X25519 key DKG sub-share
	// boxes are sealed to.
	IdentityKey = identity.Key
	// IdentityRoster maps node index → public identity; it is the
	// membership authority every node enforces.
	IdentityRoster = identity.Roster
)

// LoadIdentity reads a private identity file written by
// cmd/thetakeygen (or IdentityKey.Save).
func LoadIdentity(path string) (*IdentityKey, error) { return identity.LoadKey(path) }

// LoadRoster reads a roster file written by cmd/thetakeygen (or
// IdentityRoster.Save).
func LoadRoster(path string) (IdentityRoster, error) { return identity.LoadRoster(path) }

// NodeConfig configures a standalone deployment member.
type NodeConfig struct {
	// Keys is this node's keystore (from cmd/thetakeygen or keys.Deal).
	Keys *Keystore
	// KeyFile makes the keystore durable. The file is rewritten once
	// at startup as a compacted snapshot (atomic write-temp-fsync-
	// rename); after that every install — a DKG-generated key, a
	// resharing's epoch bump — appends one fsynced frame, so a
	// restarted node resumes at the epoch it crashed at. A key is used
	// from the moment it is installed; the install returns after the
	// fsync and is undone if the write fails. A resharing's install
	// also zeroes the superseded share in the file. Empty keeps the
	// keystore in memory only.
	KeyFile string
	// ListenAddr is the P2P listen address.
	ListenAddr string
	// Peers maps node index to P2P address for all other nodes.
	Peers map[int]string
	// Identity is this node's private transport identity (from
	// cmd/thetakeygen's node<i>.id file or identity.Generate); it is
	// required. Every P2P link runs mutually authenticated TLS 1.3
	// pinned to the roster, unrostered peers are rejected before any
	// protocol byte flows, and DKG/reshare sub-share boxes are sealed
	// to each recipient's identity.
	Identity *IdentityKey
	// Roster maps node index → public identity for every deployment
	// member, this node included; it is required.
	Roster IdentityRoster
}

// Node is one standalone Thetacrypt service node over TCP: a
// committee.Unit bound to a real transport and the HTTP service layer.
// The Unit answers the Service methods in-process for the hosting
// application — Submit, SubmitBatch, SubmitDetailed, Wait, Encrypt,
// Info, Keys, Key (api.KeyFetcher), GenerateKey and ReshareKey — and
// Stats snapshots its engine; remote applications reach the same
// surface through Handler's /v2 endpoints and the client SDK.
type Node struct {
	unitService
	engine    *orchestration.Engine
	transport *tcpnet.Transport
	handler   http.Handler
}

// NewNode starts the network transport and orchestration engine. It
// refuses a config without Keys, Identity and Roster before it writes
// the keystore.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Keys == nil || cfg.Identity == nil || len(cfg.Roster) == 0 {
		return nil, fmt.Errorf("thetacrypt: a node needs its Keys, its Identity and the Roster")
	}
	if cfg.Identity.Node != cfg.Keys.Index {
		return nil, fmt.Errorf("thetacrypt: identity is for node %d but keystore is node %d",
			cfg.Identity.Node, cfg.Keys.Index)
	}
	if cfg.KeyFile != "" {
		cfg.Keys.SetPersistPath(cfg.KeyFile)
		if err := cfg.Keys.Save(); err != nil {
			return nil, fmt.Errorf("thetacrypt: persist keystore: %w", err)
		}
	}
	transport, err := tcpnet.New(tcpnet.Config{
		Self:       cfg.Keys.Index,
		ListenAddr: cfg.ListenAddr,
		Peers:      cfg.Peers,
		Secure:     &securelink.Config{Key: cfg.Identity, Roster: cfg.Roster},
	})
	if err != nil {
		return nil, fmt.Errorf("thetacrypt: transport: %w", err)
	}
	engine := orchestration.New(orchestration.Config{
		Keys:     cfg.Keys,
		Net:      transport,
		Identity: cfg.Identity,
		Roster:   cfg.Roster,
	})
	unit := committee.Unit{Store: cfg.Keys, Engine: engine}
	return &Node{
		unitService: unit,
		engine:      engine,
		transport:   transport,
		handler:     service.NewFront(unit),
	}, nil
}

// Handler returns the node's /v2 HTTP handler: the same front
// ServiceHandler builds, over this node.
func (n *Node) Handler() http.Handler { return n.handler }

// P2PAddr returns the bound P2P listen address (useful with a ":0"
// ListenAddr).
func (n *Node) P2PAddr() string { return n.transport.Addr() }

// SetPeer registers (or updates) a peer's P2P address after
// construction, enabling deployments with dynamically assigned ports:
// start every node on ":0", then exchange the bound addresses.
func (n *Node) SetPeer(index int, addr string) { n.transport.SetPeer(index, addr) }

// Close stops the node.
func (n *Node) Close() {
	n.engine.Stop()
	_ = n.transport.Close()
}
