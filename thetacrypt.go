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

// Cluster is an embedded in-process Θ-network of n nodes: one
// committee.Committee behind the facade's option types.
type Cluster struct {
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
	return &Cluster{com: com}, nil
}

// Close stops all nodes.
func (c *Cluster) Close() { c.com.Close() }

// N returns the cluster size.
func (c *Cluster) N() int { return c.com.N() }

// KeystoreAt returns node i's keystore (1-indexed); the public parts
// serve as the scheme API.
func (c *Cluster) KeystoreAt(i int) *Keystore { return c.com.UnitAt(i).Store }

// Cluster implements the unified Service interface.
var _ Service = (*Cluster)(nil)

// Submit starts a threshold operation at node 1 (Service interface).
func (c *Cluster) Submit(ctx context.Context, req Request) (Handle, error) {
	return c.com.Submit(ctx, req)
}

// SubmitBatch starts 1..N operations with a single engine hand-off,
// amortizing dispatch across the batch. Invalid requests fail the whole
// call (the engine is never reached).
func (c *Cluster) SubmitBatch(ctx context.Context, reqs []Request) ([]Handle, error) {
	return c.com.SubmitBatch(ctx, reqs)
}

// Wait blocks until the instance finishes or ctx expires.
func (c *Cluster) Wait(ctx context.Context, h Handle) (Result, error) {
	return c.com.Wait(ctx, h)
}

// Execute submits at node 1 and waits for the result.
func (c *Cluster) Execute(ctx context.Context, req Request) ([]byte, error) {
	return api.Execute(ctx, c, req)
}

// Encrypt creates a threshold ciphertext under a named public key of
// the cluster (scheme API; SG02 or BZ03). The empty keyID selects the
// scheme's default key.
func (c *Cluster) Encrypt(ctx context.Context, scheme SchemeID, keyID string, message, label []byte) ([]byte, error) {
	return c.com.Encrypt(ctx, scheme, keyID, message, label)
}

// Info reports the deployment parameters, the keychain, and node 1's
// engine snapshot (Service interface).
func (c *Cluster) Info(ctx context.Context) (ServiceInfo, error) {
	return c.com.Info(ctx)
}

// Keys lists the named keys of node 1's keystore (Service interface).
func (c *Cluster) Keys(ctx context.Context) ([]KeyInfo, error) {
	return c.com.Keys(ctx)
}

// Key resolves one named key of node 1's keystore (api.KeyFetcher).
func (c *Cluster) Key(ctx context.Context, scheme SchemeID, keyID string) (KeyInfo, error) {
	return c.com.Key(ctx, scheme, keyID)
}

// GenerateKey runs a distributed key generation across the cluster
// (Service interface): a real protocol instance through the
// orchestration engines, after which every node holds a share of the
// new key under the returned handle's result ID.
func (c *Cluster) GenerateKey(ctx context.Context, scheme SchemeID, opts GenerateKeyOptions) (Handle, error) {
	return c.com.GenerateKey(ctx, scheme, opts)
}

// ReshareKey runs a live resharing of a named key across the cluster
// (Service interface): the key's epoch advances by one and its shares
// move to the committee in opts, while the public key — and every
// ciphertext and signature under it — stays valid.
func (c *Cluster) ReshareKey(ctx context.Context, scheme SchemeID, keyID string, opts ReshareOptions) (Handle, error) {
	return c.com.ReshareKey(ctx, scheme, keyID, opts)
}

// StatsAt snapshots node i's engine (1-indexed): instance lifecycle and
// flow control counters.
func (c *Cluster) StatsAt(i int) EngineStats {
	return c.com.UnitAt(i).Stats()
}

// Router is the stateless router tier over several committees — one of
// the six Service implementations, beside Unit, Committee, Cluster, Node
// and client.Client (see internal/router).
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
type Node struct {
	unit      committee.Unit
	transport *tcpnet.Transport
	handler   http.Handler
}

// NewNode starts the network transport and orchestration engine. It
// refuses a config without Identity and Roster before it writes the
// keystore.
func NewNode(cfg NodeConfig) (*Node, error) {
	if cfg.Identity == nil || len(cfg.Roster) == 0 {
		return nil, fmt.Errorf("thetacrypt: a node needs its Identity and the Roster")
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
		unit:      unit,
		transport: transport,
		handler:   service.NewFront(unit),
	}, nil
}

// Node implements the unified Service interface for in-process use by
// the hosting application; remote applications reach the same surface
// through Handler's /v2 endpoints and the client SDK.
var (
	_ Service               = (*Node)(nil)
	_ api.DetailedSubmitter = (*Node)(nil)
)

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

// Submit starts a threshold operation locally (Service interface).
func (n *Node) Submit(ctx context.Context, req Request) (Handle, error) {
	return n.unit.Submit(ctx, req)
}

// SubmitBatch starts 1..N operations with a single engine hand-off.
func (n *Node) SubmitBatch(ctx context.Context, reqs []Request) ([]Handle, error) {
	return n.unit.SubmitBatch(ctx, reqs)
}

// SubmitDetailed starts 1..N operations and reports each on its own,
// with the idempotent-duplicate flag (api.DetailedSubmitter).
func (n *Node) SubmitDetailed(ctx context.Context, reqs []Request) ([]api.SubmitEntry, error) {
	return n.unit.SubmitDetailed(ctx, reqs)
}

// Wait blocks until the instance finishes or ctx expires.
func (n *Node) Wait(ctx context.Context, h Handle) (Result, error) {
	return n.unit.Wait(ctx, h)
}

// Encrypt creates a threshold ciphertext under a named public key of
// the deployment (scheme API).
func (n *Node) Encrypt(ctx context.Context, scheme SchemeID, keyID string, message, label []byte) ([]byte, error) {
	return n.unit.Encrypt(ctx, scheme, keyID, message, label)
}

// Info reports the deployment parameters, the keychain, and the engine
// snapshot (Service interface).
func (n *Node) Info(ctx context.Context) (ServiceInfo, error) {
	return n.unit.Info(ctx)
}

// Keys lists the named keys of the node's keystore (Service
// interface).
func (n *Node) Keys(ctx context.Context) ([]KeyInfo, error) {
	return n.unit.Keys(ctx)
}

// Key resolves one named key of the node's keystore (api.KeyFetcher).
func (n *Node) Key(ctx context.Context, scheme SchemeID, keyID string) (KeyInfo, error) {
	return n.unit.Key(ctx, scheme, keyID)
}

// GenerateKey runs a distributed key generation across the deployment
// (Service interface).
func (n *Node) GenerateKey(ctx context.Context, scheme SchemeID, opts GenerateKeyOptions) (Handle, error) {
	return n.unit.GenerateKey(ctx, scheme, opts)
}

// ReshareKey runs a live resharing of a named key across the
// deployment (Service interface).
func (n *Node) ReshareKey(ctx context.Context, scheme SchemeID, keyID string, opts ReshareOptions) (Handle, error) {
	return n.unit.ReshareKey(ctx, scheme, keyID, opts)
}

// Stats snapshots the node's engine: instance lifecycle and flow
// control counters.
func (n *Node) Stats() EngineStats {
	return n.unit.Stats()
}

// Close stops the node.
func (n *Node) Close() {
	n.unit.Engine.Stop()
	_ = n.transport.Close()
}
