// Command thetakeygen is the trusted dealer: it generates named
// threshold key material for all schemes and writes one keystore file
// per node, one transport identity file per node, the mesh roster, a
// keyring manifest describing the dealt keys and the roster, and a
// peers file template for cmd/thetacrypt.
//
// Usage:
//
//	thetakeygen -n 4 -t 1 -out ./keys [-rsa-bits 2048] [-rsa-fixture]
//	            [-schemes SG02,BLS04,...] [-group edwards25519|p256]
//	            [-key-id default]
package main

import (
	"crypto/rand"
	"encoding/base64"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"thetacrypt/internal/atomicfile"
	"thetacrypt/internal/group"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "thetakeygen:", err)
		os.Exit(1)
	}
}

// manifest is the keyring.json the dealer writes next to the key
// files: the deployment parameters, the per-node files, and one entry
// per dealt key (public material only).
type manifest struct {
	N      int           `json:"n"`
	T      int           `json:"t"`
	Quorum int           `json:"quorum"`
	Files  []string      `json:"files"`
	Keys   []manifestKey `json:"keys"`
	// Peers is the transport identity roster (node index → public
	// identity keys), the same shape as the standalone roster.json.
	// Every node enforces it on every link.
	Peers map[string]identity.PublicJSON `json:"peers,omitempty"`
}

type manifestKey struct {
	Scheme  string `json:"scheme"`
	KeyID   string `json:"key_id"`
	Group   string `json:"group,omitempty"`
	Default bool   `json:"default,omitempty"`
	// Epoch is the dealt share version (1 for fresh keys); a live
	// resharing advances it on the running nodes.
	Epoch     int    `json:"epoch"`
	PublicKey string `json:"public_key,omitempty"` // base64
}

func run() error {
	var (
		n          = flag.Int("n", 4, "number of nodes")
		t          = flag.Int("t", 1, "threshold (any t+1 cooperate; up to t corrupted)")
		out        = flag.String("out", "keys", "output directory")
		rsaBits    = flag.Int("rsa-bits", 2048, "SH00 modulus size")
		rsaFixture = flag.Bool("rsa-fixture", false, "use embedded deterministic safe primes (TEST ONLY)")
		schemeList = flag.String("schemes", "", "comma-separated scheme subset (default: all)")
		groupName  = flag.String("group", "edwards25519", "DL group for SG02/KG20/CKS05")
		keyID      = flag.String("key-id", keys.DefaultKeyID, "name of the dealt keys")
	)
	flag.Parse()

	g, err := group.ByName(*groupName)
	if err != nil {
		return err
	}
	var subset []schemes.ID
	seen := make(map[schemes.ID]bool)
	if *schemeList != "" {
		for _, s := range strings.Split(*schemeList, ",") {
			id := schemes.ID(strings.TrimSpace(s))
			if _, err := schemes.Lookup(id); err != nil {
				return err
			}
			if seen[id] {
				continue // repeated -schemes entries are dealt once
			}
			seen[id] = true
			subset = append(subset, id)
		}
	}
	if err := os.MkdirAll(*out, 0o700); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	fmt.Printf("dealing keys for n=%d t=%d (quorum %d)...\n", *n, *t, *t+1)
	nodes, err := keys.Deal(rand.Reader, *t, *n, keys.Options{
		Group:         g,
		RSABits:       *rsaBits,
		UseRSAFixture: *rsaFixture,
		Schemes:       subset,
		KeyID:         *keyID,
	})
	if err != nil {
		return err
	}
	man := manifest{N: *n, T: *t, Quorum: *t + 1}
	for _, nk := range nodes {
		name := fmt.Sprintf("node%d.key", nk.Index)
		path := filepath.Join(*out, name)
		if err := atomicfile.WriteFile(path, nk.Marshal(), 0o600); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		man.Files = append(man.Files, name)
		fmt.Println("wrote", path)
	}
	// Transport identities: one private identity file per node plus the
	// shared roster, which cmd/thetacrypt requires as -identity and
	// -roster.
	ids, roster, err := identity.GenerateMesh(rand.Reader, *n)
	if err != nil {
		return fmt.Errorf("generate identities: %w", err)
	}
	for _, id := range ids {
		path := filepath.Join(*out, fmt.Sprintf("node%d.id", id.Node))
		if err := id.Save(path); err != nil {
			return fmt.Errorf("write identity: %w", err)
		}
		fmt.Println("wrote", path)
	}
	rosterPath := filepath.Join(*out, "roster.json")
	if err := roster.Save(rosterPath); err != nil {
		return fmt.Errorf("write roster: %w", err)
	}
	fmt.Println("wrote", rosterPath)
	man.Peers = identity.MarshalRoster(roster)
	// The manifest lists the shared public material; every node's
	// listing is identical, so node 1's serves.
	for _, info := range nodes[0].List() {
		man.Keys = append(man.Keys, manifestKey{
			Scheme:    string(info.Scheme),
			KeyID:     info.ID,
			Group:     info.Group,
			Default:   info.Default,
			Epoch:     info.Epoch,
			PublicKey: base64.StdEncoding.EncodeToString(info.Public),
		})
	}
	manPath := filepath.Join(*out, "keyring.json")
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	if err := atomicfile.WriteFile(manPath, append(raw, '\n'), 0o644); err != nil {
		return fmt.Errorf("write keyring manifest: %w", err)
	}
	fmt.Println("wrote", manPath)
	// Peers file template: node index to host:port, edited by the
	// operator.
	var sb strings.Builder
	for i := 1; i <= *n; i++ {
		fmt.Fprintf(&sb, "%d 127.0.0.1:%d\n", i, 7000+i)
	}
	peersPath := filepath.Join(*out, "peers.txt")
	if err := atomicfile.WriteFile(peersPath, []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("write peers file: %w", err)
	}
	fmt.Println("wrote", peersPath)
	fmt.Println("dealt keys:")
	for _, k := range man.Keys {
		fmt.Printf("  %s/%s (%s)\n", k.Scheme, k.KeyID, k.Group)
	}
	return nil
}
