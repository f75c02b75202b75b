// Package identity implements the transport identity layer of the
// secure mesh: each node holds a long-lived Ed25519 signing key (used
// by the link handshake to authenticate the node) and an X25519 box
// key (used to seal per-recipient DKG sub-shares), and every node
// knows the roster mapping node index → identity public keys. The
// roster is the mesh's membership authority: a peer whose handshake
// does not prove possession of the rostered signing key is rejected
// before any protocol traffic flows, and a sealed sub-share can only
// be opened by the rostered recipient.
//
// Key and roster files persist through internal/atomicfile, like the
// keystore, so a crash mid-write never leaves a truncated identity on
// disk.
package identity

import (
	"bytes"
	"crypto/ecdh"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"

	"thetacrypt/internal/atomicfile"
)

// Typed errors. ErrUnknownPeer surfaces when a node index has no
// roster entry (an unrostered peer can never authenticate); ErrOpen
// when a sealed box fails to decrypt (wrong recipient or tampering).
var (
	ErrUnknownPeer = errors.New("identity: peer not in roster")
	ErrOpen        = errors.New("identity: sealed box cannot be opened")
)

// Public is one node's public identity: the Ed25519 key peers verify
// handshake signatures against, and the X25519 key sub-share boxes
// are sealed to.
type Public struct {
	Sign ed25519.PublicKey
	Box  *ecdh.PublicKey
}

// Key is one node's private identity: the node index it speaks for,
// the Ed25519 signing half, and the X25519 box half.
type Key struct {
	Node int
	Sign ed25519.PrivateKey
	Box  *ecdh.PrivateKey
}

// Public returns the shareable half of the key.
func (k *Key) Public() Public {
	return Public{
		Sign: k.Sign.Public().(ed25519.PublicKey),
		Box:  k.Box.PublicKey(),
	}
}

// Generate creates a fresh identity for node index node.
func Generate(rand io.Reader, node int) (*Key, error) {
	if node < 1 {
		return nil, fmt.Errorf("identity: node index %d out of range", node)
	}
	_, sign, err := ed25519.GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("identity: generate sign key: %w", err)
	}
	box, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("identity: generate box key: %w", err)
	}
	return &Key{Node: node, Sign: sign, Box: box}, nil
}

// GenerateMesh creates fresh identities for nodes 1..n, keys[i] being
// node i+1's, and the roster they prove.
func GenerateMesh(rand io.Reader, n int) ([]*Key, Roster, error) {
	keys := make([]*Key, n)
	roster := make(Roster, n)
	for i := range keys {
		k, err := Generate(rand, i+1)
		if err != nil {
			return nil, nil, err
		}
		keys[i], roster[i+1] = k, k.Public()
	}
	return keys, roster, nil
}

// Roster maps node index → public identity. It is the authenticated
// membership of the mesh: transports reject peers without an entry,
// and DKG dealings seal sub-shares only to rostered recipients.
type Roster map[int]Public

// Lookup returns the public identity of node, or ErrUnknownPeer.
func (r Roster) Lookup(node int) (Public, error) {
	p, ok := r[node]
	if !ok {
		return Public{}, fmt.Errorf("%w: node %d", ErrUnknownPeer, node)
	}
	return p, nil
}

// Nodes returns the rostered node indices in ascending order.
func (r Roster) Nodes() []int {
	nodes := make([]int, 0, len(r))
	for i := range r {
		nodes = append(nodes, i)
	}
	sort.Ints(nodes)
	return nodes
}

// --- persistence -----------------------------------------------------

// keyFile is the JSON shape of a node identity file. Private scalars
// are hex so the file stays greppable during incident response without
// being mistaken for a certificate.
type keyFile struct {
	Version int    `json:"version"`
	Node    int    `json:"node"`
	Sign    string `json:"sign"` // ed25519 seed, hex
	Box     string `json:"box"`  // x25519 scalar, hex
}

// rosterFile is the JSON shape of a roster file, and also the shape
// embedded into thetakeygen's keyring.json.
type rosterFile struct {
	Version int                   `json:"version"`
	Peers   map[string]PublicJSON `json:"peers"`
}

// PublicJSON is the serialized form of a Public entry (hex keys), used
// by roster files and by cmd/thetakeygen's keyring manifest.
type PublicJSON struct {
	Sign string `json:"sign"`
	Box  string `json:"box"`
}

// MarshalPublic converts a Public into its JSON wire shape.
func MarshalPublic(p Public) PublicJSON {
	return PublicJSON{
		Sign: hex.EncodeToString(p.Sign),
		Box:  hex.EncodeToString(p.Box.Bytes()),
	}
}

// UnmarshalPublic parses the JSON wire shape back into a Public.
func UnmarshalPublic(pj PublicJSON) (Public, error) {
	sign, err := hex.DecodeString(pj.Sign)
	if err != nil || len(sign) != ed25519.PublicKeySize {
		return Public{}, fmt.Errorf("identity: bad sign key encoding")
	}
	raw, err := hex.DecodeString(pj.Box)
	if err != nil {
		return Public{}, fmt.Errorf("identity: bad box key encoding")
	}
	box, err := ecdh.X25519().NewPublicKey(raw)
	if err != nil {
		return Public{}, fmt.Errorf("identity: bad box key: %w", err)
	}
	return Public{Sign: ed25519.PublicKey(sign), Box: box}, nil
}

// Save writes the private identity to path (mode 0600) atomically.
func (k *Key) Save(path string) error {
	data, err := json.MarshalIndent(keyFile{
		Version: 1,
		Node:    k.Node,
		Sign:    hex.EncodeToString(k.Sign.Seed()),
		Box:     hex.EncodeToString(k.Box.Bytes()),
	}, "", "  ")
	if err != nil {
		return fmt.Errorf("identity: marshal key: %w", err)
	}
	return atomicfile.WriteFile(path, append(data, '\n'), 0o600)
}

// LoadKey reads a private identity file written by Save.
func LoadKey(path string) (*Key, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("identity: %w", err)
	}
	var kf keyFile
	if err := decodeStrict(data, &kf); err != nil {
		return nil, fmt.Errorf("identity: parse %s: %w", path, err)
	}
	if kf.Version != 1 {
		return nil, fmt.Errorf("identity: %s: unsupported version %d", path, kf.Version)
	}
	seed, err := hex.DecodeString(kf.Sign)
	if err != nil || len(seed) != ed25519.SeedSize {
		return nil, fmt.Errorf("identity: %s: bad sign key", path)
	}
	scalar, err := hex.DecodeString(kf.Box)
	if err != nil {
		return nil, fmt.Errorf("identity: %s: bad box key", path)
	}
	box, err := ecdh.X25519().NewPrivateKey(scalar)
	if err != nil {
		return nil, fmt.Errorf("identity: %s: bad box key: %w", path, err)
	}
	if kf.Node < 1 {
		return nil, fmt.Errorf("identity: %s: node index %d out of range", path, kf.Node)
	}
	return &Key{Node: kf.Node, Sign: ed25519.NewKeyFromSeed(seed), Box: box}, nil
}

// Save writes the roster to path (mode 0644) atomically. Rosters hold
// only public material.
func (r Roster) Save(path string) error {
	rf := rosterFile{Version: 1, Peers: make(map[string]PublicJSON, len(r))}
	for i, p := range r {
		rf.Peers[fmt.Sprint(i)] = MarshalPublic(p)
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return fmt.Errorf("identity: marshal roster: %w", err)
	}
	return atomicfile.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadRoster reads a roster file written by Save.
func LoadRoster(path string) (Roster, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("identity: %w", err)
	}
	var rf rosterFile
	if err := decodeStrict(data, &rf); err != nil {
		return nil, fmt.Errorf("identity: parse %s: %w", path, err)
	}
	if rf.Version != 1 {
		return nil, fmt.Errorf("identity: %s: unsupported version %d", path, rf.Version)
	}
	return ParseRoster(rf.Peers)
}

// decodeStrict decodes data into v, a pointer to a struct, and refuses
// what encoding/json lets through: a field v does not declare, a field
// name spelled in another case than its tag ("Node" for "node"), and a
// field or map key given twice, of which json would keep the last. So
// every accepted file has exactly one reading.
func decodeStrict(data []byte, v any) error {
	if err := checkJSONKeys(json.NewDecoder(bytes.NewReader(data)), reflect.TypeOf(v).Elem()); err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// checkJSONKeys reads one JSON value from dec. An object read into a
// struct must use each declared field name at most once, spelled
// exactly; an object read into a map must not repeat a key. Any other
// value is skipped, for json.Unmarshal to judge.
func checkJSONKeys(dec *json.Decoder, t reflect.Type) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	d, ok := tok.(json.Delim)
	if !ok {
		return nil
	}
	if d != '{' || (t.Kind() != reflect.Struct && t.Kind() != reflect.Map) {
		return skipJSON(dec)
	}
	seen := make(map[string]bool)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		key, _ := tok.(string)
		if seen[key] {
			return fmt.Errorf("field %q given twice", key)
		}
		seen[key] = true
		ft := jsonField(t, key)
		if ft == nil {
			return fmt.Errorf("unknown field %q", key)
		}
		if err := checkJSONKeys(dec, ft); err != nil {
			return err
		}
	}
	_, err = dec.Token()
	return err
}

// jsonField returns the type a JSON object key decodes into: a map's
// element type, or the type of the struct field whose json tag is
// exactly key (nil when there is none).
func jsonField(t reflect.Type, key string) reflect.Type {
	if t.Kind() == reflect.Map {
		return t.Elem()
	}
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); f.IsExported() && name == key {
			return f.Type
		}
	}
	return nil
}

// skipJSON consumes the rest of an array or object whose opening
// delimiter dec has just returned.
func skipJSON(dec *json.Decoder) error {
	for depth := 1; depth > 0; {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('['), json.Delim('{'):
			depth++
		case json.Delim(']'), json.Delim('}'):
			depth--
		}
	}
	return nil
}

// ParseRoster converts the JSON peer map (node index as string →
// public identity) into a Roster. thetakeygen embeds this same shape
// into keyring.json, so the manifest and the standalone roster file
// parse through one code path.
func ParseRoster(peers map[string]PublicJSON) (Roster, error) {
	r := make(Roster, len(peers))
	for key, pj := range peers {
		// Only the canonical decimal spelling is a node index, so two
		// spellings of one node cannot collapse into one entry.
		node, err := strconv.Atoi(key)
		if err != nil || node < 1 || strconv.Itoa(node) != key {
			return nil, fmt.Errorf("identity: bad roster node index %q", key)
		}
		p, err := UnmarshalPublic(pj)
		if err != nil {
			return nil, fmt.Errorf("identity: roster node %d: %w", node, err)
		}
		r[node] = p
	}
	return r, nil
}

// MarshalRoster converts a Roster into the JSON peer map shape used by
// roster files and keyring.json.
func MarshalRoster(r Roster) map[string]PublicJSON {
	peers := make(map[string]PublicJSON, len(r))
	for i, p := range r {
		peers[fmt.Sprint(i)] = MarshalPublic(p)
	}
	return peers
}
