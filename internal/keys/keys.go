// Package keys implements the key layer of Thetacrypt: a keystore of
// named keys addressed by (scheme, key ID), the trusted dealer that
// populates it offline, and the lookup surface the protocol executor
// uses to resolve the share material of a request (the paper's Section
// 3.5, orchestration module). Distributed key generation lives in
// internal/dkg and runs as a protocol instance (internal/protocols)
// that installs its result into the keystore at runtime — the paper's
// "threshold cryptography on-demand".
package keys

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"thetacrypt/internal/atomicfile"
	"thetacrypt/internal/group"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/sh00"
	"thetacrypt/internal/share"
)

// DefaultKeyID names the key a request without an explicit key ID
// resolves to. The dealer assigns it to every key it deals unless told
// otherwise.
const DefaultKeyID = "default"

// MaxKeyIDLen bounds key identifiers.
const MaxKeyIDLen = 64

// maxParties bounds the deployment size N of a store, and so the n of
// every key in it. The dealer refuses larger deployments and a key
// file declaring one does not load, which keeps the cost of decoding a
// hostile file, SH00's n! among it, small.
const maxParties = 4096

// Typed keystore errors; the service layer maps them onto the
// structured error model (key_unknown 404, key_exists 409, key_epoch
// and key_no_share 409).
var (
	ErrKeyUnknown = errors.New("keys: unknown key")
	ErrKeyExists  = errors.New("keys: key already exists")
	ErrKeyID      = errors.New("keys: invalid key id")
	// ErrKeyEpoch reports an epoch mismatch: a request pinned to an
	// epoch other than the key's current one, or a Replace that does
	// not advance the epoch.
	ErrKeyEpoch = errors.New("keys: key epoch mismatch")
	// ErrKeyNoShare reports an operation that needs share material on
	// a node that only holds the key's public half (it was left out of
	// the committee by a membership-changing reshare).
	ErrKeyNoShare = errors.New("keys: node holds no share for key")
	// ErrKeyShare reports a discrete-log key (SG02, KG20, CKS05) whose
	// share does not match the share's own verification key.
	ErrKeyShare = errors.New("keys: share does not match its verification key")
)

// FirstEpoch is the epoch of freshly dealt or DKG-generated keys.
// Epoch 0 is left to keys that a v3 or v4 key file already carries at
// epoch 0 (written by a release that imported pre-epoch files), so such
// a key and a fresh dealing are distinguishable; each reshare advances
// the epoch by one.
const FirstEpoch = 1

// ValidKeyID reports whether id is a well-formed key identifier:
// 1..MaxKeyIDLen characters from [a-zA-Z0-9._-].
func ValidKeyID(id string) bool {
	if len(id) == 0 || len(id) > MaxKeyIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// Key is one named key of the keystore: the public material shared by
// all nodes and this node's private share. The discrete-log schemes
// (SG02, KG20, CKS05) hold the one *share.PublicKey and share.Share;
// BZ03 and BLS04 hold their own public key with a share.Share, and SH00
// its own public key and key share. Group labels the arithmetic
// structure for listings.
type Key struct {
	ID     string
	Scheme schemes.ID
	Group  string
	Public any
	Share  any
	// Epoch versions the share material: FirstEpoch at dealing/DKG
	// time, +1 per reshare, 0 for a key a v3 or v4 file carries at 0.
	// Shares of different epochs never combine — a reshare replaces
	// the sharing polynomial.
	Epoch int
	// Members maps committee share indices to mesh node indices:
	// Members[j-1] is the node holding share j. Nil means the identity
	// committee 1..n (every dealt or DKG-generated key). A
	// membership-changing reshare installs an explicit committee.
	Members []int
	// Share is nil on nodes outside the committee: they keep the
	// public half (to serve Encrypt and to receive future reshares)
	// but cannot contribute to quorums.
}

// Info is the listable description of one key (no share material).
type Info struct {
	Scheme  schemes.ID
	ID      string
	Group   string
	Default bool
	// Public is the marshaled public key, so clients can compare the
	// key material served by different nodes.
	Public []byte
	// Epoch, T, N and Members mirror the lifecycle state of the key
	// (see Key); Members is nil for the identity committee.
	Epoch   int
	T, N    int
	Members []int
}

// Params returns the key's own threshold parameters (t, n). After a
// membership-changing reshare these can differ from the keystore's
// deployment-wide Index/N/T header.
func (k *Key) Params() (t, n int) {
	switch pk := k.Public.(type) {
	case *share.PublicKey:
		return pk.T, pk.N
	case *bz03.PublicKey:
		return pk.T, pk.N
	case *sh00.PublicKey:
		return pk.T, pk.NParties
	case *bls04.PublicKey:
		return pk.T, pk.N
	default:
		return 0, 0
	}
}

// MemberIndex returns the committee share index (1-based) held by mesh
// node `node` under this key, or 0 when the node is not a member.
func (k *Key) MemberIndex(node int) int {
	if k.Members == nil {
		if _, n := k.Params(); node >= 1 && node <= n {
			return node
		}
		return 0
	}
	for j, m := range k.Members {
		if m == node {
			return j + 1
		}
	}
	return 0
}

// keyRef addresses one key: IDs are namespaced per scheme.
type keyRef struct {
	scheme schemes.ID
	id     string
}

// Keystore is one node's complete key material: any number of named
// keys per scheme, addressed by (scheme, key ID). It is safe for
// concurrent use — the protocol executor reads while a DKG instance
// installs new keys.
type Keystore struct {
	// Index is this node's 1-based party index; N and T are the
	// deployment size and corruption threshold. All keys of a store
	// share them.
	Index int
	N, T  int

	mu    sync.RWMutex
	order []*Key
	byRef map[keyRef]*Key

	// persistMu serializes installs and Save, so the log's frame order
	// is the install order; it is always taken before mu, never under
	// it. While the file at persistPath is known to be this store's
	// log, frames counts its frames, size its bytes, and live maps each
	// key to the body of its last frame, which a Replace of the key
	// zeroes. frames is -1 otherwise: after SetPersistPath, and after a
	// failed write that may have left a partial frame. The next install
	// then writes a snapshot.
	persistMu   sync.Mutex
	persistPath string
	frames      int
	size        int
	live        map[keyRef]span
}

// span is the byte range [from, to) of the key file.
type span struct{ from, to int }

// NewKeystore creates an empty keystore for party index of an (t, n)
// deployment.
func NewKeystore(index, t, n int) *Keystore {
	return &Keystore{Index: index, N: n, T: t, byRef: make(map[keyRef]*Key), frames: -1}
}

// SetPersistPath makes the keystore durable: every successful Add or
// Replace appends one frame holding the installed key to path and
// fsyncs it before returning, so DKG and reshare results survive a
// node restart. A Replace then zeroes the body of the key's previous
// frame, share included, and fsyncs that too. The file is rewritten
// whole (Save) only for the first install after SetPersistPath and
// when the log holds more than twice as many frames as live keys. The
// empty path (the default) disables persistence.
func (ks *Keystore) SetPersistPath(path string) {
	ks.persistMu.Lock()
	ks.persistPath = path
	ks.frames, ks.live = -1, nil
	ks.persistMu.Unlock()
}

// Save writes the store to the persist path now as a compacted
// snapshot, one frame per key, with an atomic
// write-temp-fsync-rename (a no-op without a path). Call it once after
// SetPersistPath to verify the file is writable before serving
// traffic; it also drops a torn final frame left by a crash, and any
// superseded frame.
func (ks *Keystore) Save() error {
	ks.persistMu.Lock()
	defer ks.persistMu.Unlock()
	if ks.persistPath == "" {
		return nil
	}
	return ks.saveLocked()
}

// saveLocked writes the snapshot; persistMu, held, keeps installs out
// while it is written. When the write fails the old file stands.
func (ks *Keystore) saveLocked() error {
	live := make(map[keyRef]span, ks.Len())
	data := ks.marshal(live)
	if err := atomicfile.WriteFile(ks.persistPath, data, 0o600); err != nil {
		return fmt.Errorf("keys: persist keystore: %w", err)
	}
	ks.frames, ks.size, ks.live = len(live), len(data), live
	return nil
}

// Add installs a key. The (scheme, ID) pair must be unused
// (ErrKeyExists) and the ID well-formed (ErrKeyID). Group is derived
// from the public material when empty.
func (ks *Keystore) Add(k *Key) error { return ks.install(k, false) }

// Replace swaps an existing key for its next-epoch version, the
// install step of a finalized reshare. The key must already exist and
// the replacement's epoch must be strictly greater than the current
// one (ErrKeyEpoch otherwise), so a stale or replayed reshare result
// can never roll a key back. Like Add, it refuses a share that does
// not match its verification key (ErrKeyShare).
func (ks *Keystore) Replace(k *Key) error { return ks.install(k, true) }

// install checks k, makes it visible, and then makes it durable. It
// holds persistMu throughout, so the log's frames follow the install
// order and a concurrent Save neither misses the key nor writes it
// twice. When the write fails the install is undone, so a node does not
// go on serving a key it would lose at restart. A Replace then erases
// the superseded frame's body; an error from that step leaves k
// installed, since its own frame is already durable.
func (ks *Keystore) install(k *Key, replace bool) error {
	if !ValidKeyID(k.ID) {
		return fmt.Errorf("%w %q", ErrKeyID, k.ID)
	}
	if !replace {
		if _, err := schemes.Lookup(k.Scheme); err != nil {
			return err
		}
	}
	if err := share.ValidateParams(k.Params()); err != nil {
		return fmt.Errorf("keys: %s/%s: %w", k.Scheme, k.ID, err)
	}
	if err := checkShare(k); err != nil {
		return err
	}
	if k.Group == "" {
		k.Group = deriveGroup(k)
	}
	ref := keyRef{scheme: k.Scheme, id: k.ID}
	ks.persistMu.Lock()
	defer ks.persistMu.Unlock()
	ks.mu.Lock()
	old, ok := ks.byRef[ref]
	switch {
	case !replace && ok:
		ks.mu.Unlock()
		return fmt.Errorf("%w: %s/%s", ErrKeyExists, k.Scheme, k.ID)
	case replace && !ok:
		ks.mu.Unlock()
		return fmt.Errorf("%w: %s/%s on node %d", ErrKeyUnknown, k.Scheme, k.ID, ks.Index)
	case replace && k.Epoch <= old.Epoch:
		ks.mu.Unlock()
		return fmt.Errorf("%w: replacement epoch %d does not advance current %d for %s/%s",
			ErrKeyEpoch, k.Epoch, old.Epoch, k.Scheme, k.ID)
	}
	ks.swap(ref, old, k)
	ks.mu.Unlock()
	superseded, err := ks.log(ref, k)
	if err != nil {
		ks.mu.Lock()
		ks.swap(ref, k, old)
		ks.mu.Unlock()
		return err
	}
	return ks.erase(superseded)
}

// swap puts next where cur is: it adds next when cur is nil and
// removes cur (the last key added) when next is nil. Called with mu
// held.
func (ks *Keystore) swap(ref keyRef, cur, next *Key) {
	switch {
	case cur == nil:
		ks.byRef[ref] = next
		ks.order = append(ks.order, next)
	case next == nil:
		delete(ks.byRef, ref)
		ks.order = ks.order[:len(ks.order)-1]
	default:
		ks.byRef[ref] = next
		for i := range ks.order {
			if ks.order[i] == cur {
				ks.order[i] = next
				break
			}
		}
	}
}

// log makes the install of k durable: one frame appended to the log,
// or a snapshot of the store, k included, when the file is not known
// to be this store's log, was changed behind it, or would hold more
// than twice as many frames as live keys. The fixed factor bounds the
// file at twice the live store under proactive refresh and keeps the
// amortized cost of an install O(1). It returns where the body of the
// frame that k supersedes lies, for erase; a snapshot holds no such
// frame. Called with persistMu held.
func (ks *Keystore) log(ref keyRef, k *Key) (span, error) {
	if ks.persistPath == "" {
		return span{}, nil
	}
	if ks.frames < 0 || ks.frames >= 2*ks.Len() {
		return span{}, ks.saveLocked()
	}
	frame := appendFrame(nil, k)
	switch err := appendFile(ks.persistPath, ks.size, frame); {
	case errors.Is(err, errLogChanged):
		return span{}, ks.saveLocked()
	case err != nil:
		ks.frames = -1
		return span{}, fmt.Errorf("keys: append to keystore: %w", err)
	}
	superseded := ks.live[ref]
	ks.live[ref] = span{from: ks.size + bodyOffset(frame), to: ks.size + len(frame)}
	ks.frames++
	ks.size += len(frame)
	return superseded, nil
}

// errLogChanged reports a key file whose length is not the log's: it
// was changed behind the store, so the offsets the store keeps for
// erase no longer hold.
var errLogChanged = errors.New("keys: key file changed behind the keystore")

// appendFile writes data at the end of the log at path and fsyncs it.
// The file must still be size bytes long (errLogChanged otherwise, and
// nothing is written). The directory entry does not change, so the
// directory needs no fsync.
func appendFile(path string, size int, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != int64(size) {
		err = errLogChanged
	}
	if err == nil {
		_, err = f.Write(data)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// erase zeroes the superseded frame body at s, share value and CRC
// included, and fsyncs it, so that a Replace leaves no old share in
// the key file. Replay never reads a superseded body, so a crash
// part-way through is harmless. If the write fails, the next install
// writes a snapshot, which holds no superseded frame. Called with
// persistMu held.
func (ks *Keystore) erase(s span) error {
	if s.to == 0 {
		return nil
	}
	f, err := os.OpenFile(ks.persistPath, os.O_WRONLY, 0)
	if err == nil {
		_, err = f.WriteAt(make([]byte, s.to-s.from), int64(s.from))
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		ks.frames = -1
		return fmt.Errorf("keys: erase superseded share: %w", err)
	}
	return nil
}

// Get resolves a key by scheme and ID; the empty ID selects
// DefaultKeyID. A missing key reports ErrKeyUnknown.
func (ks *Keystore) Get(scheme schemes.ID, id string) (*Key, error) {
	if id == "" {
		id = DefaultKeyID
	}
	ks.mu.RLock()
	k, ok := ks.byRef[keyRef{scheme: scheme, id: id}]
	ks.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s on node %d", ErrKeyUnknown, scheme, id, ks.Index)
	}
	return k, nil
}

// Has reports whether any key for the scheme is present.
func (ks *Keystore) Has(scheme schemes.ID) bool {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	for _, k := range ks.order {
		if k.Scheme == scheme {
			return true
		}
	}
	return false
}

// Len reports the number of keys held.
func (ks *Keystore) Len() int {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	return len(ks.order)
}

// Schemes lists the schemes with at least one key, in registry order.
func (ks *Keystore) Schemes() []schemes.ID {
	var out []schemes.ID
	for _, id := range schemes.All() {
		if ks.Has(id) {
			out = append(out, id)
		}
	}
	return out
}

// List snapshots the keystore's contents in a deterministic order
// (registry order, then key ID), without share material.
func (ks *Keystore) List() []Info {
	ks.mu.RLock()
	out := make([]Info, 0, len(ks.order))
	for _, k := range ks.order {
		t, n := k.Params()
		out = append(out, Info{
			Scheme:  k.Scheme,
			ID:      k.ID,
			Group:   k.Group,
			Default: k.ID == DefaultKeyID,
			Public:  k.PublicBytes(),
			Epoch:   k.Epoch,
			T:       t,
			N:       n,
			Members: append([]int(nil), k.Members...),
		})
	}
	ks.mu.RUnlock()
	pos := make(map[schemes.ID]int, len(schemes.All()))
	for i, id := range schemes.All() {
		pos[id] = i
	}
	sort.Slice(out, func(i, j int) bool {
		if pos[out[i].Scheme] != pos[out[j].Scheme] {
			return pos[out[i].Scheme] < pos[out[j].Scheme]
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Public resolves a key and returns its public material typed; the
// empty ID selects the default key.
func Public[P any](ks *Keystore, scheme schemes.ID, id string) (P, error) {
	var zero P
	k, err := ks.Get(scheme, id)
	if err != nil {
		return zero, err
	}
	p, ok := k.Public.(P)
	if !ok {
		return zero, fmt.Errorf("keys: %s/%s public material is %T", scheme, k.ID, k.Public)
	}
	return p, nil
}

// ShareOf resolves a key and returns this node's private share typed;
// the empty ID selects the default key.
func ShareOf[S any](ks *Keystore, scheme schemes.ID, id string) (S, error) {
	var zero S
	k, err := ks.Get(scheme, id)
	if err != nil {
		return zero, err
	}
	if k.Share == nil {
		return zero, fmt.Errorf("%w: %s/%s on node %d", ErrKeyNoShare, scheme, k.ID, ks.Index)
	}
	s, ok := k.Share.(S)
	if !ok {
		return zero, fmt.Errorf("keys: %s/%s share material is %T", scheme, k.ID, k.Share)
	}
	return s, nil
}

// MustPublic is Public for the default key, panicking when absent —
// for tests and benchmarks on freshly dealt stores.
func MustPublic[P any](ks *Keystore, scheme schemes.ID) P {
	p, err := Public[P](ks, scheme, DefaultKeyID)
	if err != nil {
		panic(err)
	}
	return p
}

// MustShare is ShareOf for the default key, panicking when absent.
func MustShare[S any](ks *Keystore, scheme schemes.ID) S {
	s, err := ShareOf[S](ks, scheme, DefaultKeyID)
	if err != nil {
		panic(err)
	}
	return s
}

// checkShare refuses a discrete-log key (SG02, KG20, CKS05) whose
// share x_i does not match its verification key: x_i·G must equal
// VK[i-1]. The protocols never check the share a node makes itself,
// and a CKS05 coin does not verify its output, so this install-time
// check, one fixed-base multiplication per key, is what keeps a
// corrupt local share from reaching a request. Every dealt, generated,
// reshared and loaded key comes through it. Public-only keys pass.
func checkShare(k *Key) error {
	pk, ok := k.Public.(*share.PublicKey)
	if !ok || k.Share == nil {
		return nil
	}
	idx, x := shareRef(k)
	if x == nil || idx < 1 || idx > len(pk.VK) || !pk.Group.BaseMul(x).Equal(pk.VK[idx-1]) {
		return fmt.Errorf("%w: %s/%s share %d", ErrKeyShare, k.Scheme, k.ID, idx)
	}
	return nil
}

// deriveGroup labels a key's arithmetic structure from its public
// material.
func deriveGroup(k *Key) string {
	switch pk := k.Public.(type) {
	case *share.PublicKey:
		return pk.Group.Name()
	case *bz03.PublicKey, *bls04.PublicKey:
		return "bn254"
	case *sh00.PublicKey:
		return fmt.Sprintf("rsa-%d", pk.N.BitLen())
	default:
		return ""
	}
}

// SupportsDKG reports whether the scheme's key is the discrete-log key
// (share.PublicKey): runtime key generation (internal/dkg, Pedersen
// JF-DKG over a DL group) produces it, and proactive refresh and
// membership change (the internal/share reshare primitives) renew it.
// The RSA scheme (SH00) and the pairing-based schemes (BZ03, BLS04)
// need dealer- or scheme-specific setups and keep dealer-fixed shares.
func SupportsDKG(scheme schemes.ID) bool {
	switch scheme {
	case schemes.SG02, schemes.KG20, schemes.CKS05:
		return true
	default:
		return false
	}
}

// Options configures the dealer.
type Options struct {
	// Group is the DL group for SG02, KG20, CKS05 (default edwards25519,
	// per Table 3).
	Group group.Group
	// RSABits is the SH00 modulus size (default 2048, per Table 3).
	RSABits int
	// UseRSAFixture selects the embedded deterministic safe primes
	// instead of minutes-long fresh generation; intended for tests and
	// benchmarks.
	UseRSAFixture bool
	// Schemes limits dealing to a subset; empty means all six.
	Schemes []schemes.ID
	// KeyID names the dealt keys (default DefaultKeyID).
	KeyID string
}

func (o *Options) fill() {
	if o.Group == nil {
		o.Group = group.Edwards25519()
	}
	if o.RSABits == 0 {
		o.RSABits = 2048
	}
	if len(o.Schemes) == 0 {
		o.Schemes = schemes.All()
	}
	if o.KeyID == "" {
		o.KeyID = DefaultKeyID
	}
}

// Deal runs the trusted-dealer setup for all requested schemes and
// returns one keystore per party, each holding one named key per
// scheme.
func Deal(rand io.Reader, t, n int, opts Options) ([]*Keystore, error) {
	opts.fill()
	if n > maxParties {
		return nil, fmt.Errorf("keys: %d parties, more than %d", n, maxParties)
	}
	if !ValidKeyID(opts.KeyID) {
		return nil, fmt.Errorf("%w %q", ErrKeyID, opts.KeyID)
	}
	stores := make([]*Keystore, n)
	for i := range stores {
		stores[i] = NewKeystore(i+1, t, n)
	}
	add := func(scheme schemes.ID, pub func(i int) any, shr func(i int) any) error {
		for i, ks := range stores {
			if err := ks.Add(&Key{ID: opts.KeyID, Scheme: scheme, Epoch: FirstEpoch, Public: pub(i), Share: shr(i)}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, id := range opts.Schemes {
		switch id {
		case schemes.SG02, schemes.KG20, schemes.CKS05:
			pk, kss, err := share.Deal(rand, opts.Group, t, n)
			if err != nil {
				return nil, fmt.Errorf("deal %s: %w", id, err)
			}
			if err := add(id, func(int) any { return pk }, func(i int) any { return kss[i] }); err != nil {
				return nil, err
			}
		case schemes.BZ03:
			pk, kss, err := bz03.Deal(rand, t, n)
			if err != nil {
				return nil, fmt.Errorf("deal bz03: %w", err)
			}
			if err := add(id, func(int) any { return pk }, func(i int) any { return kss[i] }); err != nil {
				return nil, err
			}
		case schemes.SH00:
			var (
				pk  *sh00.PublicKey
				kss []sh00.KeyShare
				err error
			)
			if opts.UseRSAFixture {
				pk, kss, err = sh00.FixedTestKey(rand, opts.RSABits, t, n)
			} else {
				pk, kss, err = sh00.GenerateKey(rand, opts.RSABits, t, n)
			}
			if err != nil {
				return nil, fmt.Errorf("deal sh00: %w", err)
			}
			if err := add(id, func(int) any { return pk }, func(i int) any { return kss[i] }); err != nil {
				return nil, err
			}
		case schemes.BLS04:
			pk, kss, err := bls04.Deal(rand, t, n)
			if err != nil {
				return nil, fmt.Errorf("deal bls04: %w", err)
			}
			if err := add(id, func(int) any { return pk }, func(i int) any { return kss[i] }); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("keys: unknown scheme %q", id)
		}
	}
	return stores, nil
}
