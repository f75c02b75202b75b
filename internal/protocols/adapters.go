package protocols

import (
	"errors"
	"fmt"
	"io"

	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/precompute"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/bls04"
	"thetacrypt/internal/schemes/bz03"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
	"thetacrypt/internal/schemes/sh00"
)

// Env carries the engine-owned cross-instance facilities into a
// protocol instance: the counting verifier that checks each SG02 and
// CKS05 peer share directly (a node's own share is never checked) and
// the dealing protocol's identity material. The zero Env checks
// without counting and seals nothing; New uses it.
type Env struct {
	Verifier *precompute.Verifier
	// Identity and Roster carry the node's transport identity key and
	// the deployment's peer roster into the dealing protocol (keygen
	// and reshare): when present, each sub-share box is sealed to its
	// recipient's identity key; with nil Identity a box carries the
	// bare sub-share. All nodes of a deployment must agree, since a
	// node opens only the box encoding it produces itself.
	Identity *identity.Key
	Roster   identity.Roster
}

// New instantiates the TRI protocol for a request, resolving the share
// material by (scheme, key ID) in the node's keystore. It is the
// factory the orchestration executor calls for every new instance. A
// missing key surfaces as keys.ErrKeyUnknown (the service layer's
// key_unknown), a pinned epoch that is not the key's current one as
// keys.ErrKeyEpoch, and an operation needing share material on a node
// outside the key's committee as keys.ErrKeyNoShare. OpKeyGen requests
// build the DKG protocol instead of a lookup; OpReshare builds the
// resharing protocol on every node holding at least the public half.
// When the key's committee is not the identity mapping, the protocol
// is wrapped so mesh sender indices translate to committee share
// indices before the scheme sees them.
func New(rand io.Reader, store *keys.Keystore, req Request) (Protocol, error) {
	return NewWith(rand, store, req, Env{})
}

// NewWith is New threading the engine environment into the instance:
// the verifier counts the direct checks SG02 and CKS05 run on their
// peers' shares (BLS04 and KG20 check their combined signature instead,
// and no scheme checks the share a node made itself), and the identity
// material seals the dealing protocol's boxes.
func NewWith(rand io.Reader, store *keys.Keystore, req Request, env Env) (Protocol, error) {
	if req.Op == OpKeyGen {
		return newKeygen(rand, store, req, env)
	}
	k, err := checkedKey(store, req)
	if err != nil {
		return nil, err
	}
	if req.Op == OpReshare {
		// Reshares translate senders themselves (dealers are OLD
		// members; the wrapper maps to the new committee).
		return newReshare(rand, store, k, req, env)
	}
	if k.Share == nil {
		return nil, fmt.Errorf("protocols: %w: %s/%s on node %d",
			keys.ErrKeyNoShare, req.Scheme, k.ID, store.Index)
	}
	p, err := buildOp(rand, k, req, env)
	if err != nil {
		return nil, err
	}
	return mapSenders(p, k), nil
}

// buildOp constructs the scheme protocol for a sign/decrypt/coin
// request from resolved key material.
func buildOp(rand io.Reader, k *keys.Key, req Request, env Env) (Protocol, error) {
	switch {
	case req.Scheme == schemes.SG02 && req.Op == OpDecrypt:
		pk, ks, err := material[*sg02.PublicKey, sg02.KeyShare](k)
		if err != nil {
			return nil, err
		}
		ct, err := sg02.UnmarshalCiphertext(pk.Group, req.Payload)
		if err != nil {
			return nil, fmt.Errorf("protocols: %w", err)
		}
		return newNonInteractive(rand, &sg02Adapter{pk: pk, ks: ks, ct: ct,
			check: env.Verifier, shares: make(map[int]*sg02.DecShare)}), nil

	case req.Scheme == schemes.BZ03 && req.Op == OpDecrypt:
		pk, ks, err := material[*bz03.PublicKey, bz03.KeyShare](k)
		if err != nil {
			return nil, err
		}
		ct, err := bz03.UnmarshalCiphertext(req.Payload)
		if err != nil {
			return nil, fmt.Errorf("protocols: %w", err)
		}
		return newNonInteractive(rand, &bz03Adapter{pk: pk, ks: ks, ct: ct,
			shares: make(map[int]*bz03.DecShare)}), nil

	case req.Scheme == schemes.SH00 && req.Op == OpSign:
		pk, ks, err := material[*sh00.PublicKey, sh00.KeyShare](k)
		if err != nil {
			return nil, err
		}
		return newNonInteractive(rand, &sh00Adapter{pk: pk, ks: ks, msg: req.Payload,
			shares: make(map[int]*sh00.SigShare)}), nil

	case req.Scheme == schemes.BLS04 && req.Op == OpSign:
		pk, ks, err := material[*bls04.PublicKey, bls04.KeyShare](k)
		if err != nil {
			return nil, err
		}
		return newNonInteractive(rand, &bls04Adapter{pk: pk, ks: ks, msg: req.Payload,
			shares: make(map[int]*bls04.SigShare)}), nil

	case req.Scheme == schemes.CKS05 && req.Op == OpCoin:
		pk, ks, err := material[*cks05.PublicKey, cks05.KeyShare](k)
		if err != nil {
			return nil, err
		}
		return newNonInteractive(rand, &cks05Adapter{pk: pk, ks: ks, name: req.Payload,
			check: env.Verifier, shares: make(map[int]*cks05.CoinShare)}), nil

	case req.Scheme == schemes.KG20 && req.Op == OpSign:
		pk, ks, err := material[*frost.PublicKey, frost.KeyShare](k)
		if err != nil {
			return nil, err
		}
		return newFrost(rand, pk, ks, req.Payload), nil

	default:
		return nil, fmt.Errorf("protocols: scheme %q does not support operation %q", req.Scheme, req.Op)
	}
}

// checkedKey resolves the request's key and enforces the epoch pin:
// a request carrying Epoch > 0 must name the key's current epoch, so
// an old-epoch submission can never seed (or join) a new-epoch quorum.
// Reshares pin strictly — even epoch zero — because all participants
// of one instance must deal from the same sharing.
func checkedKey(store *keys.Keystore, req Request) (*keys.Key, error) {
	k, err := store.Get(req.Scheme, req.EffectiveKeyID())
	if err != nil {
		return nil, fmt.Errorf("protocols: %w", err)
	}
	if (req.Epoch > 0 || req.Op == OpReshare) && k.Epoch != req.Epoch {
		return nil, fmt.Errorf("protocols: %w: %s/%s is at epoch %d, request pinned to %d",
			keys.ErrKeyEpoch, req.Scheme, k.ID, k.Epoch, req.Epoch)
	}
	return k, nil
}

// material type-asserts a key's public and share halves (the
// executor's per-instance hot path).
func material[P any, S any](k *keys.Key) (P, S, error) {
	var (
		zeroP P
		zeroS S
	)
	p, ok := k.Public.(P)
	if !ok {
		return zeroP, zeroS, fmt.Errorf("protocols: key %s/%s public material is %T", k.Scheme, k.ID, k.Public)
	}
	s, ok := k.Share.(S)
	if !ok {
		return zeroP, zeroS, fmt.Errorf("protocols: key %s/%s share material is %T", k.Scheme, k.ID, k.Share)
	}
	return p, s, nil
}

// senderMapped translates mesh sender indices into committee share
// indices before the wrapped protocol sees them. The scheme adapters
// (and FROST) check that a share's index equals its sender, which
// holds for dealt keys where node i holds share i — after a
// membership-changing reshare the committee is an arbitrary node
// subset, and this wrapper restores the invariant without touching
// any scheme code.
type senderMapped struct {
	Protocol
	toShare map[int]int // mesh node index -> committee share index
}

func (p *senderMapped) Update(msg ProtocolMessage) error {
	idx, ok := p.toShare[msg.Sender]
	if !ok {
		return fmt.Errorf("%w: node %d is not a committee member", ErrShareRejected, msg.Sender)
	}
	msg.Sender = idx
	return p.Protocol.Update(msg)
}

// mapSenders wraps p when the key's committee departs from the
// identity mapping.
func mapSenders(p Protocol, k *keys.Key) Protocol {
	if k.Members == nil {
		return p
	}
	m := make(map[int]int, len(k.Members))
	for j, node := range k.Members {
		m[node] = j + 1
	}
	return &senderMapped{Protocol: p, toShare: m}
}

// sg02Adapter plugs the SG02 threshold cipher into the single-round
// protocol.
type sg02Adapter struct {
	pk     *sg02.PublicKey
	ks     sg02.KeyShare
	ct     *sg02.Ciphertext
	check  *precompute.Verifier
	shares map[int]*sg02.DecShare
	// ctValid records that ct passed VerifyCiphertext on this node —
	// DecryptShare checks it before it makes the share — so Combine
	// reuses the verdict instead of checking the same ciphertext twice.
	ctValid bool
}

func (a *sg02Adapter) CreateShare(rand io.Reader) ([]byte, error) {
	ds, err := sg02.DecryptShare(rand, a.pk, a.ks, a.ct)
	if err != nil {
		return nil, err
	}
	a.ctValid = true
	a.shares[ds.Index] = ds
	return ds.Marshal(), nil
}

func (a *sg02Adapter) OnShare(sender int, payload []byte) error {
	ds, err := sg02.UnmarshalDecShare(a.pk.Group, payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if ds.Index != sender {
		return fmt.Errorf("%w: share index %d from sender %d", ErrShareRejected, ds.Index, sender)
	}
	// After the structural checks, the DLEQ proof's point equations are
	// checked directly, once, and counted by the engine's verifier.
	rels, err := sg02.ShareRelations(a.pk, a.ct, ds)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if err := a.check.Verify(a.pk.Group, rels); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, sg02.ErrInvalidShare)
	}
	a.shares[ds.Index] = ds
	return nil
}

func (a *sg02Adapter) Ready() bool { return len(a.shares) >= a.pk.T+1 }

func (a *sg02Adapter) Combine() ([]byte, error) {
	dss := make([]*sg02.DecShare, 0, len(a.shares))
	for _, ds := range a.shares {
		dss = append(dss, ds)
	}
	if !a.ctValid {
		// A quorum of peer shares without a share of our own: the
		// ciphertext was never checked here.
		return sg02.Combine(a.pk, a.ct, dss)
	}
	return sg02.CombineVerified(a.pk, a.ct, dss)
}

// bz03Adapter plugs the BZ03 threshold cipher into the single-round
// protocol.
type bz03Adapter struct {
	pk     *bz03.PublicKey
	ks     bz03.KeyShare
	ct     *bz03.Ciphertext
	shares map[int]*bz03.DecShare
}

func (a *bz03Adapter) CreateShare(rand io.Reader) ([]byte, error) {
	ds, err := bz03.DecryptShare(a.pk, a.ks, a.ct)
	if err != nil {
		return nil, err
	}
	a.shares[ds.Index] = ds
	return ds.Marshal(), nil
}

func (a *bz03Adapter) OnShare(sender int, payload []byte) error {
	ds, err := bz03.UnmarshalDecShare(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if ds.Index != sender {
		return fmt.Errorf("%w: share index %d from sender %d", ErrShareRejected, ds.Index, sender)
	}
	if err := bz03.VerifyShare(a.pk, a.ct, ds); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	a.shares[ds.Index] = ds
	return nil
}

func (a *bz03Adapter) Ready() bool { return len(a.shares) >= a.pk.T+1 }

func (a *bz03Adapter) Combine() ([]byte, error) {
	dss := make([]*bz03.DecShare, 0, len(a.shares))
	for _, ds := range a.shares {
		dss = append(dss, ds)
	}
	return bz03.Combine(a.pk, a.ct, dss)
}

// sh00Adapter plugs the SH00 threshold RSA signature into the
// single-round protocol.
type sh00Adapter struct {
	pk     *sh00.PublicKey
	ks     sh00.KeyShare
	msg    []byte
	shares map[int]*sh00.SigShare
}

func (a *sh00Adapter) CreateShare(rand io.Reader) ([]byte, error) {
	ss, err := sh00.SignShare(rand, a.pk, a.ks, a.msg)
	if err != nil {
		return nil, err
	}
	a.shares[ss.Index] = ss
	return ss.Marshal(), nil
}

func (a *sh00Adapter) OnShare(sender int, payload []byte) error {
	ss, err := sh00.UnmarshalSigShare(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if ss.Index != sender {
		return fmt.Errorf("%w: share index %d from sender %d", ErrShareRejected, ss.Index, sender)
	}
	if err := sh00.VerifyShare(a.pk, a.msg, ss); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	a.shares[ss.Index] = ss
	return nil
}

func (a *sh00Adapter) Ready() bool { return len(a.shares) >= a.pk.T+1 }

func (a *sh00Adapter) Combine() ([]byte, error) {
	sss := make([]*sh00.SigShare, 0, len(a.shares))
	for _, ss := range a.shares {
		sss = append(sss, ss)
	}
	sig, err := sh00.Combine(a.pk, a.msg, sss)
	if err != nil {
		return nil, err
	}
	return sig.Marshal(), nil
}

// bls04Adapter plugs the BLS threshold signature into the single-round
// protocol. A BLS signature verifies itself, so shares are stored after
// the structural checks alone and the quorum is checked once, by the
// pairing check that Combine ends in. Only a failed combine checks
// shares one by one, to drop and name the bad ones.
type bls04Adapter struct {
	pk     *bls04.PublicKey
	ks     bls04.KeyShare
	msg    []byte
	shares map[int]*bls04.SigShare
	// verdicts holds the fallback's per-share checks, nil until a
	// combine first fails: true for a share found valid, which is not
	// checked again, and false for a rejected sender, whose later
	// shares are ignored, so each costs at most one check.
	verdicts map[int]bool
	sig      []byte // the verified signature, once a quorum combined
}

func (a *bls04Adapter) CreateShare(io.Reader) ([]byte, error) {
	ss := bls04.SignShare(a.ks, a.msg)
	a.shares[ss.Index] = ss
	if len(a.shares) > a.pk.T {
		// t = 0: the node's own share is a quorum.
		if err := a.combine(); err != nil {
			return nil, err
		}
	}
	return ss.Marshal(), nil
}

func (a *bls04Adapter) OnShare(sender int, payload []byte) error {
	if valid, judged := a.verdicts[sender]; a.sig != nil || judged && !valid {
		return nil
	}
	if _, dup := a.shares[sender]; dup {
		return nil
	}
	ss, err := bls04.UnmarshalSigShare(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if ss.Index != sender {
		return fmt.Errorf("%w: share index %d from sender %d", ErrShareRejected, ss.Index, sender)
	}
	if ss.Index < 1 || ss.Index > a.pk.N {
		return fmt.Errorf("%w: %v", ErrShareRejected, bls04.ErrInvalidShare)
	}
	a.shares[ss.Index] = ss
	if len(a.shares) <= a.pk.T {
		return nil
	}
	return a.combine()
}

// combine combines the stored quorum. When the signature fails its
// check, every unchecked share is checked: bad ones are dropped and
// returned as rejections, and the adapter waits for further shares.
func (a *bls04Adapter) combine() error {
	sss := make([]*bls04.SigShare, 0, len(a.shares))
	for _, ss := range a.shares {
		sss = append(sss, ss)
	}
	sig, err := bls04.Combine(a.pk, a.msg, sss)
	if err == nil {
		a.sig = sig.Marshal()
		return nil
	}
	if a.verdicts == nil {
		a.verdicts = make(map[int]bool)
	}
	var rejections []error
	for _, ss := range sss {
		if ss.Index == a.ks.Index || a.verdicts[ss.Index] {
			continue // made here by CreateShare, or checked before
		}
		verr := bls04.VerifyShare(a.pk, a.msg, ss)
		a.verdicts[ss.Index] = verr == nil
		if verr != nil {
			delete(a.shares, ss.Index)
			rejections = append(rejections, rejectShare(ss.Index, verr))
		}
	}
	if len(rejections) == 0 {
		// Every share checks out, so the node's own share must be bad.
		return fmt.Errorf("bls04: quorum of valid peer shares does not combine: %w", err)
	}
	return errors.Join(rejections...)
}

func (a *bls04Adapter) Ready() bool { return a.sig != nil }

func (a *bls04Adapter) Combine() ([]byte, error) { return a.sig, nil }

// cks05Adapter plugs the CKS05 coin into the single-round protocol.
type cks05Adapter struct {
	pk     *cks05.PublicKey
	ks     cks05.KeyShare
	name   []byte
	check  *precompute.Verifier
	shares map[int]*cks05.CoinShare
}

func (a *cks05Adapter) CreateShare(rand io.Reader) ([]byte, error) {
	cs, err := cks05.Share(rand, a.pk, a.ks, a.name)
	if err != nil {
		return nil, err
	}
	a.shares[cs.Index] = cs
	return cs.Marshal(), nil
}

func (a *cks05Adapter) OnShare(sender int, payload []byte) error {
	cs, err := cks05.UnmarshalCoinShare(a.pk.Group, payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if cs.Index != sender {
		return fmt.Errorf("%w: share index %d from sender %d", ErrShareRejected, cs.Index, sender)
	}
	rels, err := cks05.ShareRelations(a.pk, a.name, cs)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if err := a.check.Verify(a.pk.Group, rels); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, cks05.ErrInvalidShare)
	}
	a.shares[cs.Index] = cs
	return nil
}

func (a *cks05Adapter) Ready() bool { return len(a.shares) >= a.pk.T+1 }

func (a *cks05Adapter) Combine() ([]byte, error) {
	css := make([]*cks05.CoinShare, 0, len(a.shares))
	for _, cs := range a.shares {
		css = append(css, cs)
	}
	return cks05.Combine(a.pk, a.name, css)
}
