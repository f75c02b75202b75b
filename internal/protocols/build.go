package protocols

import (
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
// without counting and cannot deal.
type Env struct {
	Verifier *precompute.Verifier
	// Identity and Roster carry the node's transport identity key and
	// the deployment's peer roster into the dealing protocol (keygen
	// and reshare), which seals each sub-share box to its recipient's
	// identity key. A keygen or reshare without them fails when its
	// instance is created.
	Identity *identity.Key
	Roster   identity.Roster
}

// New instantiates the TRI protocol for a request, resolving the share
// material by (scheme, key ID) in the node's keystore. It is the
// factory the orchestration executor calls for every new instance,
// threading the engine environment into it. A missing key surfaces as
// keys.ErrKeyUnknown (the service layer's key_unknown), a pinned epoch
// that is not the key's current one as keys.ErrKeyEpoch, and an
// operation needing share material on a node outside the key's
// committee as keys.ErrKeyNoShare. OpKeyGen requests build the DKG
// protocol instead of a lookup; OpReshare builds the resharing protocol
// on every node holding at least the public half. When the key's
// committee is not the identity mapping, the protocol is wrapped so
// mesh sender indices translate to committee share indices before the
// scheme sees them.
func New(rand io.Reader, store *keys.Keystore, req Request, env Env) (Protocol, error) {
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
// request from resolved key material: each scheme's case hands the
// share quorum its functions and its fixed check policy. The ciphers
// check each peer share on arrival because AES-GCM does not commit to
// its key: a ciphertext can be made to open under a wrong key, so a
// combine that succeeds does not vouch for its shares. CKS05 checks on
// arrival because its combine verifies nothing, and SH00 keeps the
// per-share checks it always had. BLS04 and KG20 check the combined
// signature once and check shares one by one only if that fails.
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
		// ctValid records that ct passed VerifyCiphertext on this node —
		// DecryptShare checks it before it makes the share — so the
		// combine reuses the verdict instead of checking it twice.
		ctValid := false
		return &singleRound[*sg02.DecShare]{rand: rand,
			create: func(r io.Reader) (*sg02.DecShare, error) {
				ds, err := sg02.DecryptShare(r, pk, ks, ct)
				ctValid = err == nil
				return ds, err
			},
			q: &quorum[*sg02.DecShare]{need: pk.T + 1, own: ks.Index,
				decode: func(b []byte) (*sg02.DecShare, error) { return sg02.UnmarshalDecShare(pk.Group, b) },
				index:  func(ds *sg02.DecShare) int { return ds.Index },
				check: func(ds *sg02.DecShare) error {
					// The DLEQ proof's point equations, counted by the
					// engine's verifier.
					rels, err := sg02.ShareRelations(pk, ct, ds)
					if err != nil {
						return err
					}
					if env.Verifier.Verify(pk.Group, rels) != nil {
						return sg02.ErrInvalidShare
					}
					return nil
				},
				combine: func(dss []*sg02.DecShare) ([]byte, error) {
					if ctValid {
						return sg02.CombineVerified(pk, ct, dss)
					}
					return sg02.Combine(pk, ct, dss)
				},
			}}, nil

	case req.Scheme == schemes.BZ03 && req.Op == OpDecrypt:
		pk, ks, err := material[*bz03.PublicKey, bz03.KeyShare](k)
		if err != nil {
			return nil, err
		}
		ct, err := bz03.UnmarshalCiphertext(req.Payload)
		if err != nil {
			return nil, fmt.Errorf("protocols: %w", err)
		}
		return &singleRound[*bz03.DecShare]{rand: rand,
			create: func(io.Reader) (*bz03.DecShare, error) { return bz03.DecryptShare(pk, ks, ct) },
			q: &quorum[*bz03.DecShare]{need: pk.T + 1, own: ks.Index,
				decode:  bz03.UnmarshalDecShare,
				index:   func(ds *bz03.DecShare) int { return ds.Index },
				check:   func(ds *bz03.DecShare) error { return bz03.VerifyShare(pk, ct, ds) },
				combine: func(dss []*bz03.DecShare) ([]byte, error) { return bz03.Combine(pk, ct, dss) },
			}}, nil

	case req.Scheme == schemes.SH00 && req.Op == OpSign:
		pk, ks, err := material[*sh00.PublicKey, sh00.KeyShare](k)
		if err != nil {
			return nil, err
		}
		return &singleRound[*sh00.SigShare]{rand: rand,
			create: func(r io.Reader) (*sh00.SigShare, error) { return sh00.SignShare(r, pk, ks, req.Payload) },
			q: &quorum[*sh00.SigShare]{need: pk.T + 1, own: ks.Index,
				decode: sh00.UnmarshalSigShare,
				index:  func(ss *sh00.SigShare) int { return ss.Index },
				check:  func(ss *sh00.SigShare) error { return sh00.VerifyShare(pk, req.Payload, ss) },
				combine: func(sss []*sh00.SigShare) ([]byte, error) {
					sig, err := sh00.Combine(pk, req.Payload, sss)
					if err != nil {
						return nil, err
					}
					return sig.Marshal(), nil
				},
			}}, nil

	case req.Scheme == schemes.BLS04 && req.Op == OpSign:
		pk, ks, err := material[*bls04.PublicKey, bls04.KeyShare](k)
		if err != nil {
			return nil, err
		}
		return &singleRound[*bls04.SigShare]{rand: rand,
			create: func(io.Reader) (*bls04.SigShare, error) { return bls04.SignShare(ks, req.Payload), nil },
			q: &quorum[*bls04.SigShare]{need: pk.T + 1, own: ks.Index, lazy: true,
				decode: func(b []byte) (*bls04.SigShare, error) {
					ss, err := bls04.UnmarshalSigShare(b)
					if err == nil && (ss.Index < 1 || ss.Index > pk.N) {
						err = bls04.ErrInvalidShare
					}
					return ss, err
				},
				index: func(ss *bls04.SigShare) int { return ss.Index },
				check: func(ss *bls04.SigShare) error { return bls04.VerifyShare(pk, req.Payload, ss) },
				// Combine ends in the pairing check of the signature.
				combine: func(sss []*bls04.SigShare) ([]byte, error) {
					sig, err := bls04.Combine(pk, req.Payload, sss)
					if err != nil {
						return nil, err
					}
					return sig.Marshal(), nil
				},
			}}, nil

	case req.Scheme == schemes.CKS05 && req.Op == OpCoin:
		pk, ks, err := material[*cks05.PublicKey, cks05.KeyShare](k)
		if err != nil {
			return nil, err
		}
		return &singleRound[*cks05.CoinShare]{rand: rand,
			create: func(r io.Reader) (*cks05.CoinShare, error) { return cks05.Share(r, pk, ks, req.Payload) },
			q: &quorum[*cks05.CoinShare]{need: pk.T + 1, own: ks.Index,
				decode: func(b []byte) (*cks05.CoinShare, error) { return cks05.UnmarshalCoinShare(pk.Group, b) },
				index:  func(cs *cks05.CoinShare) int { return cs.Index },
				check: func(cs *cks05.CoinShare) error {
					rels, err := cks05.ShareRelations(pk, req.Payload, cs)
					if err != nil {
						return err
					}
					if env.Verifier.Verify(pk.Group, rels) != nil {
						return cks05.ErrInvalidShare
					}
					return nil
				},
				combine: func(css []*cks05.CoinShare) ([]byte, error) { return cks05.Combine(pk, req.Payload, css) },
			}}, nil

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
// indices before the wrapped protocol sees them. The share quorum
// checks that a share's index equals its sender, which
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
