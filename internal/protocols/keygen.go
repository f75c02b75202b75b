package protocols

import (
	"errors"
	"fmt"
	"io"

	"thetacrypt/internal/dkg"
	"thetacrypt/internal/group"
	"thetacrypt/internal/keys"
	sharepkg "thetacrypt/internal/share"
)

// newKeygen builds the instance for an OpKeyGen request: Pedersen's
// JF-DKG (internal/dkg) run by the dealing protocol, which makes key
// generation an on-demand operation of the protocol API. All n nodes
// deal a fresh secret to all n nodes, every dealer's commitment must
// have degree t, and finalization sums the qualified dealings into the
// (t, n) key each node installs under the request's key ID. Fewer than
// t+1 qualified dealers abort the instance (dkg.ErrTooFewDealers). The
// instance result is the key ID, so clients learn the name of the key
// they created from the ordinary result path.
//
// The request payload names the DL group (empty = edwards25519).
func newKeygen(rand io.Reader, store *keys.Keystore, req Request, env Env) (Protocol, error) {
	if !keys.SupportsDKG(req.Scheme) {
		return nil, fmt.Errorf("%w: scheme %s is deal-only", ErrKeygenUnsupported, req.Scheme)
	}
	g := group.Edwards25519()
	if len(req.Payload) > 0 {
		var err error
		if g, err = group.ByName(string(req.Payload)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrKeygenUnsupported, err)
		}
	}
	if _, err := store.Get(req.Scheme, req.KeyID); err == nil {
		return nil, fmt.Errorf("%w: %s/%s", keys.ErrKeyExists, req.Scheme, req.KeyID)
	}
	t, n := store.T, store.N
	part, err := dkg.NewParticipant(g, store.Index, t, n)
	if err != nil {
		return nil, fmt.Errorf("protocols keygen: %w", err)
	}
	nodes := allNodes(n)
	return newDealing(rand, store.Index, n, req, env, dealingRole{
		kind:       "dkg",
		g:          g,
		dealers:    nodes,
		recipients: nodes,
		deal: func() (*sharepkg.FeldmanCommitment, []sharepkg.Share, error) {
			d, err := part.Deal(rand)
			if err != nil {
				return nil, nil, err
			}
			if TestFaultDealing != nil {
				TestFaultDealing(store.Index, d)
			}
			return d.Commitment, d.SubShares, nil
		},
		check: func(dealer int, com *sharepkg.FeldmanCommitment) error {
			if len(com.Points) != t+1 {
				return fmt.Errorf("dkg: dealer %d committed to degree %d, want %d", dealer, len(com.Points)-1, t)
			}
			return nil
		},
		finish: func(qual []int, coms map[int]*sharepkg.FeldmanCommitment, subs map[int]sharepkg.Share) ([]byte, error) {
			res, err := dkg.Combine(g, store.Index, t, n, qual, coms, subs)
			if err != nil {
				return nil, fmt.Errorf("keygen: %w", err)
			}
			key := &keys.Key{ID: req.KeyID, Scheme: req.Scheme, Epoch: keys.FirstEpoch,
				Public: &sharepkg.PublicKey{Group: g, Y: res.PublicKey, VK: res.VK, T: t, N: n},
				Share:  sharepkg.Share{Index: res.Index, Value: res.Share}}
			if err := store.Add(key); err != nil {
				// A concurrent generation won the (scheme, id) slot.
				if errors.Is(err, keys.ErrKeyExists) {
					return nil, err
				}
				return nil, fmt.Errorf("keygen install: %w", err)
			}
			return []byte(req.KeyID), nil
		},
	})
}
