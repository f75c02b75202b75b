package protocols

import (
	"fmt"
	"io"
	"strconv"

	"thetacrypt/internal/keys"
	sharepkg "thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// ReshareSpec is the OpReshare payload: the target threshold and
// committee of the new sharing. A spec equal to the key's current
// parameters is a proactive refresh; any other spec is a membership
// change (grow, shrink, or replace nodes).
type ReshareSpec struct {
	// NewT is the new corruption threshold (quorum NewT+1).
	NewT int
	// Members lists the mesh node indices of the new committee in
	// share-index order: Members[j-1] receives share j. It must be
	// strictly ascending, so equivalent specs marshal identically and
	// every node derives the same instance ID.
	Members []int
}

// Marshal encodes the spec canonically.
func (s ReshareSpec) Marshal() []byte {
	w := wire.NewWriter().Int(s.NewT).Int(len(s.Members))
	for _, m := range s.Members {
		w.Int(m)
	}
	return w.Out()
}

// UnmarshalReshareSpec decodes an OpReshare payload. It accepts only
// the encoding Marshal produces, with no trailing bytes.
func UnmarshalReshareSpec(data []byte) (ReshareSpec, error) {
	r := wire.NewReader(data)
	s := ReshareSpec{NewT: r.Int()}
	cnt, err := readCount(r, 1<<16, minIntField)
	if err != nil {
		return ReshareSpec{}, fmt.Errorf("reshare spec: committee size: %w", err)
	}
	s.Members = make([]int, cnt)
	for i := range s.Members {
		s.Members[i] = r.Int()
	}
	if err := r.End(); err != nil {
		return ReshareSpec{}, fmt.Errorf("reshare spec: %w", err)
	}
	return s, nil
}

// Validate checks the spec's structural invariants.
func (s ReshareSpec) Validate() error {
	if err := sharepkg.ValidateParams(s.NewT, len(s.Members)); err != nil {
		return err
	}
	prev := 0
	for _, m := range s.Members {
		if m <= prev {
			return fmt.Errorf("reshare spec: members %v not strictly ascending node indices", s.Members)
		}
		prev = m
	}
	return nil
}

// newReshare builds the instance for an OpReshare request, the runtime
// half of the key lifecycle, run by the dealing protocol: every old
// committee member deals its OWN share (share.Reshare) to the new
// committee, every dealer's commitment must share exactly the dealer's
// old share at the new degree (share.VerifyReshareDealing against the
// old verification key), and every node — old member, new member, or
// plain observer keeping the public half — installs the next-epoch
// key. Finalization uses exactly the sorted first oldT+1 qualified
// dealers on every node, so all nodes derive the SAME new polynomial —
// a necessity, not an optimization: different dealer subsets yield
// different (all valid) sharings. The instance result is the new epoch
// in decimal.
//
// Epoch pinning is strict for reshares — the request's epoch must
// equal the key's current epoch even when zero (a key a v3 or v4 file
// carries at epoch 0), so two nodes straddling a previous reshare can never deal from
// different sharings inside one instance.
func newReshare(rand io.Reader, store *keys.Keystore, k *keys.Key, req Request, env Env) (Protocol, error) {
	if !keys.SupportsDKG(req.Scheme) {
		return nil, fmt.Errorf("%w: scheme %s is deal-only", ErrReshareUnsupported, req.Scheme)
	}
	spec, err := UnmarshalReshareSpec(req.Payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrReshareUnsupported, err)
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrReshareUnsupported, err)
	}
	for _, m := range spec.Members {
		if m > store.N {
			return nil, fmt.Errorf("%w: member %d outside deployment of %d nodes", ErrReshareUnsupported, m, store.N)
		}
	}
	oldPub, ok := k.Public.(*sharepkg.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: key %s/%s has no DL sharing", ErrReshareUnsupported, k.Scheme, k.ID)
	}
	g := oldPub.Group
	oldT, oldN := oldPub.T, oldPub.N
	oldMembers := k.Members
	if oldMembers == nil {
		oldMembers = allNodes(oldN)
	}
	newN := len(spec.Members)
	myNewIdx := memberPos(spec.Members, store.Index)
	p, err := newDealing(rand, store.Index, store.N, req, env, dealingRole{
		kind:       "reshare",
		g:          g,
		dealers:    oldMembers,
		recipients: spec.Members,
		deal: func() (*sharepkg.FeldmanCommitment, []sharepkg.Share, error) {
			own, ok := k.Share.(sharepkg.Share)
			if !ok {
				return nil, nil, fmt.Errorf("node %d holds no share of %s/%s", store.Index, k.Scheme, k.ID)
			}
			d, err := sharepkg.Reshare(rand, g, own, spec.NewT, newN)
			if err != nil {
				return nil, nil, err
			}
			if TestFaultReshareDealing != nil {
				TestFaultReshareDealing(store.Index, d)
			}
			return d.Commitment, d.SubShares, nil
		},
		check: func(dealer int, com *sharepkg.FeldmanCommitment) error {
			return sharepkg.VerifyReshareDealing(g, &sharepkg.ReshareDealing{Dealer: dealer, Commitment: com}, oldPub.VK[dealer-1], spec.NewT)
		},
		finish: func(qual []int, coms map[int]*sharepkg.FeldmanCommitment, subs map[int]sharepkg.Share) ([]byte, error) {
			if len(qual) < oldT+1 {
				return nil, fmt.Errorf("reshare: only %d qualified dealers, need %d", len(qual), oldT+1)
			}
			// Exactly the first oldT+1 qualified dealers, on every node.
			subset := qual[:oldT+1]
			quorum := make(map[int]*sharepkg.FeldmanCommitment, len(subset))
			mine := make(map[int]sharepkg.Share, len(subset))
			for _, d := range subset {
				quorum[d], mine[d] = coms[d], subs[d]
			}
			vk, pub, err := sharepkg.NewVerificationKeys(g, oldT, newN, quorum)
			if err != nil {
				return nil, fmt.Errorf("reshare: %w", err)
			}
			if !pub.Equal(oldPub.Y) {
				return nil, fmt.Errorf("reshare: new sharing does not preserve the public key")
			}
			var shr any
			if myNewIdx > 0 {
				x, err := sharepkg.CombineReshares(g, myNewIdx, oldT, mine)
				if err != nil {
					return nil, fmt.Errorf("reshare combine: %w", err)
				}
				shr = sharepkg.Share{Index: myNewIdx, Value: x}
			}
			next := &keys.Key{
				ID:      k.ID,
				Scheme:  req.Scheme,
				Group:   k.Group,
				Public:  &sharepkg.PublicKey{Group: g, Y: oldPub.Y, VK: vk, T: spec.NewT, N: newN},
				Share:   shr,
				Epoch:   k.Epoch + 1,
				Members: append([]int(nil), spec.Members...),
			}
			if err := store.Replace(next); err != nil {
				// A concurrent reshare advanced the key first, or the
				// combined share does not match its new verification key.
				return nil, err
			}
			return []byte(strconv.Itoa(next.Epoch)), nil
		},
	})
	if err != nil {
		// The node's own configuration (no identity key, a partial
		// roster) refuses it, as it refuses a keygen.
		return nil, err
	}
	return p, nil
}
