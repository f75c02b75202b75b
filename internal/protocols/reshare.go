package protocols

import (
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"

	"thetacrypt/internal/dkg"
	"thetacrypt/internal/group"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/cks05"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
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

// UnmarshalReshareSpec decodes an OpReshare payload.
func UnmarshalReshareSpec(data []byte) (ReshareSpec, error) {
	r := wire.NewReader(data)
	s := ReshareSpec{NewT: r.Int()}
	cnt := r.Int()
	if err := r.Err(); err != nil {
		return ReshareSpec{}, fmt.Errorf("reshare spec: %w", err)
	}
	if cnt < 0 || cnt > 1<<16 {
		return ReshareSpec{}, fmt.Errorf("reshare spec: implausible committee size %d", cnt)
	}
	s.Members = make([]int, cnt)
	for i := range s.Members {
		s.Members[i] = r.Int()
	}
	if err := r.Err(); err != nil {
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

// reshareProtocol runs the internal/share reshare primitives as a TRI
// instance, the runtime half of the key lifecycle: every old committee
// member broadcasts one dealing (a Feldman-committed sub-sharing of
// its OWN share, addressed to the new committee), every node — old
// member, new member, or plain observer keeping the public half —
// verifies every dealing against the old verification keys, and
// finalization installs the next-epoch key. Like the DKG, readiness is
// "heard from every old member" and qualification is decided at
// finalization; because all sub-shares travel in the broadcast and are
// all verified by everyone, the qualified dealer set is identical on
// every honest node. Both CombineReshares and NewVerificationKeys use
// exactly the sorted first oldT+1 qualified dealers, so all nodes
// derive the SAME new polynomial — a necessity, not an optimization:
// different dealer subsets yield different (all valid) sharings.
//
// In sealed mode (identity-keyed deployments) the dealing's sub-shares
// travel as per-recipient ECIES boxes instead, so only the new member a
// sub-share addresses can check it — and the instance reuses the DKG's
// complaint machinery: new members broadcast complaints about
// unopenable or invalid boxes (round 2, everyone speaks), accused
// dealers broadcast the disputed sub-shares (round 3), and dealers with
// unanswered complaints are dropped from the qualified set identically
// on every node before the subset is chosen.
//
// The instance result is the new epoch in decimal.
type reshareProtocol struct {
	store  *keys.Keystore
	key    *keys.Key
	scheme schemes.ID
	g      group.Group
	oldVK  []group.Point
	oldPub group.Point
	rand   io.Reader

	spec       ReshareSpec
	newEpoch   int
	oldMembers []int // node index per old share index
	oldT       int
	myOldIdx   int      // this node's old share index (0: not an old member)
	myOldVal   *big.Int // this node's old share scalar
	myNewIdx   int      // this node's new share index (0: leaving the committee)

	processed map[int]bool                     // old share indices heard from
	dealings  map[int]*sharepkg.ReshareDealing // verified dealings by old share index
	started   bool
	finalized bool

	// Sealed mode.
	sealed    bool
	id        *identity.Key
	roster    identity.Roster
	instID    string
	round     int          // last round this node broadcast
	meshN     int          // deployment size: rounds 2 and 3 hear from every node
	heardComp map[int]bool // complaint-round messages consumed, by mesh node
	heardJust map[int]bool // justification-round messages consumed, by mesh node
	mine      map[int]bool // dealers (old share index) this node complains about
	log       *dkg.ComplaintLog
}

// newReshare builds the reshare instance for an OpReshare request.
// Epoch pinning is strict for reshares — the request's epoch must
// equal the key's current epoch even when zero (a pre-epoch legacy
// key), so two nodes straddling a previous reshare can never deal from
// different sharings inside one instance.
func newReshare(rand io.Reader, store *keys.Keystore, k *keys.Key, req Request, env Env) (Protocol, error) {
	if !keys.SupportsReshare(req.Scheme) {
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
	g, pub, vk, err := dlView(k)
	if err != nil {
		return nil, err
	}
	oldT, oldN := k.Params()
	oldMembers := k.Members
	if oldMembers == nil {
		oldMembers = make([]int, oldN)
		for i := range oldMembers {
			oldMembers[i] = i + 1
		}
	}
	p := &reshareProtocol{
		store:      store,
		key:        k,
		scheme:     req.Scheme,
		g:          g,
		oldVK:      vk,
		oldPub:     pub,
		rand:       rand,
		spec:       spec,
		newEpoch:   k.Epoch + 1,
		oldMembers: oldMembers,
		oldT:       oldT,
		myNewIdx:   memberPos(spec.Members, store.Index),
		processed:  make(map[int]bool, oldN),
		dealings:   make(map[int]*sharepkg.ReshareDealing, oldN),
	}
	if idx, val, ok := dlShare(k); ok {
		p.myOldIdx, p.myOldVal = idx, val
	}
	if env.Identity != nil {
		// Boxes go to the NEW committee, so those are the roster
		// entries a sealed reshare needs.
		for _, m := range spec.Members {
			if _, err := env.Roster.Lookup(m); err != nil {
				return nil, fmt.Errorf("%w: sealed reshare dealings need the new committee rostered: %v", ErrReshareUnsupported, err)
			}
		}
		p.sealed = true
		p.id = env.Identity
		p.roster = env.Roster
		p.instID = req.InstanceID()
		p.meshN = store.N
		p.heardComp = make(map[int]bool, store.N)
		p.heardJust = make(map[int]bool, store.N)
		p.mine = make(map[int]bool)
		p.log = dkg.NewComplaintLog()
	}
	return p, nil
}

func (p *reshareProtocol) DoRound() (*RoundOutput, error) {
	if p.finalized {
		return nil, ErrAlreadyFinalized
	}
	if p.sealed {
		return p.doRoundSealed()
	}
	if p.started {
		return nil, nil // single-round: nothing to do later
	}
	p.started = true
	if p.myOldIdx == 0 {
		// Not an old member: nothing to deal, only receive.
		return nil, nil
	}
	d, err := sharepkg.Reshare(p.rand, p.g, sharepkg.Share{Index: p.myOldIdx, Value: p.myOldVal},
		p.spec.NewT, len(p.spec.Members))
	if err != nil {
		return nil, fmt.Errorf("reshare deal: %w", err)
	}
	// Self-account the local dealing; the broadcast goes to the peers.
	p.processed[p.myOldIdx] = true
	p.dealings[p.myOldIdx] = d
	return &RoundOutput{Round: 1, Payload: marshalReshareDealing(d)}, nil
}

func (p *reshareProtocol) doRoundSealed() (*RoundOutput, error) {
	switch p.round {
	case 0:
		p.started = true
		p.round = 1
		if p.myOldIdx == 0 {
			// Not an old member: nothing to deal. We still speak in the
			// complaint and justification rounds like everyone else.
			return nil, nil
		}
		d, err := sharepkg.Reshare(p.rand, p.g, sharepkg.Share{Index: p.myOldIdx, Value: p.myOldVal},
			p.spec.NewT, len(p.spec.Members))
		if err != nil {
			return nil, fmt.Errorf("reshare deal: %w", err)
		}
		if TestFaultReshareDealing != nil {
			TestFaultReshareDealing(p.store.Index, d)
		}
		p.processed[p.myOldIdx] = true
		p.dealings[p.myOldIdx] = d
		boxes, err := sealSubShares(p.rand, p.id, p.roster, "reshare", p.instID, d.SubShares, p.spec.Members)
		if err != nil {
			return nil, fmt.Errorf("reshare seal: %w", err)
		}
		return &RoundOutput{Round: 1,
			Payload: marshalSealedDealing(d.Commitment.Points, boxes)}, nil
	case 1:
		// Every old dealing heard: broadcast complaints (only new
		// members can have any; everyone speaks so the round completes).
		p.round = 2
		p.heardComp[p.store.Index] = true
		dealers := make([]int, 0, len(p.mine))
		for d := range p.mine {
			dealers = append(dealers, d)
		}
		sort.Ints(dealers)
		return &RoundOutput{Round: 2,
			Payload: marshalComplaints(dealers)}, nil
	case 2:
		// Answer the complaints against us as a dealer, and process our
		// own justifications locally so our ledger matches our peers'.
		p.round = 3
		p.heardJust[p.store.Index] = true
		var js []sharepkg.Share
		if d := p.dealings[p.myOldIdx]; p.myOldIdx > 0 && d != nil {
			for _, j := range p.log.Against(p.myOldIdx) {
				if j >= 1 && j <= len(p.spec.Members) {
					js = append(js, d.SubShares[j-1].Clone())
				}
			}
		}
		for _, s := range js {
			p.receiveJustification(p.myOldIdx, s)
		}
		return &RoundOutput{Round: 3,
			Payload: marshalJustifications(js)}, nil
	default:
		return nil, nil
	}
}

func (p *reshareProtocol) Update(msg ProtocolMessage) error {
	if p.sealed {
		return p.updateSealed(msg)
	}
	if p.finalized {
		return nil // late or redelivered dealing
	}
	oldIdx := memberPos(p.oldMembers, msg.Sender)
	if oldIdx == 0 {
		return fmt.Errorf("%w: node %d is not an old committee member", ErrShareRejected, msg.Sender)
	}
	if p.processed[oldIdx] {
		return nil
	}
	newN := len(p.spec.Members)
	com, subs, err := unmarshalDealing(p.g, newN, msg.Payload)
	if err != nil {
		return fmt.Errorf("%w: reshare dealing from %d: %v", ErrShareRejected, msg.Sender, err)
	}
	// As in the DKG, the dealing counts as processed even when it
	// disqualifies its dealer: readiness is "heard from every old
	// member", qualification is decided at finalization.
	p.processed[oldIdx] = true
	d := &sharepkg.ReshareDealing{Dealer: oldIdx, Commitment: com, SubShares: subs}
	// The commitment must share exactly the dealer's old share (its
	// public key equals the old verification key) at the new degree.
	if err := sharepkg.VerifyReshareDealing(p.g, d, p.oldVK[oldIdx-1], p.spec.NewT); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	// Verify ALL sub-shares, not just our own: a dealer invalid for
	// ANY recipient is excluded identically on every honest node,
	// keeping the qualified set — and with it the new polynomial —
	// deterministic.
	for _, s := range subs {
		if !com.VerifyShare(s) {
			return fmt.Errorf("%w: dealer %d sent an invalid reshare sub-share for party %d",
				ErrShareRejected, oldIdx, s.Index)
		}
	}
	p.dealings[oldIdx] = d
	return nil
}

// updateSealed consumes one sealed-mode broadcast: a sealed dealing, a
// complaint list, or a justification list. The split of verdicts
// mirrors the DKG: publicly-checkable failures (garbled broadcasts, a
// commitment that does not share the dealer's old share) drop the
// dealer identically on every node; a box only its recipient can open
// is judged through the complaint round.
func (p *reshareProtocol) updateSealed(msg ProtocolMessage) error {
	if p.finalized {
		return nil
	}
	newN := len(p.spec.Members)
	switch msg.Round {
	case 1:
		oldIdx := memberPos(p.oldMembers, msg.Sender)
		if oldIdx == 0 {
			return fmt.Errorf("%w: node %d is not an old committee member", ErrShareRejected, msg.Sender)
		}
		if p.processed[oldIdx] {
			return nil
		}
		p.processed[oldIdx] = true
		com, boxes, err := unmarshalSealedDealing(p.g, newN, msg.Payload)
		if err != nil {
			// Never stored: the dealer stays unqualified on all nodes.
			return fmt.Errorf("%w: sealed reshare dealing from %d: %v", ErrShareRejected, msg.Sender, err)
		}
		d := &sharepkg.ReshareDealing{Dealer: oldIdx, Commitment: com, SubShares: make([]sharepkg.Share, newN)}
		if err := sharepkg.VerifyReshareDealing(p.g, d, p.oldVK[oldIdx-1], p.spec.NewT); err != nil {
			return fmt.Errorf("%w: %v", ErrShareRejected, err)
		}
		// The commitment is publicly valid: keep the dealing. Our own
		// sub-share comes out of our box — or, failing that, out of the
		// dealer's justification.
		p.dealings[oldIdx] = d
		if p.myNewIdx > 0 {
			pt, err := p.id.Open(boxContext("reshare", p.instID, msg.Sender, p.store.Index), boxes[p.myNewIdx-1])
			if err != nil {
				p.complain(oldIdx)
				return fmt.Errorf("%w: dealer %d box for new member %d does not open", ErrShareRejected, oldIdx, p.myNewIdx)
			}
			s, err := unmarshalSubShare(pt)
			if err != nil || s.Index != p.myNewIdx {
				p.complain(oldIdx)
				return fmt.Errorf("%w: dealer %d sealed a malformed reshare sub-share", ErrShareRejected, oldIdx)
			}
			if !com.VerifyShare(s) {
				p.complain(oldIdx)
				return fmt.Errorf("%w: dealer %d sent an invalid reshare sub-share for party %d", ErrShareRejected, oldIdx, p.myNewIdx)
			}
			d.SubShares[p.myNewIdx-1] = s
		}
		return nil
	case 2:
		if p.heardComp[msg.Sender] {
			return nil
		}
		p.heardComp[msg.Sender] = true
		dealers, err := unmarshalComplaints(msg.Payload, len(p.oldMembers))
		if err != nil {
			return fmt.Errorf("%w: reshare complaint list from %d: %v", ErrShareRejected, msg.Sender, err)
		}
		complainer := memberPos(p.spec.Members, msg.Sender)
		if complainer == 0 {
			// Only new members hold boxes; a complaint from anyone else
			// is noise and carries no weight.
			if len(dealers) > 0 {
				return fmt.Errorf("%w: node %d complained without being a new member", ErrShareRejected, msg.Sender)
			}
			return nil
		}
		for _, dealer := range dealers {
			p.log.Complain(complainer, dealer)
		}
		return nil
	case 3:
		if p.heardJust[msg.Sender] {
			return nil
		}
		p.heardJust[msg.Sender] = true
		js, err := unmarshalJustifications(msg.Payload, newN)
		if err != nil {
			return fmt.Errorf("%w: reshare justification list from %d: %v", ErrShareRejected, msg.Sender, err)
		}
		oldIdx := memberPos(p.oldMembers, msg.Sender)
		if oldIdx == 0 {
			if len(js) > 0 {
				return fmt.Errorf("%w: node %d justified without being a dealer", ErrShareRejected, msg.Sender)
			}
			return nil
		}
		// Invalid justifications are simply not recorded: the complaint
		// stands and Finalize drops the dealer.
		for _, s := range js {
			p.receiveJustification(oldIdx, s)
		}
		return nil
	default:
		return fmt.Errorf("%w: reshare round %d from %d", ErrShareRejected, msg.Round, msg.Sender)
	}
}

// complain records that dealer oldIdx's box for this node (a new
// member) is missing or invalid, for broadcast in the complaint round.
func (p *reshareProtocol) complain(oldIdx int) {
	if p.myNewIdx == 0 {
		return
	}
	p.mine[oldIdx] = true
	p.log.Complain(p.myNewIdx, oldIdx)
}

// receiveJustification verifies a dealer's revealed sub-share against
// its stored commitment; a verifying share discharges the matching
// complaint, and one addressed to this node is adopted in place of the
// box that failed.
func (p *reshareProtocol) receiveJustification(oldIdx int, s sharepkg.Share) {
	d := p.dealings[oldIdx]
	if d == nil || s.Index < 1 || s.Index > len(p.spec.Members) || s.Value == nil {
		return
	}
	if !d.Commitment.VerifyShare(s) {
		return
	}
	p.log.Resolve(oldIdx, s.Index)
	if s.Index == p.myNewIdx {
		d.SubShares[p.myNewIdx-1] = s.Clone()
	}
}

func (p *reshareProtocol) IsReadyForNextRound() bool {
	if !p.sealed || p.finalized {
		return false
	}
	switch p.round {
	case 1:
		return len(p.processed) == len(p.oldMembers)
	case 2:
		return len(p.heardComp) == p.meshN
	default:
		return false
	}
}

func (p *reshareProtocol) IsReadyToFinalize() bool {
	if p.sealed {
		return p.round == 3 && !p.finalized && len(p.heardJust) == p.meshN
	}
	return p.started && !p.finalized && len(p.processed) == len(p.oldMembers)
}

func (p *reshareProtocol) Finalize() ([]byte, error) {
	if !p.IsReadyToFinalize() {
		return nil, ErrNotReady
	}
	if p.sealed {
		// Complaints and justifications were all broadcast: every node
		// drops the same unanswered dealers before choosing the subset.
		for _, d := range p.log.Unresolved() {
			delete(p.dealings, d)
		}
	}
	qual := make([]int, 0, len(p.dealings))
	for d := range p.dealings {
		qual = append(qual, d)
	}
	sort.Ints(qual)
	if len(qual) < p.oldT+1 {
		return nil, fmt.Errorf("reshare: only %d qualified dealers, need %d", len(qual), p.oldT+1)
	}
	// Exactly the first oldT+1 qualified dealers, on every node.
	subset := qual[:p.oldT+1]
	newN := len(p.spec.Members)
	coms := make(map[int]*sharepkg.FeldmanCommitment, len(subset))
	for _, d := range subset {
		coms[d] = p.dealings[d].Commitment
	}
	vk, pub, err := sharepkg.NewVerificationKeys(p.g, p.oldT, newN, coms)
	if err != nil {
		return nil, fmt.Errorf("reshare: %w", err)
	}
	if !pub.Equal(p.oldPub) {
		return nil, fmt.Errorf("reshare: new sharing does not preserve the public key")
	}
	var shr any
	if p.myNewIdx > 0 {
		subs := make(map[int]sharepkg.Share, len(subset))
		for _, d := range subset {
			s := p.dealings[d].SubShares[p.myNewIdx-1]
			if s.Value == nil {
				// Cannot happen for a qualified dealer: our box either
				// opened or the justification we required was adopted.
				return nil, fmt.Errorf("reshare: no sub-share from qualified dealer %d", d)
			}
			subs[d] = s
		}
		x, err := sharepkg.CombineReshares(p.g, p.myNewIdx, p.oldT, subs)
		if err != nil {
			return nil, fmt.Errorf("reshare combine: %w", err)
		}
		if !p.g.BaseMul(x).Equal(vk[p.myNewIdx-1]) {
			return nil, fmt.Errorf("reshare: combined share inconsistent with new verification key")
		}
		shr = dlMakeShare(p.scheme, p.myNewIdx, x)
	}
	newPub, err := rebuildPublic(p.key, vk, p.spec.NewT, newN)
	if err != nil {
		return nil, err
	}
	next := &keys.Key{
		ID:      p.key.ID,
		Scheme:  p.scheme,
		Group:   p.key.Group,
		Public:  newPub,
		Share:   shr,
		Epoch:   p.newEpoch,
		Members: append([]int(nil), p.spec.Members...),
	}
	if err := p.store.Replace(next); err != nil {
		// A concurrent reshare advanced the key first.
		return nil, err
	}
	p.finalized = true
	return []byte(strconv.Itoa(p.newEpoch)), nil
}

// marshalReshareDealing encodes a dealing with the same framing as the
// DKG broadcast (commitment points, then sub-shares); the dealer
// identity is implied by the envelope sender, exactly as in the DKG.
func marshalReshareDealing(d *sharepkg.ReshareDealing) []byte {
	w := wire.NewWriter()
	w.Int(len(d.Commitment.Points))
	for _, pt := range d.Commitment.Points {
		w.Bytes(pt.Marshal())
	}
	w.Int(len(d.SubShares))
	for _, s := range d.SubShares {
		w.Int(s.Index)
		w.BigInt(s.Value)
	}
	return w.Out()
}

// memberPos returns the 1-based position of node in members, 0 when
// absent.
func memberPos(members []int, node int) int {
	for i, m := range members {
		if m == node {
			return i + 1
		}
	}
	return 0
}

// dlView extracts the discrete-log view shared by the reshareable
// schemes: the group, the public point, and the verification keys.
func dlView(k *keys.Key) (group.Group, group.Point, []group.Point, error) {
	switch pk := k.Public.(type) {
	case *sg02.PublicKey:
		return pk.Group, pk.H, pk.VK, nil
	case *frost.PublicKey:
		return pk.Group, pk.Y, pk.VK, nil
	case *cks05.PublicKey:
		return pk.Group, pk.Y, pk.VK, nil
	default:
		return nil, nil, nil, fmt.Errorf("%w: key %s/%s has no DL sharing", ErrReshareUnsupported, k.Scheme, k.ID)
	}
}

// dlShare extracts the share index and scalar of a reshareable key's
// share material.
func dlShare(k *keys.Key) (int, *big.Int, bool) {
	switch s := k.Share.(type) {
	case sg02.KeyShare:
		return s.Index, s.X, true
	case frost.KeyShare:
		return s.Index, s.X, true
	case cks05.KeyShare:
		return s.Index, s.X, true
	default:
		return 0, nil, false
	}
}

// dlMakeShare wraps a reshared scalar in the scheme's key-share type.
func dlMakeShare(scheme schemes.ID, index int, x *big.Int) any {
	switch scheme {
	case schemes.SG02:
		return sg02.KeyShare{Index: index, X: x}
	case schemes.KG20:
		return frost.KeyShare{Index: index, X: x}
	case schemes.CKS05:
		return cks05.KeyShare{Index: index, X: x}
	default:
		return nil
	}
}

// rebuildPublic carries a key's public point into its next epoch with
// the reshared verification keys and parameters.
func rebuildPublic(k *keys.Key, vk []group.Point, newT, newN int) (any, error) {
	switch pk := k.Public.(type) {
	case *sg02.PublicKey:
		return &sg02.PublicKey{Group: pk.Group, H: pk.H, VK: vk, T: newT, N: newN}, nil
	case *frost.PublicKey:
		return &frost.PublicKey{Group: pk.Group, Y: pk.Y, VK: vk, T: newT, N: newN}, nil
	case *cks05.PublicKey:
		return &cks05.PublicKey{Group: pk.Group, Y: pk.Y, VK: vk, T: newT, N: newN}, nil
	default:
		return nil, fmt.Errorf("%w: key %s/%s has no DL sharing", ErrReshareUnsupported, k.Scheme, k.ID)
	}
}

// ProactiveRefreshRequests builds one same-committee OpReshare request
// per reshareable key in the store, pinned to the key's current epoch
// with a deterministic session — every node of a deployment building
// the requests independently converges on the same instance IDs, so a
// scheduled refresh is idempotent across the mesh.
func ProactiveRefreshRequests(store *keys.Keystore) []Request {
	var out []Request
	for _, info := range store.List() {
		if !keys.SupportsReshare(info.Scheme) {
			continue
		}
		members := info.Members
		if members == nil {
			members = make([]int, info.N)
			for i := range members {
				members[i] = i + 1
			}
		}
		spec := ReshareSpec{NewT: info.T, Members: members}
		out = append(out, Request{
			Scheme:  info.Scheme,
			KeyID:   info.ID,
			Op:      OpReshare,
			Payload: spec.Marshal(),
			Session: fmt.Sprintf("refresh-%d", info.Epoch),
			Epoch:   info.Epoch,
		})
	}
	return out
}
