package protocols

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"thetacrypt/internal/dkg"
	"thetacrypt/internal/group"
	"thetacrypt/internal/identity"
	sharepkg "thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// dealingProtocol is the one dealing protocol behind key generation
// (OpKeyGen) and resharing (OpReshare): GJKR-style verifiable secret
// sharing in three broadcast rounds.
//
//  1. Deal. Every dealer broadcasts Feldman commitments to a fresh
//     polynomial and one box per recipient holding that recipient's
//     sub-share; the box in the dealer's own recipient slot is empty.
//     Every node checks each commitment publicly; each recipient opens
//     its own box and verifies the sub-share inside.
//  2. Complain. Every node broadcasts the dealers whose box for it did
//     not open to a valid sub-share (usually none).
//  3. Justify. Every accused dealer broadcasts the disputed sub-shares
//     in the clear. A verifying one discharges its complaint, and the
//     complainer adopts it as its sub-share.
//
// Every node speaks in rounds 2 and 3, mostly with empty lists, so a
// round completes when every node has been heard. A dealer whose
// dealing fails the public check, or who leaves a complaint
// unanswered, is dropped; complaints and justifications are all
// broadcast, so every honest node drops the same dealers and the role
// combines the same qualified set.
//
// Boxes are ECIES-sealed to each recipient's identity key, so no
// sub-share crosses the wire in the clear: a node without an identity
// key and a roster cannot take part.
type dealingProtocol struct {
	role   dealingRole
	rand   io.Reader
	id     *identity.Key
	boxTo  []identity.Public // recipients' identity keys, by share index-1
	instID string

	self, meshN int
	myDealer    int // this node's dealer index, 0 when it does not deal
	myRecip     int // this node's share index, 0 when it receives nothing

	round     int
	heard     [3]map[int]bool                     // round 1 by dealer index, rounds 2 and 3 by mesh node
	coms      map[int]*sharepkg.FeldmanCommitment // publicly valid dealings by dealer index
	subs      map[int]sharepkg.Share              // this node's verified sub-shares by dealer index
	dealt     []sharepkg.Share                    // this node's own sub-shares, to justify with
	mine      []int                               // dealers this node complains about
	log       *dkg.ComplaintLog
	finalized bool
}

// dealingRole is everything that sets key generation and resharing
// apart. Dealers and recipients are listed by mesh node: dealers[d-1]
// deals as dealer index d, recipients[j-1] receives share index j.
type dealingRole struct {
	kind       string // box context: "dkg" or "reshare"
	g          group.Group
	dealers    []int
	recipients []int
	// deal produces this node's commitment and its sub-shares, one per
	// recipient.
	deal func() (*sharepkg.FeldmanCommitment, []sharepkg.Share, error)
	// check is the public test a dealer's commitment must pass.
	check func(dealer int, com *sharepkg.FeldmanCommitment) error
	// finish combines the qualified dealers' commitments and this
	// node's sub-shares from them, installs the key, and returns the
	// instance result.
	finish func(qual []int, coms map[int]*sharepkg.FeldmanCommitment, subs map[int]sharepkg.Share) ([]byte, error)
}

// Fault-injection seams for the complaint-round tests: when non-nil,
// they may mutate the named node's dealing before its boxes are
// sealed, so a corrupted sub-share lands both in the recipient's box
// and in the dealer's own justification. Production code never sets
// them.
var (
	TestFaultDealing        func(node int, d *dkg.Dealing)
	TestFaultReshareDealing func(node int, d *sharepkg.ReshareDealing)
)

func newDealing(rand io.Reader, self, meshN int, req Request, env Env, role dealingRole) (Protocol, error) {
	boxTo, err := recipientKeys(env, role.recipients)
	if err != nil {
		return nil, fmt.Errorf("protocols %s: %w", role.kind, err)
	}
	return &dealingProtocol{
		role:     role,
		rand:     rand,
		id:       env.Identity,
		boxTo:    boxTo,
		instID:   req.InstanceID(),
		self:     self,
		meshN:    meshN,
		myDealer: memberPos(role.dealers, self),
		myRecip:  memberPos(role.recipients, self),
		heard:    [3]map[int]bool{make(map[int]bool), make(map[int]bool), make(map[int]bool)},
		coms:     make(map[int]*sharepkg.FeldmanCommitment, len(role.dealers)),
		subs:     make(map[int]sharepkg.Share, len(role.dealers)),
		log:      dkg.NewComplaintLog(),
	}, nil
}

func (p *dealingProtocol) DoRound() (*RoundOutput, error) {
	if p.finalized {
		return nil, ErrAlreadyFinalized
	}
	if p.round == 3 {
		return nil, nil
	}
	p.round++
	switch p.round {
	case 1:
		return p.deal()
	case 2:
		p.heard[1][p.self] = true
		sort.Ints(p.mine)
		return &RoundOutput{Round: 2, Payload: marshalComplaints(p.mine)}, nil
	default:
		// Answer the complaints against this node, and judge its own
		// answers locally so its ledger matches its peers': a dealer
		// that cannot justify drops itself like everyone else drops it.
		p.heard[2][p.self] = true
		var js []sharepkg.Share
		for _, j := range p.log.Against(p.myDealer) {
			if j >= 1 && j <= len(p.dealt) {
				js = append(js, p.dealt[j-1].Clone())
			}
		}
		for _, s := range js {
			p.justify(p.myDealer, s)
		}
		return &RoundOutput{Round: 3, Payload: marshalJustifications(js)}, nil
	}
}

// deal runs round 1: a node that deals broadcasts its commitment and
// boxes and accounts for its own dealing at once; any other node only
// receives.
func (p *dealingProtocol) deal() (*RoundOutput, error) {
	if p.myDealer == 0 {
		return nil, nil
	}
	com, subs, err := p.role.deal()
	if err != nil {
		return nil, fmt.Errorf("%s deal: %w", p.role.kind, err)
	}
	// Only the owner of slot j+1 opens box j, and this node takes its
	// own sub-share from subs, so its own slot travels empty.
	boxes := make([][]byte, len(subs))
	for j, s := range subs {
		if j+1 == p.myRecip {
			continue
		}
		if boxes[j], err = p.seal(j, s); err != nil {
			return nil, fmt.Errorf("%s seal: %w", p.role.kind, err)
		}
	}
	p.dealt = subs
	p.heard[0][p.myDealer] = true
	// The own dealing passes the same public check as everyone's, so a
	// dealer that fails it drops itself like its peers drop it.
	if p.role.check(p.myDealer, com) == nil {
		p.coms[p.myDealer] = com
	}
	if p.myRecip > 0 {
		p.subs[p.myDealer] = subs[p.myRecip-1]
	}
	return &RoundOutput{Round: 1, Payload: marshalDealing(com.Points, boxes)}, nil
}

func (p *dealingProtocol) Update(msg ProtocolMessage) error {
	if p.finalized {
		return nil
	}
	if msg.Sender < 1 || msg.Sender > p.meshN {
		return fmt.Errorf("%w: %s message from out-of-range node %d", ErrShareRejected, p.role.kind, msg.Sender)
	}
	if msg.Round == 1 {
		return p.onDealing(msg)
	}
	if msg.Round != 2 && msg.Round != 3 {
		return fmt.Errorf("%w: %s round %d from %d", ErrShareRejected, p.role.kind, msg.Round, msg.Sender)
	}
	if p.heard[msg.Round-1][msg.Sender] {
		return nil
	}
	p.heard[msg.Round-1][msg.Sender] = true
	if msg.Round == 2 {
		// Only recipients hold boxes, so only they can complain.
		dealers, err := unmarshalComplaints(msg.Payload, len(p.role.dealers))
		complainer := memberPos(p.role.recipients, msg.Sender)
		if err == nil && complainer == 0 && len(dealers) > 0 {
			err = errors.New("sender holds no box")
		}
		if err != nil {
			return fmt.Errorf("%w: complaints from %d: %v", ErrShareRejected, msg.Sender, err)
		}
		for _, d := range dealers {
			p.log.Complain(complainer, d)
		}
		return nil
	}
	// An invalid justification is simply not recorded: the complaint it
	// should have answered stands, and Finalize drops the dealer.
	js, err := unmarshalJustifications(msg.Payload, len(p.role.recipients))
	dealer := memberPos(p.role.dealers, msg.Sender)
	if err == nil && dealer == 0 && len(js) > 0 {
		err = errors.New("sender deals nothing")
	}
	if err != nil {
		return fmt.Errorf("%w: justifications from %d: %v", ErrShareRejected, msg.Sender, err)
	}
	for _, s := range js {
		p.justify(dealer, s)
	}
	return nil
}

// onDealing consumes a round-1 broadcast. A garbled dealing or one
// failing the public check drops its dealer identically on every node;
// a box only its recipient can open is judged through the complaint
// round instead.
func (p *dealingProtocol) onDealing(msg ProtocolMessage) error {
	dealer := memberPos(p.role.dealers, msg.Sender)
	if dealer == 0 {
		return fmt.Errorf("%w: node %d does not deal in this %s", ErrShareRejected, msg.Sender, p.role.kind)
	}
	if p.heard[0][dealer] {
		return nil
	}
	// The dealing counts as heard even when it drops its dealer:
	// readiness is "heard from every dealer", qualification is decided
	// at finalization.
	p.heard[0][dealer] = true
	com, boxes, err := unmarshalDealing(p.role.g, len(p.role.recipients), msg.Payload)
	if err != nil {
		return fmt.Errorf("%w: %s dealing from %d: %v", ErrShareRejected, p.role.kind, msg.Sender, err)
	}
	if err := p.role.check(dealer, com); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	p.coms[dealer] = com
	if p.myRecip == 0 {
		return nil
	}
	s, err := p.open(msg.Sender, boxes[p.myRecip-1])
	if err != nil || s.Index != p.myRecip || !com.VerifyShare(s) {
		p.mine = append(p.mine, dealer)
		p.log.Complain(p.myRecip, dealer)
		return fmt.Errorf("%w: dealer %d's box for share %d holds no valid sub-share", ErrShareRejected, dealer, p.myRecip)
	}
	p.subs[dealer] = s
	return nil
}

// justify checks a dealer's revealed sub-share against its commitment.
// A verifying share discharges the matching complaint, and one
// addressed to this node replaces the box that failed.
func (p *dealingProtocol) justify(dealer int, s sharepkg.Share) {
	com := p.coms[dealer]
	if com == nil || !com.VerifyShare(s) {
		return
	}
	p.log.Resolve(dealer, s.Index)
	if s.Index == p.myRecip {
		p.subs[dealer] = s
	}
}

// settle drops every dealer left with an unanswered complaint and
// returns the sorted qualified dealers: those whose commitment passed
// the public check and whose every complaint was answered. It is
// meaningful once the justification round is complete.
func (p *dealingProtocol) settle() []int {
	for _, d := range p.log.Unresolved() {
		delete(p.coms, d)
	}
	qual := make([]int, 0, len(p.coms))
	for d := range p.coms {
		qual = append(qual, d)
	}
	sort.Ints(qual)
	return qual
}

func (p *dealingProtocol) IsReadyForNextRound() bool {
	switch p.round {
	case 1:
		return len(p.heard[0]) == len(p.role.dealers)
	case 2:
		return len(p.heard[1]) == p.meshN
	}
	return false
}

func (p *dealingProtocol) IsReadyToFinalize() bool {
	return p.round == 3 && !p.finalized && len(p.heard[2]) == p.meshN
}

func (p *dealingProtocol) Finalize() ([]byte, error) {
	if !p.IsReadyToFinalize() {
		return nil, ErrNotReady
	}
	out, err := p.role.finish(p.settle(), p.coms, p.subs)
	if err != nil {
		return nil, err
	}
	p.finalized = true
	return out, nil
}

// recipientKeys resolves the identity key each box is sealed to. A
// node without an identity key cannot open its own box, so it is
// refused here, when the instance is created.
func recipientKeys(env Env, recipients []int) ([]identity.Public, error) {
	if env.Identity == nil {
		return nil, errors.New("no identity key: a dealing seals every sub-share to its recipient's identity")
	}
	pubs := make([]identity.Public, len(recipients))
	for j, m := range recipients {
		var err error
		if pubs[j], err = env.Roster.Lookup(m); err != nil {
			return nil, fmt.Errorf("sealed dealings need every recipient rostered: %w", err)
		}
	}
	return pubs, nil
}

// seal boxes sub-share s for the recipient of share index j+1: ECIES
// to its identity key.
func (p *dealingProtocol) seal(j int, s sharepkg.Share) ([]byte, error) {
	ctx := boxContext(p.role.kind, p.instID, p.self, p.role.recipients[j])
	return identity.Seal(p.rand, p.boxTo[j], ctx, marshalSubShare(s))
}

// open reverses seal for a box from mesh node dealer.
func (p *dealingProtocol) open(dealer int, box []byte) (sharepkg.Share, error) {
	plain, err := p.id.Open(boxContext(p.role.kind, p.instID, dealer, p.self), box)
	if err != nil {
		return sharepkg.Share{}, err
	}
	return unmarshalSubShare(plain)
}

// boxContext binds a sealed box to its exact slot: protocol kind,
// instance, dealer mesh node, and recipient mesh node. A box replayed
// into any other slot — another instance, another recipient, even the
// same pair with roles swapped — fails to open.
func boxContext(kind, instance string, dealer, to int) []byte {
	return []byte(fmt.Sprintf("thetacrypt/%s/v2/%s/%d/%d", kind, instance, dealer, to))
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

// allNodes lists mesh nodes 1..n.
func allNodes(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i + 1
	}
	return out
}

// dealingWireVersion tags the round-1 broadcast: commitment points,
// then one box per recipient. It is an integrity check, not a
// negotiation.
const dealingWireVersion = 2

// Minimum encoded sizes of list elements, which bound a decoded count
// by the bytes left before anything is allocated.
const (
	minIntField   = 4 + 8     // wire.Int
	minBytesField = 4         // wire.Bytes
	minShareField = 4 + 8 + 5 // index, then a value with its sign byte
)

func marshalDealing(points []group.Point, boxes [][]byte) []byte {
	w := wire.NewWriter().Int(dealingWireVersion).Int(len(points))
	for _, pt := range points {
		w.Bytes(pt.Marshal())
	}
	w.Int(len(boxes))
	for _, b := range boxes {
		w.Bytes(b)
	}
	return w.Out()
}

// unmarshalDealing decodes a round-1 broadcast over g for a run with
// the given number of recipients.
func unmarshalDealing(g group.Group, recipients int, data []byte) (*sharepkg.FeldmanCommitment, [][]byte, error) {
	r := wire.NewReader(data)
	if v := r.Int(); r.Err() != nil || v != dealingWireVersion {
		return nil, nil, fmt.Errorf("dealing version %d, want %d (coordinated upgrade required)", v, dealingWireVersion)
	}
	cnt, err := readCount(r, recipients+1, minBytesField)
	if err != nil {
		return nil, nil, fmt.Errorf("dealing commitment: %w", err)
	}
	if cnt < 1 {
		return nil, nil, errors.New("dealing commits to no points")
	}
	pts := make([]group.Point, cnt)
	for i := range pts {
		if pts[i], err = g.UnmarshalPoint(r.Bytes()); err != nil {
			return nil, nil, err
		}
	}
	bcnt, err := readCount(r, recipients, minBytesField)
	if err != nil {
		return nil, nil, fmt.Errorf("dealing boxes: %w", err)
	}
	if bcnt != recipients {
		return nil, nil, fmt.Errorf("dealing with %d boxes for %d recipients", bcnt, recipients)
	}
	boxes := make([][]byte, bcnt)
	for i := range boxes {
		boxes[i] = r.Bytes()
	}
	if err := r.End(); err != nil {
		return nil, nil, err
	}
	return &sharepkg.FeldmanCommitment{Group: g, Points: pts}, boxes, nil
}

// marshalSubShare is the box plaintext: one share, index and value.
func marshalSubShare(s sharepkg.Share) []byte {
	return wire.NewWriter().Int(s.Index).BigInt(s.Value).Out()
}

func unmarshalSubShare(data []byte) (sharepkg.Share, error) {
	r := wire.NewReader(data)
	s := sharepkg.Share{Index: r.Int(), Value: r.Nat()}
	if err := r.End(); err != nil {
		return sharepkg.Share{}, err
	}
	if s.Index < 1 {
		return sharepkg.Share{}, errors.New("malformed sub-share")
	}
	return s, nil
}

// marshalComplaints encodes a round-2 broadcast: the dealer indices the
// sender accuses. The empty list is the common case.
func marshalComplaints(dealers []int) []byte {
	w := wire.NewWriter().Int(len(dealers))
	for _, d := range dealers {
		w.Int(d)
	}
	return w.Out()
}

func unmarshalComplaints(data []byte, maxDealer int) ([]int, error) {
	r := wire.NewReader(data)
	cnt, err := readCount(r, maxDealer, minIntField)
	if err != nil {
		return nil, fmt.Errorf("complaint list: %w", err)
	}
	out := make([]int, cnt)
	for i := range out {
		out[i] = r.Int()
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	for _, d := range out {
		if d < 1 || d > maxDealer {
			return nil, fmt.Errorf("complaint against out-of-range dealer %d", d)
		}
	}
	return out, nil
}

// marshalJustifications encodes a round-3 broadcast: the disputed
// sub-shares the sender reveals as an accused dealer. The empty list is
// the common case.
func marshalJustifications(shares []sharepkg.Share) []byte {
	w := wire.NewWriter().Int(len(shares))
	for _, s := range shares {
		w.Int(s.Index).BigInt(s.Value)
	}
	return w.Out()
}

func unmarshalJustifications(data []byte, maxIndex int) ([]sharepkg.Share, error) {
	r := wire.NewReader(data)
	cnt, err := readCount(r, maxIndex, minShareField)
	if err != nil {
		return nil, fmt.Errorf("justification list: %w", err)
	}
	out := make([]sharepkg.Share, cnt)
	for i := range out {
		out[i] = sharepkg.Share{Index: r.Int(), Value: r.Nat()}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	for _, s := range out {
		if s.Index < 1 || s.Index > maxIndex {
			return nil, errors.New("malformed justification share")
		}
	}
	return out, nil
}

// readCount reads a list length and rejects one above max, or above
// what the bytes left can hold at minSize bytes per element, before
// the caller allocates for it.
func readCount(r *wire.Reader, max, minSize int) (int, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n < 0 || n > max || n > r.Remaining()/minSize {
		return 0, fmt.Errorf("implausible count %d", n)
	}
	return n, nil
}
