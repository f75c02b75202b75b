package protocols

import (
	"errors"
	"fmt"
	"io"

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

// keygenProtocol runs Pedersen's JF-DKG (internal/dkg) as a TRI
// protocol instance, making key generation an on-demand operation of
// the protocol API: every node broadcasts one dealing (its Feldman
// commitments plus the sub-shares), verifies the dealings of all n
// participants, and finalizes by installing the combined (t, n) key
// into its keystore under the request's key ID. The instance result is
// the key ID, so clients learn the name of the key they created from
// the ordinary result path.
//
// Unlike the threshold operations, key generation involves all n
// parties, and the happy-path qualified-set agreement assumes every
// dealing reaches every node — which the reliable transport provides.
// A dealing whose sub-share fails verification disqualifies that
// dealer on the receiving node; fewer than t+1 qualified dealers abort
// the instance (dkg.ErrTooFewDealers).
//
// The protocol runs in one of two modes, decided by configuration:
//
// Legacy (no identity material): sub-shares travel in the clear inside
// the broadcast dealing, every node verifies all n of them, and the
// instance is single-round.
//
// Sealed (identity-keyed deployments): each dealing carries one ECIES
// box per recipient — sealed to that recipient's identity key and bound
// to (instance, dealer, recipient) — so no sub-share bytes ever appear
// on the wire. Because a node can then verify only its OWN sub-share,
// the DKG grows GJKR-style complaint (round 2) and justification
// (round 3) rounds: a recipient whose box is unopenable or whose share
// fails Feldman verification broadcasts a complaint, the accused dealer
// must broadcast the disputed sub-share, and dealers whose
// justifications do not verify are disqualified deterministically by
// every node. Every node speaks in rounds 2 and 3 (usually with empty
// lists) so round completion is "heard from everyone", same as round 1.
type keygenProtocol struct {
	store  *keys.Keystore
	scheme schemes.ID
	keyID  string
	g      group.Group
	part   *dkg.Participant
	rand   io.Reader

	n, self   int
	processed map[int]bool // dealers whose dealing was consumed (or rejected)
	started   bool
	finalized bool

	// Sealed mode.
	sealed    bool
	id        *identity.Key
	roster    identity.Roster
	instID    string
	round     int          // last round this node broadcast
	heardComp map[int]bool // complaint-round messages consumed
	heardJust map[int]bool // justification-round messages consumed
}

// newKeygen builds the DKG instance for an OpKeyGen request. The
// request payload names the DL group (empty = edwards25519). When env
// carries identity material, the instance runs in sealed mode; the
// roster must then cover the whole deployment, since key generation
// involves all n nodes.
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
	part, err := dkg.NewParticipant(g, store.Index, store.T, store.N)
	if err != nil {
		return nil, fmt.Errorf("protocols keygen: %w", err)
	}
	p := &keygenProtocol{
		store:     store,
		scheme:    req.Scheme,
		keyID:     req.KeyID,
		g:         g,
		part:      part,
		n:         store.N,
		self:      store.Index,
		rand:      rand,
		processed: make(map[int]bool, store.N),
	}
	if env.Identity != nil {
		for j := 1; j <= store.N; j++ {
			if _, err := env.Roster.Lookup(j); err != nil {
				return nil, fmt.Errorf("protocols keygen: sealed dealings need the full roster: %w", err)
			}
		}
		p.sealed = true
		p.id = env.Identity
		p.roster = env.Roster
		p.instID = req.InstanceID()
		p.heardComp = make(map[int]bool, store.N)
		p.heardJust = make(map[int]bool, store.N)
	}
	return p, nil
}

func (p *keygenProtocol) DoRound() (*RoundOutput, error) {
	if p.finalized {
		return nil, ErrAlreadyFinalized
	}
	if !p.sealed {
		if p.started {
			return nil, nil // single-round: nothing to do later
		}
		p.started = true
		dealing, err := p.part.Deal(p.rand)
		if err != nil {
			return nil, fmt.Errorf("keygen deal: %w", err)
		}
		p.processed[p.self] = true // Deal self-accounts commitment and sub-share
		return &RoundOutput{Round: 1, Payload: marshalDealing(dealing)}, nil
	}
	switch p.round {
	case 0:
		p.started = true
		p.round = 1
		dealing, err := p.part.Deal(p.rand)
		if err != nil {
			return nil, fmt.Errorf("keygen deal: %w", err)
		}
		if TestFaultDealing != nil {
			TestFaultDealing(p.self, dealing)
		}
		p.processed[p.self] = true
		recipients := make([]int, p.n)
		for j := range recipients {
			recipients[j] = j + 1
		}
		boxes, err := sealSubShares(p.rand, p.id, p.roster, "dkg", p.instID, dealing.SubShares, recipients)
		if err != nil {
			return nil, fmt.Errorf("keygen seal: %w", err)
		}
		return &RoundOutput{Round: 1,
			Payload: marshalSealedDealing(dealing.Commitment.Points, boxes)}, nil
	case 1:
		// All dealings heard: broadcast complaints (usually none).
		p.round = 2
		p.heardComp[p.self] = true
		return &RoundOutput{Round: 2,
			Payload: marshalComplaints(p.part.PendingComplaints())}, nil
	case 2:
		// All complaints heard: answer the ones against us, and process
		// our own justifications locally so our complaint ledger matches
		// our peers' — a dealer that cannot justify disqualifies ITSELF
		// the same way everyone else disqualifies it.
		p.round = 3
		p.heardJust[p.self] = true
		js := p.part.JustificationShares()
		for _, s := range js {
			_ = p.part.ReceiveJustification(p.self, s)
		}
		return &RoundOutput{Round: 3,
			Payload: marshalJustifications(js)}, nil
	default:
		return nil, nil
	}
}

func (p *keygenProtocol) Update(msg ProtocolMessage) error {
	if p.sealed {
		return p.updateSealed(msg)
	}
	if p.finalized || p.processed[msg.Sender] {
		return nil // late or redelivered dealing
	}
	com, subs, err := unmarshalDealing(p.g, p.n, msg.Payload)
	if err != nil {
		return fmt.Errorf("%w: dealing from %d: %v", ErrShareRejected, msg.Sender, err)
	}
	// The dealing counts as processed even when it disqualifies its
	// dealer: readiness is "heard from everyone", qualification is
	// decided at finalization.
	p.processed[msg.Sender] = true
	// All n sub-shares travel in the broadcast, so every node verifies
	// every one of them — not just its own — before accepting the
	// dealing. A dealer whose dealing is invalid for ANY recipient is
	// excluded identically on all honest nodes, keeping the qualified
	// set (and therefore the installed key) deterministic.
	for _, s := range subs {
		if !com.VerifyShare(s) {
			return fmt.Errorf("%w: dealer %d sent an invalid sub-share for party %d",
				ErrShareRejected, msg.Sender, s.Index)
		}
	}
	if err := p.part.ReceiveCommitment(&dkg.PublicDealing{Dealer: msg.Sender, Commitment: com}); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if err := p.part.ReceiveSubShare(msg.Sender, subs[p.self-1]); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	return nil
}

// updateSealed consumes one sealed-mode broadcast, dispatched on its
// round: a dealing, a complaint list, or a justification list.
// Publicly-checkable misbehavior (garbled broadcasts, wrong-degree
// commitments) excludes the sender immediately and identically on all
// nodes; privately-detected failures (our box, our share) only record a
// complaint — the verdict waits for the justification round.
func (p *keygenProtocol) updateSealed(msg ProtocolMessage) error {
	if p.finalized {
		return nil
	}
	if msg.Sender < 1 || msg.Sender > p.n {
		return fmt.Errorf("%w: keygen message from out-of-range node %d", ErrShareRejected, msg.Sender)
	}
	switch msg.Round {
	case 1:
		if p.processed[msg.Sender] {
			return nil
		}
		p.processed[msg.Sender] = true
		com, boxes, err := unmarshalSealedDealing(p.g, p.n, msg.Payload)
		if err != nil {
			p.part.Exclude(msg.Sender)
			return fmt.Errorf("%w: sealed dealing from %d: %v", ErrShareRejected, msg.Sender, err)
		}
		if err := p.part.ReceiveCommitment(&dkg.PublicDealing{Dealer: msg.Sender, Commitment: com}); err != nil {
			return fmt.Errorf("%w: %v", ErrShareRejected, err)
		}
		pt, err := p.id.Open(boxContext("dkg", p.instID, msg.Sender, p.self), boxes[p.self-1])
		if err != nil {
			p.part.Complain(msg.Sender)
			return fmt.Errorf("%w: dealer %d box for party %d does not open", ErrShareRejected, msg.Sender, p.self)
		}
		s, err := unmarshalSubShare(pt)
		if err != nil || s.Index != p.self {
			p.part.Complain(msg.Sender)
			return fmt.Errorf("%w: dealer %d sealed a malformed sub-share for party %d", ErrShareRejected, msg.Sender, p.self)
		}
		if err := p.part.ReceiveSubShare(msg.Sender, s); err != nil {
			return fmt.Errorf("%w: %v", ErrShareRejected, err)
		}
		return nil
	case 2:
		if p.heardComp[msg.Sender] {
			return nil
		}
		p.heardComp[msg.Sender] = true
		dealers, err := unmarshalComplaints(msg.Payload, p.n)
		if err != nil {
			p.part.Exclude(msg.Sender)
			return fmt.Errorf("%w: complaint list from %d: %v", ErrShareRejected, msg.Sender, err)
		}
		for _, d := range dealers {
			_ = p.part.ReceiveComplaint(msg.Sender, d)
		}
		return nil
	case 3:
		if p.heardJust[msg.Sender] {
			return nil
		}
		p.heardJust[msg.Sender] = true
		js, err := unmarshalJustifications(msg.Payload, p.n)
		if err != nil {
			p.part.Exclude(msg.Sender)
			return fmt.Errorf("%w: justification list from %d: %v", ErrShareRejected, msg.Sender, err)
		}
		// An invalid justification is simply not recorded: the complaint
		// it should have answered stands, and FinishComplaints settles it.
		for _, s := range js {
			_ = p.part.ReceiveJustification(msg.Sender, s)
		}
		return nil
	default:
		return fmt.Errorf("%w: keygen round %d from %d", ErrShareRejected, msg.Round, msg.Sender)
	}
}

func (p *keygenProtocol) IsReadyForNextRound() bool {
	if !p.sealed || p.finalized {
		return false
	}
	switch p.round {
	case 1:
		return len(p.processed) == p.n
	case 2:
		return len(p.heardComp) == p.n
	default:
		return false
	}
}

func (p *keygenProtocol) IsReadyToFinalize() bool {
	if p.sealed {
		return p.round == 3 && !p.finalized && len(p.heardJust) == p.n
	}
	return p.started && !p.finalized && len(p.processed) == p.n
}

func (p *keygenProtocol) Finalize() ([]byte, error) {
	if !p.IsReadyToFinalize() {
		return nil, ErrNotReady
	}
	if p.sealed {
		// Complaints and justifications were all broadcast, so every
		// node settles the same exclusion set here.
		p.part.FinishComplaints()
	}
	res, err := p.part.Finalize()
	if err != nil {
		return nil, fmt.Errorf("keygen: %w", err)
	}
	key := &keys.Key{ID: p.keyID, Scheme: p.scheme, Epoch: keys.FirstEpoch}
	switch p.scheme {
	case schemes.SG02:
		key.Public = &sg02.PublicKey{Group: p.g, H: res.PublicKey, VK: res.VK, T: p.store.T, N: p.n}
		key.Share = sg02.KeyShare{Index: res.Index, X: res.Share}
	case schemes.KG20:
		key.Public = &frost.PublicKey{Group: p.g, Y: res.PublicKey, VK: res.VK, T: p.store.T, N: p.n}
		key.Share = frost.KeyShare{Index: res.Index, X: res.Share}
	case schemes.CKS05:
		key.Public = &cks05.PublicKey{Group: p.g, Y: res.PublicKey, VK: res.VK, T: p.store.T, N: p.n}
		key.Share = cks05.KeyShare{Index: res.Index, X: res.Share}
	default:
		return nil, fmt.Errorf("%w: scheme %s", ErrKeygenUnsupported, p.scheme)
	}
	if err := p.store.Add(key); err != nil {
		// A concurrent generation won the (scheme, id) slot.
		if errors.Is(err, keys.ErrKeyExists) {
			return nil, err
		}
		return nil, fmt.Errorf("keygen install: %w", err)
	}
	p.finalized = true
	return []byte(p.keyID), nil
}

// marshalDealing encodes one dealer's broadcast: the t+1 Feldman
// commitment points and the n sub-shares.
func marshalDealing(d *dkg.Dealing) []byte {
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

// unmarshalDealing decodes a dealer's broadcast; n bounds the expected
// sub-share count.
func unmarshalDealing(g group.Group, n int, data []byte) (*sharepkg.FeldmanCommitment, []sharepkg.Share, error) {
	r := wire.NewReader(data)
	cnt := r.Int()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if cnt < 1 || cnt > n+1 {
		return nil, nil, fmt.Errorf("dealing with %d commitment points", cnt)
	}
	pts := make([]group.Point, cnt)
	for i := 0; i < cnt; i++ {
		raw := r.Bytes()
		if err := r.Err(); err != nil {
			return nil, nil, err
		}
		pt, err := g.UnmarshalPoint(raw)
		if err != nil {
			return nil, nil, err
		}
		pts[i] = pt
	}
	scnt := r.Int()
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	if scnt != n {
		return nil, nil, fmt.Errorf("dealing with %d sub-shares for %d parties", scnt, n)
	}
	subs := make([]sharepkg.Share, scnt)
	for i := 0; i < scnt; i++ {
		subs[i] = sharepkg.Share{Index: r.Int(), Value: r.BigInt()}
	}
	if err := r.Err(); err != nil {
		return nil, nil, err
	}
	for i, s := range subs {
		if s.Index != i+1 || s.Value == nil {
			return nil, nil, fmt.Errorf("dealing sub-share %d malformed", i)
		}
	}
	return &sharepkg.FeldmanCommitment{Group: g, Points: pts}, subs, nil
}
