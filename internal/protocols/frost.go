package protocols

import (
	"errors"
	"fmt"
	"io"

	"thetacrypt/internal/precompute"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// frostProtocol is the FROST (KG20) signing protocol behind the TRI.
//
// Fresh mode is the paper's two-round protocol: round 1 exchanges nonce
// commitments among the a-priori fixed signer group (the lowest t+1
// indices), round 2 exchanges signature shares.
//
// Pooled mode is FROST's single-round optimization backed by the
// engine's preprocessed nonce pool: the initiator consumes a banked
// slot whose commitments every signer already holds, signs immediately,
// and broadcasts one round-3 message carrying the slot's sequence
// number, the commitment set, and its own signature share. Each signer
// claims the same slot from its local pool (consuming the secret nonce
// BEFORE signing) and answers with a round-3 reply carrying just its
// share — one message round end to end. A cold or exhausted pool
// degrades to the fresh two-round path; it never fails the request.
//
// When pooling is enabled and the initiator is inside the signer
// group, a non-initiating signer defers its first round until a message
// reveals which mode the initiator chose (round 1/2 → fresh, round 3 →
// pooled). An initiator outside the signer group can never open a
// pooled round (it banks no nonces), so in that case — and with pooling
// disabled — everyone starts in fresh mode directly, byte-identical to
// the pre-pool behavior.
//
// A signer signs inside the Update that completes its commitment set
// and sends the share at the next DoRound. Peer shares are stored
// after the structural checks alone (decoding, index equal to the
// sender, membership in the signer group, z in [0, q)). Once every
// signer's share is in, the Update that completed the set combines
// them and runs the one Schnorr verification frost.Combine ends in
// (the FROST aggregator flow). Only if that fails are the peer shares
// verified one by one: each bad one is dropped and rejected with
// ErrShareRejected naming its signer, whose later shares are ignored.
//
// FROST is not robust: the protocol waits for the contributions of all
// signers in the group, so a rejected signer leaves the instance
// waiting until it expires, with the culprit named. A signer that lost
// its banked nonce for a claimed slot (e.g. a restart) cannot join that
// pooled round and fails the instance locally.
type frostProtocol struct {
	rand io.Reader
	pk   *frost.PublicKey
	ks   frost.KeyShare
	msg  []byte
	env  frostEnv

	signers []int // the fixed signer group, ascending
	inGroup bool

	mode        int
	round       int // 1 while the first round is still owed
	nonce       *frost.Nonce
	signed      bool // the own share is computed (the nonce is spent)
	sent        bool // the own share went out
	pooledSeq   uint64
	seqKnown    bool
	commitments map[int]*frost.NonceCommitment
	pending     map[int]pendingShare          // share payloads awaiting the commitment set
	shares      map[int]*frost.SignatureShare // unverified, the own share included
	// rejected marks signers whose share failed verification; their
	// later shares are ignored. nil until a share fails.
	rejected  map[int]bool
	sig       []byte // the verified signature, once every share is in
	finalized bool
}

// Protocol modes; see the type comment.
const (
	frostModeUndecided = iota
	frostModeFresh
	frostModePooled
)

// pendingShare is a share message parked until the commitment set is
// complete (round 2 fresh shares and round 3 pooled replies).
type pendingShare struct {
	round   int
	payload []byte
}

// frostEnv is the engine environment threaded into a FROST instance.
// The zero value disables pooling and caching.
type frostEnv struct {
	src       share.CoefficientSource
	pool      *precompute.NoncePool
	scheme    string
	keyID     string
	epoch     int
	initiator bool
	// initiatorShare is the committee share index of the node that
	// initiated the instance (0: not a committee member / unknown). It
	// decides whether deferring on the initiator's mode choice is safe:
	// only an initiator inside the fixed signer group can ever send a
	// pooled start.
	initiatorShare int
}

// NewFrost creates a FROST signing instance for the key share ks under
// the group public key pk, with no engine environment (no pool, no
// coefficient cache). If nonce and preComms are non-nil (a precomputed
// batch entry plus the pre-exchanged commitments of the whole signer
// group), round 1 is skipped.
func NewFrost(rand io.Reader, pk *frost.PublicKey, ks frost.KeyShare, msg []byte, nonce *frost.Nonce, preComms []*frost.NonceCommitment) Protocol {
	p := newFrostWith(rand, pk, ks, msg, frostEnv{}).(*frostProtocol)
	if nonce != nil && preComms != nil {
		p.nonce = nonce
		for _, c := range preComms {
			p.commitments[c.Index] = c
		}
		p.round = 0
	}
	return p
}

// newFrostWith creates a FROST signing instance bound to the engine
// environment.
func newFrostWith(rand io.Reader, pk *frost.PublicKey, ks frost.KeyShare, msg []byte, env frostEnv) Protocol {
	signers := make([]int, pk.T+1)
	for i := range signers {
		signers[i] = i + 1
	}
	p := &frostProtocol{
		rand: rand, pk: pk, ks: ks, msg: msg, env: env,
		signers:     signers,
		inGroup:     ks.Index <= pk.T+1,
		mode:        frostModeFresh,
		round:       1,
		commitments: make(map[int]*frost.NonceCommitment, pk.T+1),
		pending:     make(map[int]pendingShare),
		shares:      make(map[int]*frost.SignatureShare, pk.T+1),
	}
	if env.pool.Enabled() {
		switch {
		case env.initiator && p.inGroup:
			p.mode = frostModePooled // attempt; DoRound may degrade to fresh
		case env.initiator:
			// Submitting node outside the signer group: it has no banked
			// nonce to open a pooled round with, so the run is fresh from
			// the start (the signers reach the same conclusion below).
		case env.initiatorShare >= 1 && env.initiatorShare <= pk.T+1:
			p.mode = frostModeUndecided // first message decides
		default:
			// The announcing node is outside the signer group (or not a
			// committee member at all): a pooled start can never come, so
			// deferring would stall the instance until expiry. Signers
			// start the fresh two-round path spontaneously — the pre-pool
			// behavior.
		}
	}
	return p
}

func (p *frostProtocol) commitmentSetComplete() bool {
	for _, idx := range p.signers {
		if _, ok := p.commitments[idx]; !ok {
			return false
		}
	}
	return true
}

func (p *frostProtocol) commitmentList() []*frost.NonceCommitment {
	out := make([]*frost.NonceCommitment, 0, len(p.signers))
	for _, idx := range p.signers {
		out = append(out, p.commitments[idx])
	}
	return out
}

func (p *frostProtocol) DoRound() (*RoundOutput, error) {
	if p.finalized {
		return nil, ErrAlreadyFinalized
	}
	switch {
	case p.round == 1 && p.mode == frostModeUndecided:
		// Deferred follower: the initiator's first message decides
		// between the fresh and pooled paths.
		return nil, nil
	case p.round == 1 && p.mode == frostModePooled:
		p.round = 0
		if out, ok, err := p.startPooled(); ok || err != nil {
			return out, err
		}
		// Cold or exhausted pool: degrade to the two-round path.
		p.mode = frostModeFresh
		return p.startFresh()
	case p.round == 1:
		p.round = 0
		return p.startFresh()
	}
	// The set was complete before any Update could sign: it was
	// pre-exchanged, or this signer's own commitment completed it.
	if err := p.sign(); err != nil {
		return nil, err
	}
	if err := p.settle(); err != nil {
		return nil, err
	}
	if !p.owesShare() {
		return nil, nil
	}
	p.sent = true
	ss := p.shares[p.ks.Index]
	if p.mode == frostModePooled {
		// Follower's single message: the round-3 reply.
		return &RoundOutput{Round: 3, Payload: marshalPooled(p.pooledSeq, nil, ss)}, nil
	}
	return &RoundOutput{Round: 2, Payload: ss.Marshal()}, nil
}

// owesShare reports whether this signer's share is computed but not
// yet sent.
func (p *frostProtocol) owesShare() bool { return p.signed && !p.sent }

// startFresh runs the classic round 1: generate a nonce pair and
// broadcast its commitment.
func (p *frostProtocol) startFresh() (*RoundOutput, error) {
	if !p.inGroup {
		return nil, nil
	}
	nonce, comm, err := frost.GenerateNonce(p.rand, p.pk.Group, p.ks.Index)
	if err != nil {
		return nil, fmt.Errorf("frost round 1: %w", err)
	}
	p.nonce = nonce
	p.commitments[comm.Index] = comm
	return &RoundOutput{Round: 1, Payload: comm.Marshal()}, nil
}

// startPooled attempts the single-round path: consume a banked slot
// with a complete commitment set, sign, and broadcast seq + set + own
// share in one message. ok is false when the pool has no usable slot.
func (p *frostProtocol) startPooled() (*RoundOutput, bool, error) {
	seq, nonce, comms, ok := p.env.pool.Acquire(p.env.scheme, p.env.keyID, p.env.epoch, p.signers)
	if !ok {
		return nil, false, nil
	}
	p.pooledSeq, p.seqKnown = seq, true
	p.nonce = nonce
	for _, c := range comms {
		p.commitments[c.Index] = c
	}
	// The nonce is already consumed (consume-then-sign); failing here
	// aborts the instance rather than ever reusing it.
	if err := p.sign(); err != nil {
		return nil, true, err
	}
	p.sent = true // the start carries the share
	if err := p.settle(); err != nil {
		return nil, true, err
	}
	return &RoundOutput{Round: 3,
		Payload: marshalPooled(seq, p.commitmentList(), p.shares[p.ks.Index])}, true, nil
}

// sign computes this signer's share once its nonce and the complete
// commitment set are known; the next DoRound sends it. It signs at most
// once per instance.
func (p *frostProtocol) sign() error {
	if !p.inGroup || p.signed || p.nonce == nil || !p.commitmentSetComplete() {
		return nil
	}
	p.signed = true
	ss, err := frost.SignWith(p.env.src, p.pk, p.ks, p.nonce, p.msg, p.commitmentList())
	if err != nil {
		return fmt.Errorf("frost signing: %w", err)
	}
	p.shares[ss.Index] = ss
	return nil
}

// marshalPooled encodes a round-3 message: the pool slot, the
// commitment set (initiator start) or none (follower reply), and the
// sender's signature share.
func marshalPooled(seq uint64, comms []*frost.NonceCommitment, ss *frost.SignatureShare) []byte {
	w := wire.NewWriter().Uint64(seq).Int(len(comms))
	for _, c := range comms {
		w.Bytes(c.Marshal())
	}
	return w.Bytes(ss.Marshal()).Out()
}

func (p *frostProtocol) Update(msg ProtocolMessage) error {
	if p.finalized || p.sig != nil {
		return nil
	}
	var err error
	switch msg.Round {
	case 1:
		err = p.updateCommitment(msg)
	case 2:
		err = p.updateShare(msg)
	case 3:
		err = p.updatePooled(msg)
	default:
		err = fmt.Errorf("%w: unknown round %d", ErrShareRejected, msg.Round)
	}
	if err != nil && Rejections(err) == nil {
		return err
	}
	// The message may have completed the commitment set (releasing the
	// parked shares) or the share set (due for its aggregate check).
	return errors.Join(err, p.drainPending(), p.settle())
}

// updateCommitment handles a fresh round-1 commitment; the one that
// completes the set lets this signer sign.
func (p *frostProtocol) updateCommitment(msg ProtocolMessage) error {
	if p.mode == frostModePooled {
		return fmt.Errorf("%w: fresh commitment from %d in a pooled run", ErrShareRejected, msg.Sender)
	}
	p.mode = frostModeFresh
	comm, err := frost.UnmarshalNonceCommitment(p.pk.Group, msg.Payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if comm.Index != msg.Sender {
		return fmt.Errorf("%w: commitment index %d from sender %d", ErrShareRejected, comm.Index, msg.Sender)
	}
	if _, dup := p.commitments[comm.Index]; dup {
		return nil // idempotent redelivery
	}
	p.commitments[comm.Index] = comm
	return p.sign()
}

// updateShare handles a fresh round-2 signature share.
func (p *frostProtocol) updateShare(msg ProtocolMessage) error {
	if p.mode == frostModePooled {
		return fmt.Errorf("%w: fresh share from %d in a pooled run", ErrShareRejected, msg.Sender)
	}
	p.mode = frostModeFresh
	if !p.commitmentSetComplete() {
		// Shares can arrive before the last commitment on slow links;
		// they are checked once the set is complete.
		p.pending[msg.Sender] = pendingShare{round: 2, payload: msg.Payload}
		return nil
	}
	return p.acceptShare(msg.Sender, msg.Payload)
}

// updatePooled handles round-3 traffic: the initiator's start (seq +
// commitment set + share) or a follower's reply (seq + share).
func (p *frostProtocol) updatePooled(msg ProtocolMessage) error {
	if p.mode == frostModeFresh && p.nonce != nil {
		return fmt.Errorf("%w: pooled message from %d in a fresh run", ErrShareRejected, msg.Sender)
	}
	r := wire.NewReader(msg.Payload)
	seq := r.Uint64()
	count := r.Int()
	if err := r.Err(); err != nil || count < 0 || count > p.pk.N {
		return fmt.Errorf("%w: malformed pooled message from %d", ErrShareRejected, msg.Sender)
	}
	if count == 0 {
		// Follower reply. Before the initiator's start arrives there is
		// no commitment set to check it against: park it.
		p.mode = frostModePooled
		if !p.seqKnown || !p.commitmentSetComplete() {
			p.pending[msg.Sender] = pendingShare{round: 3, payload: msg.Payload}
			return nil
		}
		return p.acceptReply(msg.Sender, msg.Payload)
	}

	// Initiator start.
	if p.seqKnown && seq != p.pooledSeq {
		return fmt.Errorf("%w: conflicting pooled start for slot %d, run uses %d", ErrShareRejected, seq, p.pooledSeq)
	}
	if count != len(p.signers) {
		return fmt.Errorf("%w: pooled start with %d commitments, want %d", ErrShareRejected, count, len(p.signers))
	}
	comms := make([]*frost.NonceCommitment, count)
	for i := range comms {
		c, err := frost.UnmarshalNonceCommitment(p.pk.Group, r.Bytes())
		if err != nil {
			return fmt.Errorf("%w: bad commitment in pooled start from %d", ErrShareRejected, msg.Sender)
		}
		comms[i] = c
	}
	shareRaw := r.Bytes()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: truncated pooled start from %d", ErrShareRejected, msg.Sender)
	}
	p.mode = frostModePooled
	if p.inGroup && p.nonce == nil {
		// Consume our secret for this slot BEFORE any signing can
		// happen, and cross-check the initiator's set against the
		// commitment we banked ourselves: a forged set would otherwise
		// bind our nonce to commitments we never saw.
		nonce, own, ok := p.env.pool.Claim(p.env.scheme, p.env.keyID, p.env.epoch, seq, p.ks.Index)
		if !ok {
			// Not a rejectable peer fault: without the banked secret this
			// node can never contribute, so the instance fails here
			// rather than stalling until expiry.
			return fmt.Errorf("frost: pool slot %d not banked on this node (restarted or already consumed)", seq)
		}
		var mine *frost.NonceCommitment
		for _, c := range comms {
			if c.Index == p.ks.Index {
				mine = c
				break
			}
		}
		if mine == nil || own == nil || !mine.D.Equal(own.D) || !mine.E.Equal(own.E) {
			return fmt.Errorf("frost: pooled start misrepresents this node's commitment for slot %d", seq)
		}
		p.nonce = nonce
		p.round = 0
	}
	p.pooledSeq, p.seqKnown = seq, true
	for _, c := range comms {
		if c.Index >= 1 && c.Index <= p.pk.N {
			p.commitments[c.Index] = c
		}
	}
	if !p.commitmentSetComplete() {
		return fmt.Errorf("%w: pooled start misses signer commitments", ErrShareRejected)
	}
	if err := p.sign(); err != nil {
		return err
	}
	return p.acceptShare(msg.Sender, shareRaw)
}

// drainPending takes in the parked share messages once the commitment
// set is complete and returns their rejections, each naming its sender.
func (p *frostProtocol) drainPending() error {
	if !p.commitmentSetComplete() {
		return nil
	}
	var rejections []error
	for sender, ps := range p.pending {
		accept := p.acceptShare
		if ps.round == 3 {
			accept = p.acceptReply
		}
		if err := accept(sender, ps.payload); err != nil {
			rejections = append(rejections, err)
		}
		delete(p.pending, sender)
	}
	return errors.Join(rejections...)
}

// acceptReply checks a follower's pooled reply against the run's slot
// and stores its share.
func (p *frostProtocol) acceptReply(sender int, payload []byte) error {
	r := wire.NewReader(payload)
	seq := r.Uint64()
	r.Int() // count, zero for replies
	shareRaw := r.Bytes()
	if err := r.Err(); err != nil {
		return rejectShare(sender, fmt.Errorf("truncated pooled reply: %v", err))
	}
	if !p.seqKnown {
		// The set came from fresh commitments: no slot to reply to.
		return rejectShare(sender, errors.New("pooled reply in a fresh run"))
	}
	if seq != p.pooledSeq {
		return rejectShare(sender, fmt.Errorf("pooled reply for slot %d, run uses %d", seq, p.pooledSeq))
	}
	return p.acceptShare(sender, shareRaw)
}

// acceptShare stores a peer's signature share after the structural
// checks alone; settle verifies the complete set.
func (p *frostProtocol) acceptShare(sender int, payload []byte) error {
	if _, dup := p.shares[sender]; dup || p.rejected[sender] {
		return nil
	}
	ss, err := frost.UnmarshalSignatureShare(payload)
	switch {
	case err != nil:
		return rejectShare(sender, err)
	case ss.Index != sender:
		return rejectShare(sender, fmt.Errorf("share index %d", ss.Index))
	case ss.Index < 1 || ss.Index > len(p.signers):
		// The signer group is the lowest t+1 indices.
		return rejectShare(sender, frost.ErrNotInSignerSet)
	case ss.Z.Sign() < 0 || ss.Z.Cmp(p.pk.Group.Order()) >= 0:
		return rejectShare(sender, frost.ErrInvalidShare)
	}
	p.shares[ss.Index] = ss
	return nil
}

// settle runs the aggregate check once every signer's share is in:
// frost.Combine ends in one Schnorr verification against the group
// key. Only if it fails are the peer shares verified one by one; the
// bad ones are dropped, their signers remembered, and the rejections
// returned.
func (p *frostProtocol) settle() error {
	if p.sig != nil || len(p.shares) < len(p.signers) {
		return nil
	}
	comms := p.commitmentList()
	shares := make([]*frost.SignatureShare, 0, len(p.signers))
	for _, idx := range p.signers {
		shares = append(shares, p.shares[idx])
	}
	sig, err := frost.Combine(p.pk, p.msg, comms, shares)
	if err == nil {
		p.sig = sig.Marshal()
		return nil
	}
	var rejections []error
	for _, ss := range shares {
		if ss.Index == p.ks.Index && p.signed {
			continue // made here by sign
		}
		if verr := frost.VerifyShareWith(p.env.src, p.pk, p.msg, comms, ss); verr != nil {
			if p.rejected == nil {
				p.rejected = make(map[int]bool)
			}
			delete(p.shares, ss.Index)
			p.rejected[ss.Index] = true
			rejections = append(rejections, rejectShare(ss.Index, verr))
		}
	}
	if len(rejections) == 0 {
		// Every peer share checks out, so the own share must be bad.
		return fmt.Errorf("frost: valid peer shares do not combine: %w", err)
	}
	return errors.Join(rejections...)
}

func (p *frostProtocol) IsReadyForNextRound() bool {
	if p.finalized || !p.inGroup {
		return false
	}
	switch {
	case p.owesShare():
		return true
	case p.round == 1:
		// A deferred follower whose run turned out fresh still owes
		// its round 1.
		return p.mode == frostModeFresh
	default:
		// The own commitment completed the set: sign in DoRound.
		return !p.signed && p.nonce != nil && p.commitmentSetComplete()
	}
}

// IsReadyToFinalize holds once the shares verified and this signer's
// own share went out: the other signers wait for it.
func (p *frostProtocol) IsReadyToFinalize() bool {
	return !p.finalized && p.sig != nil && !p.owesShare()
}

func (p *frostProtocol) Finalize() ([]byte, error) {
	if !p.IsReadyToFinalize() {
		return nil, ErrNotReady
	}
	p.finalized = true
	return p.sig, nil
}
