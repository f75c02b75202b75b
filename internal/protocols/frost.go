package protocols

import (
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
// FROST is not robust: the protocol waits for the contributions of all
// signers in the group, and an invalid share aborts the instance at
// finalization while identifying the culprit. A signer that lost its
// banked nonce for a claimed slot (e.g. a restart) cannot join that
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
	round       int
	nonce       *frost.Nonce
	pooledSeq   uint64
	seqKnown    bool
	commitments map[int]*frost.NonceCommitment
	pending     map[int]pendingShare // share payloads awaiting verification
	shares      map[int]*frost.SignatureShare
	finalized   bool
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
// The zero value disables pooling, caching, and batching.
type frostEnv struct {
	src       share.CoefficientSource
	batch     *precompute.BatchVerifier
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
// the group public key pk, with no engine environment (no pool, direct
// verification). If nonce and preComms are non-nil (a precomputed batch
// entry plus the pre-exchanged commitments of the whole signer group),
// round 1 is skipped.
func NewFrost(rand io.Reader, pk *frost.PublicKey, ks frost.KeyShare, msg []byte, nonce *frost.Nonce, preComms []*frost.NonceCommitment) Protocol {
	p := newFrostWith(rand, pk, ks, msg, frostEnv{}).(*frostProtocol)
	if nonce != nil && preComms != nil {
		p.nonce = nonce
		for _, c := range preComms {
			p.commitments[c.Index] = c
		}
		p.round = 2
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
	case p.round == 2:
		p.round = 0
		if !p.inGroup {
			return nil, nil
		}
		ss, err := frost.SignWith(p.env.src, p.pk, p.ks, p.nonce, p.msg, p.commitmentList())
		if err != nil {
			return nil, fmt.Errorf("frost round 2: %w", err)
		}
		p.shares[ss.Index] = ss
		if p.mode == frostModePooled {
			// Follower's single message: the round-3 reply.
			return &RoundOutput{Round: 3,
				Payload: marshalPooled(p.pooledSeq, nil, ss)}, nil
		}
		return &RoundOutput{Round: 2, Payload: ss.Marshal()}, nil
	default:
		return nil, nil
	}
}

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
	ss, err := frost.SignWith(p.env.src, p.pk, p.ks, nonce, p.msg, p.commitmentList())
	if err != nil {
		// The nonce is already consumed (consume-then-sign); failing
		// here aborts the instance rather than ever reusing it.
		return nil, true, fmt.Errorf("frost pooled round: %w", err)
	}
	p.shares[ss.Index] = ss
	return &RoundOutput{Round: 3,
		Payload: marshalPooled(seq, p.commitmentList(), ss)}, true, nil
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
	if p.finalized {
		return nil
	}
	switch msg.Round {
	case 1:
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
		p.drainPending()
		return nil
	case 2:
		if p.mode == frostModePooled {
			return fmt.Errorf("%w: fresh share from %d in a pooled run", ErrShareRejected, msg.Sender)
		}
		p.mode = frostModeFresh
		if !p.commitmentSetComplete() {
			// Shares can arrive before the last commitment on slow
			// links; verification is deferred until the set is complete.
			p.pending[msg.Sender] = pendingShare{round: 2, payload: msg.Payload}
			return nil
		}
		return p.acceptShare(msg.Sender, msg.Payload)
	case 3:
		return p.updatePooled(msg)
	default:
		return fmt.Errorf("%w: unknown round %d", ErrShareRejected, msg.Round)
	}
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
		// no commitment set to verify against: park it.
		shareRaw := r.Bytes()
		if err := r.Err(); err != nil {
			return fmt.Errorf("%w: truncated pooled reply from %d", ErrShareRejected, msg.Sender)
		}
		p.mode = frostModePooled
		if !p.seqKnown || !p.commitmentSetComplete() {
			p.pending[msg.Sender] = pendingShare{round: 3, payload: msg.Payload}
			return nil
		}
		if seq != p.pooledSeq {
			return fmt.Errorf("%w: pooled reply for slot %d, run uses %d", ErrShareRejected, seq, p.pooledSeq)
		}
		return p.acceptShare(msg.Sender, shareRaw)
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
	if err := p.acceptShare(msg.Sender, shareRaw); err != nil {
		return err
	}
	p.drainPending()
	return nil
}

func (p *frostProtocol) drainPending() {
	if !p.commitmentSetComplete() {
		return
	}
	for sender, ps := range p.pending {
		// Invalid queued shares are dropped; FROST aborts at combine if
		// the signer set is incomplete.
		switch ps.round {
		case 2:
			_ = p.acceptShare(sender, ps.payload)
		case 3:
			r := wire.NewReader(ps.payload)
			seq := r.Uint64()
			r.Int() // count, zero for replies
			shareRaw := r.Bytes()
			if r.Err() == nil && p.seqKnown && seq == p.pooledSeq {
				_ = p.acceptShare(sender, shareRaw)
			}
		}
		delete(p.pending, sender)
	}
}

func (p *frostProtocol) acceptShare(sender int, payload []byte) error {
	ss, err := frost.UnmarshalSignatureShare(payload)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if ss.Index != sender {
		return fmt.Errorf("%w: share index %d from sender %d", ErrShareRejected, ss.Index, sender)
	}
	rels, err := frost.ShareRelations(p.env.src, p.pk, p.msg, p.commitmentList(), ss)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, err)
	}
	if err := p.env.batch.Verify(p.pk.Group, rels); err != nil {
		return fmt.Errorf("%w: %v", ErrShareRejected, frost.ErrInvalidShare)
	}
	p.shares[ss.Index] = ss
	return nil
}

func (p *frostProtocol) IsReadyForNextRound() bool {
	if p.finalized || !p.inGroup {
		return false
	}
	if _, signed := p.shares[p.ks.Index]; signed {
		return false
	}
	switch p.mode {
	case frostModeUndecided:
		return false
	case frostModePooled:
		// Follower path: slot claimed, commitment set known, not signed.
		if p.nonce != nil && p.commitmentSetComplete() {
			p.round = 2
			return true
		}
		return false
	default:
		if p.round == 1 {
			// A deferred follower whose run turned out fresh still owes
			// its round 1.
			return p.nonce == nil
		}
		if p.round != 0 || p.nonce == nil {
			return false
		}
		if p.commitmentSetComplete() {
			p.round = 2
			return true
		}
		return false
	}
}

func (p *frostProtocol) IsReadyToFinalize() bool {
	if p.finalized || !p.commitmentSetComplete() {
		return false
	}
	p.drainPending()
	for _, idx := range p.signers {
		if _, ok := p.shares[idx]; !ok {
			return false
		}
	}
	return true
}

func (p *frostProtocol) Finalize() ([]byte, error) {
	if !p.IsReadyToFinalize() {
		return nil, ErrNotReady
	}
	shares := make([]*frost.SignatureShare, 0, len(p.signers))
	for _, idx := range p.signers {
		shares = append(shares, p.shares[idx])
	}
	sig, err := frost.Combine(p.pk, p.msg, p.commitmentList(), shares)
	if err != nil {
		return nil, err
	}
	p.finalized = true
	return sig.Marshal(), nil
}
