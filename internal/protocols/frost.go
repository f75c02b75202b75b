package protocols

import (
	"errors"
	"fmt"
	"io"

	"thetacrypt/internal/schemes/frost"
)

// frostProtocol is the FROST (KG20) signing protocol behind the TRI:
// the two-round flow of Komlo and Goldberg. Round 1 exchanges nonce
// commitments among the a-priori fixed signer group (the lowest t+1
// indices), round 2 exchanges signature shares. Every instance draws
// its own nonce pair in round 1 and signs with it at most once.
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
// waiting until it expires, with the culprit named.
type frostProtocol struct {
	rand io.Reader
	pk   *frost.PublicKey
	ks   frost.KeyShare
	msg  []byte

	signers []int // the fixed signer group, ascending
	inGroup bool

	started     bool // round 1 ran
	nonce       *frost.Nonce
	signed      bool // the own share is computed (the nonce is spent)
	sent        bool // the own share went out
	commitments map[int]*frost.NonceCommitment
	pending     map[int][]byte                // share payloads awaiting the commitment set
	shares      map[int]*frost.SignatureShare // unverified, the own share included
	// rejected marks signers whose share failed verification; their
	// later shares are ignored. nil until a share fails.
	rejected  map[int]bool
	sig       []byte // the verified signature, once every share is in
	finalized bool
}

// newFrost creates a FROST signing instance for the key share ks under
// the group public key pk.
func newFrost(rand io.Reader, pk *frost.PublicKey, ks frost.KeyShare, msg []byte) Protocol {
	signers := make([]int, pk.T+1)
	for i := range signers {
		signers[i] = i + 1
	}
	return &frostProtocol{
		rand: rand, pk: pk, ks: ks, msg: msg,
		signers:     signers,
		inGroup:     ks.Index <= pk.T+1,
		commitments: make(map[int]*frost.NonceCommitment, pk.T+1),
		pending:     make(map[int][]byte),
		shares:      make(map[int]*frost.SignatureShare, pk.T+1),
	}
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
	if !p.started {
		p.started = true
		return p.commit()
	}
	// Round 2. sign is a no-op when the Update that completed the set
	// already signed; it signs here when the own commitment did.
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
	return &RoundOutput{Round: 2, Payload: p.shares[p.ks.Index].Marshal()}, nil
}

// owesShare reports whether this signer's share is computed but not
// yet sent.
func (p *frostProtocol) owesShare() bool { return p.signed && !p.sent }

// commit runs round 1: generate a nonce pair and broadcast its
// commitment.
func (p *frostProtocol) commit() (*RoundOutput, error) {
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

// sign computes this signer's share once its nonce and the complete
// commitment set are known; the next DoRound sends it. It signs at most
// once per instance.
func (p *frostProtocol) sign() error {
	if !p.inGroup || p.signed || p.nonce == nil || !p.commitmentSetComplete() {
		return nil
	}
	p.signed = true
	ss, err := frost.Sign(p.pk, p.ks, p.nonce, p.msg, p.commitmentList())
	if err != nil {
		return fmt.Errorf("frost signing: %w", err)
	}
	p.shares[ss.Index] = ss
	return nil
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

// updateCommitment handles a round-1 commitment; the one that
// completes the set lets this signer sign.
func (p *frostProtocol) updateCommitment(msg ProtocolMessage) error {
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

// updateShare handles a round-2 signature share.
func (p *frostProtocol) updateShare(msg ProtocolMessage) error {
	if !p.commitmentSetComplete() {
		// Shares can arrive before the last commitment on slow links;
		// they are checked once the set is complete.
		p.pending[msg.Sender] = msg.Payload
		return nil
	}
	return p.acceptShare(msg.Sender, msg.Payload)
}

// drainPending takes in the parked share messages once the commitment
// set is complete and returns their rejections, each naming its sender.
func (p *frostProtocol) drainPending() error {
	if !p.commitmentSetComplete() {
		return nil
	}
	var rejections []error
	for sender, payload := range p.pending {
		if err := p.acceptShare(sender, payload); err != nil {
			rejections = append(rejections, err)
		}
		delete(p.pending, sender)
	}
	return errors.Join(rejections...)
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
	case ss.Z.Cmp(p.pk.Group.Order()) >= 0: // the decoder admits no negative z
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
		if verr := frost.VerifyShare(p.pk, p.msg, comms, ss); verr != nil {
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
	case p.owesShare(), !p.started:
		return true
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
