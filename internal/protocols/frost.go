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
// The commitment that completes the set builds the instance's one
// frost.Session: the binding factors, the group commitment R (one
// variable-time multi-scalar multiplication over public values), the
// challenge and the Lagrange coefficients are derived there once, and
// signing, the combine and the fallback share checks all read them.
//
// A signer signs inside the Update that completes its commitment set
// and sends the share at the next DoRound. Round 2 is a lazy share
// quorum over the signer group: peer shares are stored after the
// structural checks alone (decoding, index equal to the sender,
// membership in the signer group, z in [0, q)), and the update that
// completes the set combines them and runs the one Schnorr verification
// Session.Combine ends in (the FROST aggregator flow). Only if that
// fails are the peer shares verified one by one: each bad one is
// dropped and rejected with ErrShareRejected naming its signer, whose
// later shares are ignored.
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
	session     *frost.Session                 // built when the commitment set completes
	pending     map[int][]byte                 // share payloads awaiting the commitment set
	round2      *quorum[*frost.SignatureShare] // the signature shares
	finalized   bool
}

// newFrost creates a FROST signing instance for the key share ks under
// the group public key pk.
func newFrost(rand io.Reader, pk *frost.PublicKey, ks frost.KeyShare, msg []byte) Protocol {
	signers := make([]int, pk.T+1)
	for i := range signers {
		signers[i] = i + 1
	}
	p := &frostProtocol{
		rand: rand, pk: pk, ks: ks, msg: msg,
		signers:     signers,
		inGroup:     ks.Index <= pk.T+1,
		commitments: make(map[int]*frost.NonceCommitment, pk.T+1),
		pending:     make(map[int][]byte),
	}
	p.round2 = &quorum[*frost.SignatureShare]{need: len(signers), own: ks.Index, lazy: true,
		decode: func(b []byte) (*frost.SignatureShare, error) {
			ss, err := frost.UnmarshalSignatureShare(b)
			switch {
			case err != nil:
				return nil, err
			case ss.Index < 1 || ss.Index > len(signers):
				// The signer group is the lowest t+1 indices.
				return nil, frost.ErrNotInSignerSet
			case ss.Z.Cmp(pk.Group.Order()) >= 0: // the decoder admits no negative z
				return nil, frost.ErrInvalidShare
			}
			return ss, nil
		},
		index: func(ss *frost.SignatureShare) int { return ss.Index },
		check: func(ss *frost.SignatureShare) error { return p.session.VerifyShare(ss) },
		combine: func(shares []*frost.SignatureShare) ([]byte, error) {
			sig, err := p.session.Combine(shares)
			if err != nil {
				return nil, err
			}
			return sig.Marshal(), nil
		},
	}
	return p
}

// addCommitment stores a signer's commitment; the one that completes
// the set builds the signing session.
func (p *frostProtocol) addCommitment(comm *frost.NonceCommitment) error {
	p.commitments[comm.Index] = comm
	if p.session != nil {
		return nil
	}
	list := make([]*frost.NonceCommitment, 0, len(p.signers))
	for _, idx := range p.signers {
		c, ok := p.commitments[idx]
		if !ok {
			return nil
		}
		list = append(list, c)
	}
	s, err := frost.NewSession(p.pk, p.msg, list)
	if err != nil {
		return fmt.Errorf("frost session: %w", err)
	}
	p.session = s
	return nil
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
	if !p.owesShare() {
		return nil, nil
	}
	p.sent = true
	return &RoundOutput{Round: 2, Payload: p.round2.shares[p.ks.Index].Marshal()}, nil
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
	if err := p.addCommitment(comm); err != nil {
		return nil, err
	}
	return &RoundOutput{Round: 1, Payload: comm.Marshal()}, nil
}

// sign computes this signer's share once its nonce and the complete
// commitment set are known; the next DoRound sends it. It signs at most
// once per instance.
func (p *frostProtocol) sign() error {
	if !p.inGroup || p.signed || p.nonce == nil || p.session == nil {
		return nil
	}
	p.signed = true
	ss, err := p.session.Sign(p.ks, p.nonce)
	if err != nil {
		return fmt.Errorf("frost signing: %w", err)
	}
	return p.round2.addOwn(ss)
}

func (p *frostProtocol) Update(msg ProtocolMessage) error {
	if p.finalized || p.round2.done {
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
	// A commitment that completed the set releases the parked shares.
	return errors.Join(err, p.drainPending())
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
	if err := p.addCommitment(comm); err != nil {
		return err
	}
	return p.sign()
}

// updateShare handles a round-2 signature share.
func (p *frostProtocol) updateShare(msg ProtocolMessage) error {
	if p.session == nil {
		// Shares can arrive before the last commitment on slow links;
		// they are checked once the set is complete.
		p.pending[msg.Sender] = msg.Payload
		return nil
	}
	return p.round2.add(msg.Sender, msg.Payload)
}

// drainPending takes in the parked share messages once the commitment
// set is complete and returns their rejections, each naming its sender.
func (p *frostProtocol) drainPending() error {
	if p.session == nil {
		return nil
	}
	var rejections []error
	for sender, payload := range p.pending {
		if err := p.round2.add(sender, payload); err != nil {
			rejections = append(rejections, err)
		}
		delete(p.pending, sender)
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
		return !p.signed && p.nonce != nil && p.session != nil
	}
}

// IsReadyToFinalize holds once the shares verified and this signer's
// own share went out: the other signers wait for it.
func (p *frostProtocol) IsReadyToFinalize() bool {
	return !p.finalized && p.round2.done && !p.owesShare()
}

func (p *frostProtocol) Finalize() ([]byte, error) {
	if !p.IsReadyToFinalize() {
		return nil, ErrNotReady
	}
	p.finalized = true
	return p.round2.result, nil
}
