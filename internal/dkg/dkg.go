// Package dkg implements Pedersen's distributed key generation
// (JF-DKG, the [37] citation of the paper): the dealerless alternative
// to the trusted-dealer setup in internal/keys. Every participant deals
// a Feldman verifiable sharing of a random secret; the group key is the
// sum of the qualified dealings, and no party ever learns it.
//
// Participant holds one party's view: Deal samples and commits its
// secret, ReceiveCommitment and ReceiveSubShare check a dealer's
// commitment and this party's sub-share, and Finalize (or Combine)
// sums the qualified dealings. Each recipient checks only its own
// sub-share, so the GJKR-style complaint and justification rounds that
// settle a bad one are run by the dealing protocol in
// internal/protocols, which keeps its ledger in a ComplaintLog.
package dkg

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/share"
)

// Errors reported by the DKG.
var (
	ErrWrongRecipient = errors.New("dkg: sub-share addressed to another party")
	ErrTooFewDealers  = errors.New("dkg: fewer than t+1 qualified dealers")
)

// Dealing is participant i's round-1 output: public commitments plus one
// private sub-share per participant.
type Dealing struct {
	Dealer     int
	Commitment *share.FeldmanCommitment
	// SubShares[j-1] is f_i(j), to be sent privately to party j.
	SubShares []share.Share
}

// PublicDealing is the broadcastable part of a dealing.
type PublicDealing struct {
	Dealer     int
	Commitment *share.FeldmanCommitment
}

// Participant is one party's DKG state machine.
type Participant struct {
	g     group.Group
	index int
	t, n  int

	received map[int]share.Share              // verified sub-shares by dealer
	public   map[int]*share.FeldmanCommitment // commitments by dealer
	excluded map[int]bool
}

// NewParticipant initializes party `index` of an (t, n) DKG over g.
func NewParticipant(g group.Group, index, t, n int) (*Participant, error) {
	if err := share.ValidateParams(t, n); err != nil {
		return nil, err
	}
	if index < 1 || index > n {
		return nil, fmt.Errorf("dkg: index %d out of range", index)
	}
	return &Participant{
		g: g, index: index, t: t, n: n,
		received: make(map[int]share.Share, n),
		public:   make(map[int]*share.FeldmanCommitment, n),
		excluded: make(map[int]bool),
	}, nil
}

// Deal is round 1: sample a random secret, share it, and commit.
func (p *Participant) Deal(rand io.Reader) (*Dealing, error) {
	secret, err := p.g.RandomScalar(rand)
	if err != nil {
		return nil, fmt.Errorf("sample secret: %w", err)
	}
	poly, err := share.NewPolynomial(rand, secret, p.t, p.g.Order())
	if err != nil {
		return nil, err
	}
	com, err := poly.Commit(p.g)
	if err != nil {
		return nil, err
	}
	d := &Dealing{Dealer: p.index, Commitment: com, SubShares: poly.Shares(p.n)}
	// Account for the self-dealt sub-share immediately.
	p.public[p.index] = com
	p.received[p.index] = d.SubShares[p.index-1]
	return d, nil
}

// ReceiveCommitment records a dealer's broadcast commitment.
func (p *Participant) ReceiveCommitment(pd *PublicDealing) error {
	if pd == nil || pd.Commitment == nil || pd.Dealer < 1 || pd.Dealer > p.n {
		return fmt.Errorf("dkg: malformed public dealing")
	}
	if len(pd.Commitment.Points) != p.t+1 {
		p.excluded[pd.Dealer] = true
		return fmt.Errorf("dkg: dealer %d committed to degree %d, want %d",
			pd.Dealer, len(pd.Commitment.Points)-1, p.t)
	}
	p.public[pd.Dealer] = pd.Commitment
	return nil
}

// ReceiveSubShare is round 2: verify dealer's private sub-share against
// its commitment. A dealer whose share fails is never added to the
// received set, so it stays unqualified.
func (p *Participant) ReceiveSubShare(dealer int, s share.Share) error {
	if s.Index != p.index {
		return ErrWrongRecipient
	}
	com, ok := p.public[dealer]
	if !ok {
		return fmt.Errorf("dkg: no commitment from dealer %d yet", dealer)
	}
	if p.excluded[dealer] {
		return fmt.Errorf("dkg: dealer %d already disqualified", dealer)
	}
	if !com.VerifyShare(s) {
		return fmt.Errorf("dkg: dealer %d sent an invalid sub-share", dealer)
	}
	p.received[dealer] = s.Clone()
	return nil
}

// Qualified returns the sorted set of dealers whose sub-share and
// commitment verified.
func (p *Participant) Qualified() []int {
	out := make([]int, 0, len(p.received))
	for dealer := range p.received {
		if !p.excluded[dealer] {
			out = append(out, dealer)
		}
	}
	sort.Ints(out)
	return out
}

// Result is the outcome of the DKG for one party.
type Result struct {
	// Index is the party, Share its secret key share x_i.
	Index int
	Share *big.Int
	// PublicKey is the group key Y = x*G; VK are per-party verification
	// keys x_j*G for the qualified polynomial.
	PublicKey group.Point
	VK        []group.Point
	Qualified []int
}

// Finalize combines the qualified dealings into the final key share and
// group public key. All honest parties that agree on the qualified set
// derive a consistent (t, n) sharing whose secret nobody knows.
func (p *Participant) Finalize() (*Result, error) {
	return Combine(p.g, p.index, p.t, p.n, p.Qualified(), p.public, p.received)
}

// Combine sums the dealings of the qualified dealers qual: party
// index's key share from its sub-shares subs, and the group key and
// the n verification keys from the commitments coms, summed once into
// one commitment that is then evaluated at 1..n. Both maps are keyed by
// dealer and must hold every dealer in qual.
func Combine(g group.Group, index, t, n int, qual []int,
	coms map[int]*share.FeldmanCommitment, subs map[int]share.Share) (*Result, error) {
	if len(qual) < t+1 {
		return nil, ErrTooFewDealers
	}
	// x_i = Σ_{d ∈ QUAL} f_d(i)
	xi := new(big.Int)
	for _, dealer := range qual {
		xi = mathutil.AddMod(xi, subs[dealer].Value, g.Order())
	}
	// The qualified commitments sum to the commitment to the group
	// polynomial Σ_d f_d: Y is its constant term, VK_j its value at j.
	qcoms := make([]*share.FeldmanCommitment, len(qual))
	for i, dealer := range qual {
		qcoms[i] = coms[dealer]
	}
	folded, err := share.Fold(g, qcoms, nil)
	if err != nil {
		return nil, err
	}
	vk := make([]group.Point, n)
	for j := 1; j <= n; j++ {
		vk[j-1] = folded.EvalInExponent(j)
	}
	return &Result{
		Index:     index,
		Share:     xi,
		PublicKey: folded.PublicKey(),
		VK:        vk,
		Qualified: qual,
	}, nil
}
