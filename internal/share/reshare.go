package share

import (
	"fmt"
	"io"
	"math/big"
	"sort"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
)

// Proactive resharing (in the spirit of the paper's CHURP citation
// [32]): holders of a (t, n) sharing jointly refresh their shares — or
// migrate to a new (t', n') committee — without ever reconstructing the
// secret. Each participating holder deals a degree-t' sub-sharing of
// its OWN share; the new share of party j is the Lagrange-weighted sum
// of the sub-shares it received. Feldman commitments make every step
// verifiable against the existing verification keys.

// ReshareDealing is one old holder's contribution to the refresh.
type ReshareDealing struct {
	// Dealer is the old share index the sub-sharing descends from.
	Dealer int
	// Commitment commits to the dealer's sub-polynomial; its public key
	// must equal the dealer's old verification key share*G.
	Commitment *FeldmanCommitment
	// SubShares[j-1] goes privately to new party j.
	SubShares []Share
}

// Reshare produces an old holder's dealing for a new (newT, newN)
// committee.
func Reshare(rand io.Reader, g group.Group, oldShare Share, newT, newN int) (*ReshareDealing, error) {
	if err := ValidateParams(newT, newN); err != nil {
		return nil, err
	}
	poly, err := NewPolynomial(rand, oldShare.Value, newT, g.Order())
	if err != nil {
		return nil, err
	}
	com, err := poly.Commit(g)
	if err != nil {
		return nil, err
	}
	return &ReshareDealing{
		Dealer:     oldShare.Index,
		Commitment: com,
		SubShares:  poly.Shares(newN),
	}, nil
}

// VerifyReshareDealing checks a dealing against the dealer's old
// verification key (oldVK = oldShare*G): the sub-polynomial must share
// exactly the dealer's old share.
func VerifyReshareDealing(g group.Group, dealing *ReshareDealing, oldVK group.Point, newT int) error {
	if dealing == nil || dealing.Commitment == nil {
		return fmt.Errorf("share: nil reshare dealing")
	}
	if len(dealing.Commitment.Points) != newT+1 {
		return fmt.Errorf("share: reshare degree %d, want %d",
			len(dealing.Commitment.Points)-1, newT)
	}
	if !dealing.Commitment.PublicKey().Equal(oldVK) {
		return fmt.Errorf("share: dealer %d resharing a value that is not its share", dealing.Dealer)
	}
	return nil
}

// CombineReshares derives new party j's refreshed share from the
// verified sub-shares of a quorum of oldT+1 old holders: the oldT+1
// lowest dealer indices, so every node given the same sub-shares
// combines the same quorum. The old secret is preserved:
// f'(0) = Σ λ_d f_d(0) = Σ λ_d s_d = s.
func CombineReshares(g group.Group, j, oldT int, subShares map[int]Share) (*big.Int, error) {
	dealers, err := quorumDealers(subShares, oldT)
	if err != nil {
		return nil, err
	}
	lambdas, err := Coefficients(dealers, g.Order())
	if err != nil {
		return nil, err
	}
	acc := new(big.Int)
	for _, d := range dealers {
		s := subShares[d]
		if s.Index != j {
			return nil, fmt.Errorf("share: sub-share addressed to %d, not %d", s.Index, j)
		}
		acc = mathutil.AddMod(acc, mathutil.MulMod(lambdas[d], s.Value, g.Order()), g.Order())
	}
	return acc, nil
}

// NewVerificationKeys recomputes the new committee's verification keys
// and the group key from the commitments of the oldT+1 lowest dealer
// indices. It folds those commitments under the dealers' Lagrange
// coefficients into the commitment to the new polynomial
// f' = Σ λ_d f_d, and evaluates that once per new party:
// VK'_j = f'(j)*G, and the group key is its constant term f'(0)*G.
func NewVerificationKeys(g group.Group, oldT, newN int, commitments map[int]*FeldmanCommitment) ([]group.Point, group.Point, error) {
	dealers, err := quorumDealers(commitments, oldT)
	if err != nil {
		return nil, nil, err
	}
	lambdas, err := Coefficients(dealers, g.Order())
	if err != nil {
		return nil, nil, err
	}
	coms := make([]*FeldmanCommitment, len(dealers))
	weights := make([]*big.Int, len(dealers))
	for i, d := range dealers {
		coms[i], weights[i] = commitments[d], lambdas[d]
	}
	folded, err := Fold(g, coms, weights)
	if err != nil {
		return nil, nil, err
	}
	vk := make([]group.Point, newN)
	for j := 1; j <= newN; j++ {
		vk[j-1] = folded.EvalInExponent(j)
	}
	return vk, folded.PublicKey(), nil
}

// quorumDealers returns the oldT+1 lowest dealer indices of m. Taking
// any other oldT+1 would be as valid, but nodes that picked different
// quorums would derive different sharings.
func quorumDealers[V any](m map[int]V, oldT int) ([]int, error) {
	if len(m) < oldT+1 {
		return nil, ErrNotEnoughShares
	}
	dealers := make([]int, 0, len(m))
	for d := range m {
		dealers = append(dealers, d)
	}
	sort.Ints(dealers)
	return dealers[:oldT+1], nil
}
