// Package precompute counts the share checks the threshold schemes run.
// Its Verifier runs one direct check per peer share of SG02 and CKS05:
// the linear point relations of its DLEQ proof, each as written, and
// counts the checks and relations. BLS04 and KG20 shares never reach
// it: their signatures verify themselves, so those schemes check the
// combined result once instead.
package precompute

import "io"

// Options is empty and unused. It stays only as NewSuite's second
// argument.
type Options struct{}

// Stats is a point-in-time snapshot of a Verifier's counters, exported
// through the engine's stats and /v2/info.
type Stats struct {
	// BatchesVerified counts peer-share checks, one per Verify call with
	// relations; BatchedRelations counts the relations they checked.
	BatchesVerified  int64
	BatchedRelations int64
}

// Suite holds one Verifier. Suite, NewSuite and Options stay only
// because benchmark code outside this package calls
// NewSuite(rand.Reader, Options{}).Verifier(); the engine holds its
// Verifier directly.
type Suite struct {
	verify Verifier
}

// NewSuite builds a suite. Neither argument is used.
func NewSuite(_ io.Reader, _ Options) *Suite {
	return &Suite{}
}

// Verifier returns the suite's counting share checker.
func (s *Suite) Verifier() *Verifier {
	return &s.verify
}
