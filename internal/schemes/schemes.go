// Package schemes defines the common vocabulary of the cryptographic
// core: scheme identifiers and their registry. The concrete schemes
// live in the child packages sg02, bz03, sh00, bls04, frost, and cks05.
package schemes

import (
	"errors"
	"fmt"
	"slices"
)

// ErrUnknown is wrapped by every failed registry lookup, so callers
// (api.ValidateRequest) can distinguish "no such scheme" from other
// validation failures without string matching.
var ErrUnknown = errors.New("schemes: unknown scheme")

// ID identifies a scheme implementation.
type ID string

// The six schemes of the paper's Table 1.
const (
	SG02  ID = "SG02"
	BZ03  ID = "BZ03"
	SH00  ID = "SH00"
	BLS04 ID = "BLS04"
	KG20  ID = "KG20"
	CKS05 ID = "CKS05"
)

// Info describes a registered scheme.
type Info struct {
	ID ID
}

// registry lists the schemes in the paper's Table 1 order.
var registry = []ID{SH00, KG20, BLS04, SG02, BZ03, CKS05}

// Lookup returns the registry entry for an ID.
func Lookup(id ID) (Info, error) {
	if slices.Contains(registry, id) {
		return Info{ID: id}, nil
	}
	return Info{}, fmt.Errorf("%w %q", ErrUnknown, id)
}

// All returns the scheme IDs in registry order.
func All() []ID {
	return slices.Clone(registry)
}
