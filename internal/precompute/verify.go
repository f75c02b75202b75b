package precompute

import (
	"errors"
	"sync/atomic"

	"thetacrypt/internal/group"
)

// ErrRelation is Verify's verdict when a relation does not hold. Callers
// wrap it with their scheme-level rejection: each Verify call covers
// exactly one share's relations, so attribution is theirs.
var ErrRelation = errors.New("precompute: relation does not hold")

// Verifier checks the linear point relations of one peer share's proof
// directly, each as written, and counts the work. An engine runs one
// worker, so its shares are checked one at a time and there is nothing
// to batch. Concurrent calls are safe; each gets its own verdict. A nil
// *Verifier checks without counting.
type Verifier struct {
	checks    atomic.Int64
	relations atomic.Int64
}

// Verify returns nil when every relation holds and ErrRelation
// otherwise. A call with relations counts as one check.
func (v *Verifier) Verify(g group.Group, rels []group.Relation) error {
	if len(rels) == 0 {
		return nil
	}
	if v != nil {
		v.checks.Add(1)
		v.relations.Add(int64(len(rels)))
	}
	for _, rel := range rels {
		if !rel.Holds(g) {
			return ErrRelation
		}
	}
	return nil
}

// Stats snapshots the counters (zero on a nil *Verifier).
func (v *Verifier) Stats() Stats {
	if v == nil {
		return Stats{}
	}
	return Stats{BatchesVerified: v.checks.Load(), BatchedRelations: v.relations.Load()}
}
