package dkg

import "sort"

// ComplaintLog tracks the complaint/justification state of a dealing
// run: who complained against which dealer, and which of those
// complaints a valid justification has since discharged. It is
// deliberately order-independent — a justification may be recorded
// before the complaint it answers (messages from faster peers can
// overtake slower ones across links) and the resolution still comes
// out right, because Unresolved is computed as complaints minus
// justifications only when the rounds are complete. Dealers are keyed
// by dealer index, complainers by the share index they receive.
type ComplaintLog struct {
	complaints map[int]map[int]bool // dealer -> complainer set
	justified  map[int]map[int]bool // dealer -> discharged complainer set
}

// NewComplaintLog returns an empty log.
func NewComplaintLog() *ComplaintLog {
	return &ComplaintLog{
		complaints: make(map[int]map[int]bool),
		justified:  make(map[int]map[int]bool),
	}
}

// Complain records complainer's complaint against dealer.
func (c *ComplaintLog) Complain(complainer, dealer int) {
	set, ok := c.complaints[dealer]
	if !ok {
		set = make(map[int]bool)
		c.complaints[dealer] = set
	}
	set[complainer] = true
}

// Resolve records that dealer's justification toward complainer
// verified; the matching complaint (present or still in flight) is
// discharged.
func (c *ComplaintLog) Resolve(dealer, complainer int) {
	set, ok := c.justified[dealer]
	if !ok {
		set = make(map[int]bool)
		c.justified[dealer] = set
	}
	set[complainer] = true
}

// Against returns the sorted complainers with a complaint recorded
// against dealer (discharged or not) — the set a dealer must answer in
// the justification round.
func (c *ComplaintLog) Against(dealer int) []int {
	out := make([]int, 0, len(c.complaints[dealer]))
	for complainer := range c.complaints[dealer] {
		out = append(out, complainer)
	}
	sort.Ints(out)
	return out
}

// Unresolved returns the sorted dealers with at least one complaint no
// valid justification discharged. Once the justification round is
// complete, these dealers are disqualified on every honest node —
// deterministically, because complaints and justifications are all
// broadcast.
func (c *ComplaintLog) Unresolved() []int {
	var out []int
	for dealer, set := range c.complaints {
		for complainer := range set {
			if !c.justified[dealer][complainer] {
				out = append(out, dealer)
				break
			}
		}
	}
	sort.Ints(out)
	return out
}
