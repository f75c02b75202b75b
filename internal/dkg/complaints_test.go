package dkg

import (
	"reflect"
	"testing"
)

func TestComplaintLogResolution(t *testing.T) {
	c := NewComplaintLog()
	c.Complain(3, 2)
	c.Complain(4, 2)
	c.Complain(1, 5)
	if got := c.Against(2); !reflect.DeepEqual(got, []int{3, 4}) {
		t.Fatalf("Against(2) = %v", got)
	}
	if got := c.Unresolved(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("Unresolved = %v", got)
	}
	c.Resolve(2, 3)
	if got := c.Unresolved(); !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("partially justified dealer dropped: %v", got)
	}
	c.Resolve(2, 4)
	c.Resolve(5, 1)
	if got := c.Unresolved(); len(got) != 0 {
		t.Fatalf("Unresolved after full justification = %v", got)
	}
}

// TestComplaintLogOutOfOrder pins the order-independence contract: a
// justification recorded BEFORE its complaint still discharges it.
func TestComplaintLogOutOfOrder(t *testing.T) {
	c := NewComplaintLog()
	c.Resolve(2, 3) // justification overtakes the complaint
	c.Complain(3, 2)
	if got := c.Unresolved(); len(got) != 0 {
		t.Fatalf("early justification lost: %v", got)
	}
}

// TestComplaintSurfaceValidation pins the edges of the complaint ledger
// the dealing protocol drives: an empty log accuses nobody, a
// justification nobody asked for records no complaint, a repeated
// complaint counts once, and Against lists only recorded complainers.
func TestComplaintSurfaceValidation(t *testing.T) {
	c := NewComplaintLog()
	if got := c.Unresolved(); len(got) != 0 {
		t.Fatalf("empty log accuses %v", got)
	}
	c.Resolve(1, 2) // a justification nobody asked for
	if got := c.Unresolved(); len(got) != 0 {
		t.Fatalf("unrequested justification accused %v", got)
	}
	if got := c.Against(1); len(got) != 0 {
		t.Fatalf("unrequested justification recorded complainers %v", got)
	}
	c.Complain(3, 1)
	c.Complain(3, 1)
	if got := c.Against(1); !reflect.DeepEqual(got, []int{3}) {
		t.Fatalf("Against(1) = %v, want [3]", got)
	}
	if got := c.Unresolved(); !reflect.DeepEqual(got, []int{1}) {
		t.Fatalf("Unresolved = %v, want [1]", got)
	}
	c.Resolve(1, 3)
	if got := c.Unresolved(); len(got) != 0 {
		t.Fatalf("answered complaint still unresolved: %v", got)
	}
}
