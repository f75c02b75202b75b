package wire

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	w := NewWriter().
		Bytes([]byte("hello")).
		BigInt(big.NewInt(123456789)).
		Int(-7).
		String("world").
		Bytes(nil)
	r := NewReader(w.Out())
	if got := r.Bytes(); string(got) != "hello" {
		t.Fatalf("bytes = %q", got)
	}
	if got := r.Nat(); got.Int64() != 123456789 {
		t.Fatalf("bigint = %v", got)
	}
	if got := r.Int(); got != -7 {
		t.Fatalf("int = %d", got)
	}
	if got := r.String(); got != "world" {
		t.Fatalf("string = %q", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty bytes = %v", got)
	}
	if !r.Done() {
		t.Fatalf("reader not done: %v", r.Err())
	}
}

func TestTruncation(t *testing.T) {
	enc := NewWriter().Bytes([]byte("abcdef")).Out()
	for cut := 0; cut < len(enc); cut++ {
		r := NewReader(enc[:cut])
		r.Bytes()
		if r.Err() == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestZeroBigInt(t *testing.T) {
	enc := NewWriter().BigInt(new(big.Int)).Out()
	r := NewReader(enc)
	if got := r.Nat(); r.Err() != nil || got.Sign() != 0 {
		t.Fatalf("zero round trip: %v %v", got, r.Err())
	}
}

func TestReaderErrorsSticky(t *testing.T) {
	r := NewReader([]byte{0, 0})
	r.Bytes() // fails
	if r.Err() == nil {
		t.Fatal("expected error")
	}
	// Subsequent reads must not panic and keep the error.
	r.Nat()
	r.Int()
	_ = r.String()
	if r.Err() == nil || r.Done() {
		t.Fatal("error not sticky")
	}
}

func TestBadIntWidth(t *testing.T) {
	enc := NewWriter().Bytes([]byte{1, 2, 3}).Out()
	r := NewReader(enc)
	r.Int()
	if r.Err() == nil {
		t.Fatal("3-byte int field accepted")
	}
}

func TestQuickRoundTripBigInts(t *testing.T) {
	f := func(v uint64) bool {
		want := new(big.Int).SetUint64(v)
		r := NewReader(NewWriter().BigInt(want).Out())
		got := r.Nat()
		return r.Done() && got.Cmp(want) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNatAcceptsOnlyCanonical(t *testing.T) {
	for _, v := range []int64{0, 1, 255, 1 << 40} {
		r := NewReader(NewWriter().BigInt(big.NewInt(v)).Out())
		if got := r.Nat(); r.End() != nil || got.Int64() != v {
			t.Fatalf("Nat(%d) = %v, %v", v, got, r.End())
		}
	}
	for name, b := range map[string][]byte{
		"empty": {}, "negative": {1, 5}, "unknown sign": {7, 5}, "zero-padded": {0, 0, 5},
	} {
		r := NewReader(NewWriter().Bytes(b).Out())
		if r.Nat() != nil || r.End() == nil {
			t.Fatalf("Nat accepted %s encoding %x", name, b)
		}
	}
	r := NewReader(append(NewWriter().Int(3).Out(), 0))
	if r.Int(); r.End() == nil {
		t.Fatal("End accepted a trailing byte")
	}
}
