package keys

import (
	"os"
	"reflect"
	"runtime"
	"testing"
)

// FuzzUnmarshalKeystore feeds arbitrary bytes to the keystore decoder,
// which reads a node's -key file at start. It asserts that no input
// panics, that decoding allocates in proportion to the input, and that
// every accepted input loads again, after Marshal, to the same header,
// keys, epochs, committees and shares. The committed corpus holds a v3
// file from an earlier release, a v4 snapshot of all six schemes, a v4
// log with an erased superseded frame and a torn final frame, two v3
// files whose verification-key count is -1 and 2^40 (the first
// panicked and the second exhausted memory on earlier releases), and
// two v3 files with a non-canonical integer, an SG02 share with a
// leading zero byte and a negative SH00 N (both loaded on earlier
// releases; TestNonCanonicalIntegersRefused asserts their refusal).
func FuzzUnmarshalKeystore(f *testing.F) {
	golden, err := os.ReadFile("testdata/keystore_v3.golden")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Fuzz(func(t *testing.T, data []byte) {
		ks, err := unmarshalBounded(t, data)
		if err != nil {
			return
		}
		again, err := UnmarshalKeystore(ks.Marshal())
		if err != nil {
			t.Fatalf("accepted input does not load after Marshal: %v", err)
		}
		if again.Index != ks.Index || again.N != ks.N || again.T != ks.T {
			t.Fatalf("header (%d, %d, %d) loads as (%d, %d, %d)", ks.Index, ks.N, ks.T, again.Index, again.N, again.T)
		}
		if !reflect.DeepEqual(stateOf(again), stateOf(ks)) {
			t.Fatal("accepted input loads to other keys after Marshal")
		}
	})
}

// unmarshalBounded decodes data and fails the test when decoding
// allocates more than in proportion to the input.
func unmarshalBounded(t *testing.T, data []byte) (*Keystore, error) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ks, err := UnmarshalKeystore(data)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+64*len(data)); got > limit {
		t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
	}
	return ks, err
}
