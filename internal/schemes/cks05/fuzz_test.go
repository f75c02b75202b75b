package cks05

import (
	"bytes"
	"crypto/rand"
	"runtime"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
)

// FuzzCKS05Decoders feeds arbitrary bytes to the coin-share decoder,
// which every rostered peer reaches with a coin round, over both
// groups, selected by which. It asserts that no input panics, that
// decoding allocates in proportion to the input, and that every
// accepted input re-encodes to exactly itself. The committed corpus
// holds a share from an earlier release (edwards25519), the same share
// with a trailing byte, and a P-256 share.
func FuzzCKS05Decoders(f *testing.F) {
	groups := []group.Group{group.Edwards25519(), group.P256()}
	for i, g := range groups {
		pk, ks, err := share.Deal(rand.Reader, g, 1, 4)
		if err != nil {
			f.Fatal(err)
		}
		cs, err := Share(rand.Reader, pk, ks[0], []byte("coin"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), cs.Marshal())
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		g := groups[int(which)%len(groups)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cs, err := UnmarshalCoinShare(g, data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+64*len(data)); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", g.Name(), len(data), got, limit)
		}
		if err == nil {
			if out := cs.Marshal(); !bytes.Equal(out, data) {
				t.Fatalf("%s: accepted %x but re-encodes to %x", g.Name(), data, out)
			}
		}
	})
}
