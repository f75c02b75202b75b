package sh00

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"runtime"
	"testing"
)

// goldenShare is a signature share encoded by an earlier release
// (512-bit fixture key, party 2), the one TestDecodersRefuseTrailingBytes
// pins.
const goldenShare = "" +
	"000000080000000000000002000000410003c47361fe6159d416ab85740a8fd4" +
	"8ad2e75d30818957ed2faba8fae990a08a7a77805e22f5cd1e45928578f8e573" +
	"cef78e971d7dde6674177458cd70083de400000011008619900fb700c9acf551" +
	"f2fe8dc9425f0000006100e5bf734793e1d0a9ffb8dfbd800eae33ca93ae3c56" +
	"bd7a8cb6bce00dc2e056d759eedfc106c19917dfb9ffc47ddea9e890093a31c2" +
	"5f6e1c7294a1f16e681d7faab37d609b1baeca91a38556aa9218260a59aeed80" +
	"48f83848cd359b5e37a117"

// sh00Decoder is one SH00 wire decoder: decode returns nil for a
// rejected input, and otherwise a function re-encoding what was
// decoded. seed is a valid encoding.
type sh00Decoder struct {
	name   string
	seed   []byte
	decode func([]byte) func() []byte
}

// sh00Decoders lists the signature-share and signature decoders. The
// share seed is goldenShare; the signature seed is an RSA signature
// under the 512-bit fixture key, which does not depend on the sharing.
func sh00Decoders(tb testing.TB) []sh00Decoder {
	tb.Helper()
	share, err := hex.DecodeString(goldenShare)
	if err != nil {
		tb.Fatal(err)
	}
	pk, ks, err := FixedTestKey(rand.Reader, 512, 1, 3)
	if err != nil {
		tb.Fatal(err)
	}
	msg := []byte("fixed message")
	var shares []*SigShare
	for _, k := range ks[:2] {
		ss, err := SignShare(rand.Reader, pk, k, msg)
		if err != nil {
			tb.Fatal(err)
		}
		shares = append(shares, ss)
	}
	sig, err := Combine(pk, msg, shares)
	if err != nil {
		tb.Fatal(err)
	}
	return []sh00Decoder{
		{"share", share, func(b []byte) func() []byte {
			ss, err := UnmarshalSigShare(b)
			if err != nil {
				return nil
			}
			return ss.Marshal
		}},
		{"signature", sig.Marshal(), func(b []byte) func() []byte {
			sig, err := UnmarshalSignature(b)
			if err != nil {
				return nil
			}
			return sig.Marshal
		}},
	}
}

// FuzzSH00Decoders feeds arbitrary bytes to the SH00 wire decoders —
// signature share and signature — selected by which. It asserts that no
// input panics, that decoding allocates in proportion to the input, and
// that every accepted input re-encodes to exactly itself, so one share
// has one encoding.
func FuzzSH00Decoders(f *testing.F) {
	decoders := sh00Decoders(f)
	for i, dec := range decoders {
		f.Add(uint8(i), dec.seed)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dec := decoders[int(which)%len(decoders)]
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reencode := dec.decode(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+64*len(data)); got > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d (limit %d)", dec.name, len(data), got, limit)
		}
		if reencode != nil {
			if out := reencode(); !bytes.Equal(out, data) {
				t.Fatalf("%s: accepted %x but re-encodes to %x", dec.name, data, out)
			}
		}
	})
}
