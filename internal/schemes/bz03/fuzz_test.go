package bz03

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"
)

// Encodings written by an earlier release: a ciphertext of "m" under
// label "l", and party 2's decryption share of it.
const (
	goldenCiphertext = "" +
		"000000016c000000204335568e74fe94d4fb4c1e29ae4bf8a847ba991d76087b" +
		"99bb2434db2a7b4f820000001d27e5bfa54135279bed3becb75ec4665b845db0" +
		"42e576f586a9577193730000004104123b0dcab52d9bd33608063bae05f83aa2" +
		"c25ae98fa02f0a5777055092dd9690023a7865914d0c3f3c789d038a5b6367e5" +
		"f7a034751563ffdd417430298ba82a0000008104114fc1569261ee64bf56269c" +
		"173f3d9bdeac4a3b8ef125baf65bcd91081bd4f22105147d92adc6f220036a9b" +
		"2bdbefe0f0ae218e4bd38d2c2a3a1103a655959a06de959b5de827612d191af9" +
		"d248006a8d1f4137f85159a3ff0355d867af5bcf0c4a0920cf7d4ca4236a8f4b" +
		"04b6b4db7b1e56a103ad3f2c26d8164b6e4baa00"
	goldenDecShare = "" +
		"0000000800000000000000020000004104212f56ff08656b2938abf2a5017442" +
		"23491a7fc213f3abbe11909a585ced124f1c5bc1f47b336e4419ddd0caee5ba4" +
		"2028aa8a6a11bfa72140c3dbe46230d43a"
)

// bz03Decoder is one BZ03 wire decoder: decode returns nil for a
// rejected input, and otherwise a function re-encoding what was
// decoded. seed is a valid encoding.
type bz03Decoder struct {
	name   string
	seed   []byte
	decode func([]byte) func() []byte
}

// bz03Decoders lists the ciphertext and decryption-share decoders,
// seeded with the earlier release's encodings.
func bz03Decoders(tb testing.TB) []bz03Decoder {
	tb.Helper()
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return []bz03Decoder{
		{"ciphertext", unhex(goldenCiphertext), func(b []byte) func() []byte {
			ct, err := UnmarshalCiphertext(b)
			if err != nil {
				return nil
			}
			return ct.Marshal
		}},
		{"share", unhex(goldenDecShare), func(b []byte) func() []byte {
			ds, err := UnmarshalDecShare(b)
			if err != nil {
				return nil
			}
			return ds.Marshal
		}},
	}
}

// TestDecodersRefuseTrailingBytes: a ciphertext and a decryption share
// encoded by an earlier release still decode and re-encode to the same
// bytes, and each is refused with one trailing byte appended.
func TestDecodersRefuseTrailingBytes(t *testing.T) {
	for _, dec := range bz03Decoders(t) {
		reencode := dec.decode(dec.seed)
		if reencode == nil {
			t.Fatalf("%s: rejected the earlier release's encoding", dec.name)
		}
		if out := reencode(); !bytes.Equal(out, dec.seed) {
			t.Fatalf("%s: re-encodes to %x", dec.name, out)
		}
		if dec.decode(append(dec.seed, 0)) != nil {
			t.Fatalf("%s: accepted a trailing byte", dec.name)
		}
	}
}

// FuzzBZ03Decoders feeds arbitrary bytes to the ciphertext decoder,
// which any HTTP client reaches through a decrypt, and to the
// decryption-share decoder, which every rostered peer reaches,
// selected by which. It asserts that no input panics, that decoding
// allocates in proportion to the input, and that every accepted input
// re-encodes to exactly itself.
func FuzzBZ03Decoders(f *testing.F) {
	decoders := bz03Decoders(f)
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
