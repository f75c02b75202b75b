package bls04

import (
	"bytes"
	"encoding/hex"
	"runtime"
	"testing"
)

// Encodings written by an earlier release: party 2's signature share
// of "msg", and the signature combined from it.
const (
	goldenSigShare = "" +
		"000000080000000000000002000000410407019acdc9098c4d81050f6b025ffb" +
		"877e2a201b659a9f8be188f94d0815c4302b2e1e170ae2ab6e92524caddb2b08" +
		"06a76f47c4eb134be50d1561c734e8f5e1"
	goldenSignature = "" +
		"0403c0b988490fa8b9d4589fd7944e65df718ec3a185aede894d3c9d102ffebe" +
		"a6130a31d393cf9ff350d079a1bbf629bb50803bfc269334366e207d31b9292a" +
		"b6"
)

// bls04Decoder is one BLS04 wire decoder: decode returns nil for a
// rejected input, and otherwise a function re-encoding what was
// decoded. seed is a valid encoding.
type bls04Decoder struct {
	name   string
	seed   []byte
	decode func([]byte) func() []byte
}

// bls04Decoders lists the signature-share and signature decoders,
// seeded with the earlier release's encodings.
func bls04Decoders(tb testing.TB) []bls04Decoder {
	tb.Helper()
	unhex := func(s string) []byte {
		b, err := hex.DecodeString(s)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	return []bls04Decoder{
		{"share", unhex(goldenSigShare), func(b []byte) func() []byte {
			ss, err := UnmarshalSigShare(b)
			if err != nil {
				return nil
			}
			return ss.Marshal
		}},
		{"signature", unhex(goldenSignature), func(b []byte) func() []byte {
			sig, err := UnmarshalSignature(b)
			if err != nil {
				return nil
			}
			return sig.Marshal
		}},
	}
}

// TestDecodersRefuseTrailingBytes: a signature share and a signature
// encoded by an earlier release still decode and re-encode to the same
// bytes, and each is refused with one trailing byte appended.
func TestDecodersRefuseTrailingBytes(t *testing.T) {
	for _, dec := range bls04Decoders(t) {
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

// FuzzBLS04Decoders feeds arbitrary bytes to the signature-share
// decoder, which every rostered peer reaches with a sign round, and to
// the signature decoder, selected by which. It asserts that no input
// panics, that decoding allocates in proportion to the input, and that
// every accepted input re-encodes to exactly itself.
func FuzzBLS04Decoders(f *testing.F) {
	decoders := bls04Decoders(f)
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
