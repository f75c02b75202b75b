package network_test

import (
	"bytes"
	"runtime"
	"testing"

	"thetacrypt/internal/network"
)

// FuzzUnmarshalEnvelope feeds arbitrary bytes to the envelope decoder,
// the first repo-owned parser a peer's frame reaches. It must not
// panic, must allocate in proportion to its input, and must accept
// only what Marshal produces: an accepted input re-encodes to itself.
// The committed corpus under testdata/fuzz is replayed by plain
// `go test`.
func FuzzUnmarshalEnvelope(f *testing.F) {
	for _, env := range []network.Envelope{
		{},
		{From: 3, To: network.Broadcast, Instance: "abc", Kind: network.KindProto, Round: 2, Payload: []byte("hello")},
		{From: 1, To: 2, Kind: network.KindAck, Seq: 7, Epoch: 1 << 40, Base: 3, Ack: 6, AckEpoch: 9},
		{From: -1, To: 1 << 62, Instance: "0123456789abcdef", Kind: network.KindStart, Gen: 2},
	} {
		f.Add(env.Marshal())
	}
	f.Add([]byte("junk"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		env, err := network.UnmarshalEnvelope(data)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(16<<10+64*len(data)); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		if out := env.Marshal(); !bytes.Equal(out, data) {
			t.Fatalf("accepted %x but re-encodes to %x", data, out)
		}
	})
}
