package sg02

import (
	"bytes"
	"runtime"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
	"thetacrypt/internal/zkp"
)

// sg02Decoder is one SG02 wire decoder: decode returns nil for a
// rejected input, and otherwise a function re-encoding what was
// decoded. seed is a valid encoding.
type sg02Decoder struct {
	name   string
	seed   []byte
	decode func([]byte) func() []byte
}

// sg02Decoders lists the ciphertext, decryption-share and DLEQ-proof
// decoders over both groups. The seeds are drawn from the fixed
// randomness of TestWireBytesUnchanged, which pins their bytes to those
// earlier releases encode, so accepting a seed means accepting what
// those releases send.
func sg02Decoders(tb testing.TB) []sg02Decoder {
	tb.Helper()
	var out []sg02Decoder
	for _, g := range []group.Group{group.Edwards25519(), group.P256()} {
		pk, ks, err := share.Deal(stream(g.Name()+"/deal"), g, 1, 4)
		if err != nil {
			tb.Fatal(err)
		}
		ct, err := Encrypt(stream(g.Name()+"/encrypt"), pk, []byte("fixed plaintext"), []byte("label"))
		if err != nil {
			tb.Fatal(err)
		}
		ds, err := DecryptShare(stream(g.Name()+"/share"), pk, ks[0], ct)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out,
			sg02Decoder{"ciphertext/" + g.Name(), ct.Marshal(), func(b []byte) func() []byte {
				ct, err := UnmarshalCiphertext(g, b)
				if err != nil {
					return nil
				}
				return ct.Marshal
			}},
			sg02Decoder{"share/" + g.Name(), ds.Marshal(), func(b []byte) func() []byte {
				ds, err := UnmarshalDecShare(g, b)
				if err != nil {
					return nil
				}
				return ds.Marshal
			}},
			sg02Decoder{"proof/" + g.Name(), ds.Proof.Marshal(), func(b []byte) func() []byte {
				p, err := zkp.UnmarshalDLEQ(g, b)
				if err != nil {
					return nil
				}
				return p.Marshal
			}},
		)
	}
	return out
}

// TestSG02DecodersRejectNonCanonical pins that the decoders accept only
// the one encoding Marshal gives. Each accepts its seed, and rejects
// the seed with a trailing byte. A ciphertext's E and F and a proof's F
// must be canonical natural numbers: a zero-padded magnitude, a sign
// byte other than 0 and an empty field are all rejected.
func TestSG02DecodersRejectNonCanonical(t *testing.T) {
	for _, dec := range sg02Decoders(t) {
		if dec.decode(dec.seed) == nil {
			t.Fatalf("%s: rejected its own encoding", dec.name)
		}
		if dec.decode(append(dec.seed, 0)) != nil {
			t.Fatalf("%s: accepted a trailing byte", dec.name)
		}
	}

	g := group.P256()
	pk, ks, err := share.Deal(stream("noncanonical/deal"), g, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Encrypt(stream("noncanonical/encrypt"), pk, []byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := DecryptShare(stream("noncanonical/share"), pk, ks[0], ct)
	if err != nil {
		t.Fatal(err)
	}
	ciphertext := func(e, f []byte) []byte {
		return wire.NewWriter().Bytes(ct.Label).Bytes(ct.EncKey).Bytes(ct.Payload).
			Bytes(ct.U.Marshal()).Bytes(ct.UBar.Marshal()).Bytes(e).Bytes(f).Out()
	}
	proof := func(f []byte) []byte {
		return wire.NewWriter().Bytes(ds.Proof.A1.Marshal()).Bytes(ds.Proof.A2.Marshal()).Bytes(f).Out()
	}
	canon := func(v []byte) []byte { return append([]byte{0}, v...) }
	e, f, pf := ct.E.Bytes(), ct.F.Bytes(), ds.Proof.F.Bytes()
	if _, err := UnmarshalCiphertext(g, ciphertext(canon(e), canon(f))); err != nil {
		t.Fatalf("rejected a canonical ciphertext: %v", err)
	}
	if _, err := zkp.UnmarshalDLEQ(g, proof(canon(pf))); err != nil {
		t.Fatalf("rejected a canonical proof: %v", err)
	}
	for name, bad := range map[string]func([]byte) []byte{
		"zero-padded": func(v []byte) []byte { return append([]byte{0, 0}, v...) },
		"sign byte 7": func(v []byte) []byte { return append([]byte{7}, v...) },
		"negative":    func(v []byte) []byte { return append([]byte{1}, v...) },
		"empty":       func([]byte) []byte { return nil },
	} {
		if _, err := UnmarshalCiphertext(g, ciphertext(bad(e), canon(f))); err == nil {
			t.Errorf("ciphertext with %s E accepted", name)
		}
		if _, err := UnmarshalCiphertext(g, ciphertext(canon(e), bad(f))); err == nil {
			t.Errorf("ciphertext with %s F accepted", name)
		}
		if _, err := zkp.UnmarshalDLEQ(g, proof(bad(pf))); err == nil {
			t.Errorf("proof with %s F accepted", name)
		}
	}
}

// FuzzSG02Decoders feeds arbitrary bytes to every SG02 wire decoder —
// ciphertext, decryption share and its DLEQ proof, over both groups —
// selected by which. It asserts that no input panics, that decoding
// allocates in proportion to the input, and that every accepted input
// re-encodes to exactly itself, so one ciphertext has one encoding and
// a request on it one instance ID.
func FuzzSG02Decoders(f *testing.F) {
	decoders := sg02Decoders(f)
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
