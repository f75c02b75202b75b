package protocols

import (
	"crypto/rand"
	"errors"
	"math/big"
	"strings"
	"testing"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/precompute"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/sg02"
)

// TestRejectedSenderCheckedOnce: a sender whose share failed its check
// is ignored for the rest of the instance, so a resend of an SG02 share
// with a corrupted DLEQ response costs neither a second rejection nor a
// second check.
func TestRejectedSenderCheckedOnce(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.SG02)
	pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	ct, err := sg02.Encrypt(rand.Reader, pk, []byte("resent liar"), nil)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := sg02.DecryptShare(rand.Reader, pk, keys.MustShare[sg02.KeyShare](nodes[3], schemes.SG02), ct)
	if err != nil {
		t.Fatal(err)
	}
	ds.Proof.F = new(big.Int).Mod(new(big.Int).Add(ds.Proof.F, big.NewInt(1)), pk.Group.Order())
	var v precompute.Verifier
	p, err := New(rand.Reader, nodes[0], Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: ct.Marshal()},
		Env{Verifier: &v})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DoRound(); err != nil {
		t.Fatal(err)
	}
	var rejections []error
	for range 2 {
		rejections = append(rejections, Rejections(p.Update(ProtocolMessage{Sender: 4, Round: 1, Payload: ds.Marshal()}))...)
	}
	if len(rejections) != 1 || !strings.Contains(rejections[0].Error(), "share from 4") ||
		!errors.Is(rejections[0], sg02.ErrInvalidShare) {
		t.Fatalf("rejections %v, want one naming sender 4's invalid share", rejections)
	}
	if n := v.Stats().BatchesVerified; n != 1 {
		t.Fatalf("%d counted checks, want 1", n)
	}
}

var errToyCombine = errors.New("toy combine failed")

// FuzzQuorum drives the share quorum of both check policies over a toy
// share, an int whose high nibble is its index and whose low bit marks
// it bad, so no crypto runs. Each op is two bytes: the first picks the
// kind (own share, peer share with any index, garbage, peer share with
// its sender's index) and the sender, the second the share. The toy
// combine fails on a bad share, as a verifying combine does, or always
// when the input asks it to. It asserts that no sender is checked twice
// and the own share never, that a result combines exactly t+1 shares
// each of which is the own or passed its check, and that a failed
// combine over valid peer shares ends the instance without a rejection.
func FuzzQuorum(f *testing.F) {
	f.Add(uint8(1), true, uint8(1), false, []byte{0, 2, 7, 0x22, 7, 0x23, 11, 0x32})
	f.Add(uint8(1), false, uint8(2), false, []byte{3, 0x13, 7, 0x13, 3, 0x12, 2, 9, 0, 4})
	f.Add(uint8(0), true, uint8(3), false, []byte{0, 1})
	f.Add(uint8(2), true, uint8(1), true, []byte{0, 0, 7, 0x20, 11, 0x30, 15, 0x40})
	f.Add(uint8(2), false, uint8(4), false, []byte{1, 0x7f, 5, 0x15, 7, 0x20, 7, 0x20, 15, 0x31, 0, 3})
	f.Fuzz(func(t *testing.T, tt uint8, lazy bool, own uint8, broken bool, ops []byte) {
		need := int(tt%4) + 1
		ownIdx := int(own%4) + 1
		valid := func(s int) bool { return s&1 == 0 }
		checked := map[int]int{}
		owned := map[int]bool{}
		var lastInput []int
		combineFailed := false
		q := &quorum[int]{need: need, own: ownIdx, lazy: lazy,
			decode: func(b []byte) (int, error) {
				if len(b) != 1 {
					return 0, errors.New("garbage")
				}
				return int(b[0]), nil
			},
			index: func(s int) int { return s >> 4 },
			check: func(s int) error {
				checked[s>>4]++
				if !valid(s) {
					return errors.New("bad share")
				}
				return nil
			},
			combine: func(ss []int) ([]byte, error) {
				lastInput = append([]int(nil), ss...)
				out := make([]byte, len(ss))
				for k, s := range ss {
					if broken || !valid(s) {
						combineFailed = true
						return nil, errToyCombine
					}
					out[k] = byte(s)
				}
				return out, nil
			},
		}
		for k := 0; k+1 < len(ops); k += 2 {
			a, b := ops[k], ops[k+1]
			sender := int(a>>2) % 8
			lastInput, combineFailed = nil, false
			var err error
			switch a % 4 {
			case 0:
				s := ownIdx<<4 | int(b&0xF)
				owned[s] = true
				err = q.addOwn(s)
			case 1:
				err = q.add(sender, []byte{b})
			case 2:
				err = q.add(sender, []byte{a, b})
			case 3:
				err = q.add(sender, []byte{byte(sender<<4) | b&0xF})
			}
			for i, n := range checked {
				if n > 1 || i == ownIdx {
					t.Fatalf("sender %d checked %d times (own %d)", i, n, ownIdx)
				}
			}
			peersValid := true
			for _, s := range lastInput {
				if s>>4 != ownIdx && !valid(s) {
					peersValid = false
				}
			}
			if err != nil && Rejections(err) == nil {
				// A protocol failure: only a combine over valid peer
				// shares may end the instance.
				if !combineFailed || !peersValid || !errors.Is(err, errToyCombine) {
					t.Fatalf("instance ended by %v (combine failed %v, peers valid %v)", err, combineFailed, peersValid)
				}
				return
			}
			if combineFailed && peersValid {
				t.Fatalf("a failed combine over valid peer shares returned %v", err)
			}
		}
		if !q.done {
			return
		}
		if len(q.result) != need {
			t.Fatalf("result from %d shares, want %d", len(q.result), need)
		}
		seen := map[int]bool{}
		for _, r := range q.result {
			s := int(r)
			if seen[s>>4] {
				t.Fatalf("result %x repeats index %d", q.result, s>>4)
			}
			seen[s>>4] = true
			if s>>4 == ownIdx && !owned[s] || s>>4 != ownIdx && !valid(s) {
				t.Fatalf("result %x uses share %#x, neither own nor valid", q.result, s)
			}
		}
	})
}
