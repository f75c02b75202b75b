package protocols

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"thetacrypt/internal/dkg"
	"thetacrypt/internal/group"
	"thetacrypt/internal/identity"
	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/frost"
	"thetacrypt/internal/schemes/sg02"
	sharepkg "thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// testEnvs generates per-node identity keys and a shared roster for a
// deployment of n nodes, whose dealings carry sealed boxes.
func testEnvs(t *testing.T, n int) []Env {
	t.Helper()
	ids, roster, err := identity.GenerateMesh(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	envs := make([]Env, n)
	for i := range envs {
		envs[i] = Env{Identity: ids[i], Roster: roster}
	}
	return envs
}

// startAll builds one instance of req per node, keyed by mesh node.
func startAll(t *testing.T, nodes []*keys.Keystore, req Request, envs []Env) map[int]Protocol {
	t.Helper()
	protos := make(map[int]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req, envs[i])
		if err != nil {
			t.Fatal(err)
		}
		protos[i+1] = p
	}
	return protos
}

// checkQualified asserts every node settled on the same qualified
// dealers and the same unanswered complaints.
func checkQualified(t *testing.T, protos map[int]Protocol, want, unresolved []int) {
	t.Helper()
	for idx, p := range protos {
		d := p.(*dealingProtocol)
		if got := d.settle(); !reflect.DeepEqual(got, want) {
			t.Fatalf("node %d qualified %v, want %v", idx, got, want)
		}
		if got := d.log.Unresolved(); len(got)+len(unresolved) > 0 && !reflect.DeepEqual(got, unresolved) {
			t.Fatalf("node %d left complaints against %v unanswered, want %v", idx, got, unresolved)
		}
	}
}

// checkSameKey asserts every node installed the same public point for
// the key, and a share consistent with its verification key.
func checkSameKey(t *testing.T, nodes []*keys.Keystore, scheme schemes.ID, keyID string) {
	t.Helper()
	var ref group.Point
	for i, nk := range nodes {
		k, err := nk.Get(scheme, keyID)
		if err != nil {
			t.Fatalf("node %d: %v", i+1, err)
		}
		pk := k.Public.(*sharepkg.PublicKey)
		if ref == nil {
			ref = pk.Y
		} else if !pk.Y.Equal(ref) {
			t.Fatalf("node %d installed a different public key", i+1)
		}
		if s, ok := k.Share.(sharepkg.Share); ok && !pk.Group.BaseMul(s.Value).Equal(pk.VK[s.Index-1]) {
			t.Fatalf("node %d share inconsistent with its verification key", i+1)
		}
	}
}

// decryptsAfter checks that the reshared SG02 shares still decrypt.
func decryptsAfter(t *testing.T, nodes []*keys.Keystore) {
	t.Helper()
	msg := []byte("after the reshare")
	ct, err := sg02.Encrypt(rand.Reader, keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02), msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	dec := Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: ct.Marshal()}
	protos := make(map[int]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, dec, Env{})
		if err != nil {
			t.Fatal(err)
		}
		protos[i+1] = p
	}
	for idx, val := range driveNodes(t, protos) {
		if !bytes.Equal(val, msg) {
			t.Fatalf("node %d decrypted %q", idx, val)
		}
	}
}

// TestSealedKeygenHappyPath runs the sealed three-round DKG end to end:
// every node deals boxes, nobody complains, all four dealers qualify,
// and the installed key signs.
func TestSealedKeygenHappyPath(t *testing.T) {
	nodes := dealNodes(t, 1, 4)
	gen := Request{Scheme: schemes.KG20, KeyID: "sealed-1", Op: OpKeyGen}
	protos := startAll(t, nodes, gen, testEnvs(t, 4))
	for idx, v := range driveNodes(t, protos) {
		if string(v) != "sealed-1" {
			t.Fatalf("node %d keygen result %q", idx, v)
		}
	}
	checkQualified(t, protos, []int{1, 2, 3, 4}, nil)
	checkSameKey(t, nodes, schemes.KG20, "sealed-1")
	ref, err := keys.Public[*frost.PublicKey](nodes[0], schemes.KG20, "sealed-1")
	if err != nil {
		t.Fatal(err)
	}
	sign := Request{Scheme: schemes.KG20, KeyID: "sealed-1", Op: OpSign, Payload: []byte("under a sealed DKG key")}
	sp := make([]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, sign, Env{})
		if err != nil {
			t.Fatal(err)
		}
		sp[i] = p
	}
	out := drive(t, sp)
	sig, err := frost.UnmarshalSignature(ref.Group, out[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := frost.Verify(ref, sign.Payload, sig); err != nil {
		t.Fatal(err)
	}
}

// TestSealedDealingCarriesNoPlaintextSubShares captures node 1's actual
// dealing (via the fault-injection seam, used here only to observe) and
// asserts the broadcast payload contains none of the sub-share scalars.
func TestSealedDealingCarriesNoPlaintextSubShares(t *testing.T) {
	nodes := dealNodes(t, 1, 4)
	envs := testEnvs(t, 4)
	var captured *dkg.Dealing
	TestFaultDealing = func(node int, d *dkg.Dealing) {
		if node == 1 {
			captured = d
		}
	}
	defer func() { TestFaultDealing = nil }()
	p, err := New(rand.Reader, nodes[0], Request{Scheme: schemes.KG20, KeyID: "capture", Op: OpKeyGen}, envs[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.DoRound()
	if err != nil {
		t.Fatal(err)
	}
	if captured == nil || out == nil {
		t.Fatal("no dealing captured")
	}
	for j, s := range captured.SubShares {
		if raw := s.Value.Bytes(); len(raw) > 8 && bytes.Contains(out.Payload, raw) {
			t.Fatalf("sub-share for party %d appears in the broadcast payload", j+1)
		}
	}
}

// TestDealerLeavesOwnBoxEmpty: a dealer that is also a recipient sends
// an empty box in its own slot, which only it would open and which it
// never needs, since it keeps its own sub-share. Every peer's box
// opens to that peer's valid sub-share. A reshare dealer outside the
// new committee has no slot of its own and seals every box.
func TestDealerLeavesOwnBoxEmpty(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.SG02)
	envs := testEnvs(t, 4)
	for _, tc := range []struct {
		name   string
		req    Request
		recips []int
	}{
		{"keygen", Request{Scheme: schemes.KG20, KeyID: "own-box", Op: OpKeyGen}, []int{1, 2, 3, 4}},
		{"reshare to 2..4", Request{Scheme: schemes.SG02, Op: OpReshare,
			Payload: ReshareSpec{NewT: 1, Members: []int{2, 3, 4}}.Marshal(), Epoch: keys.FirstEpoch}, []int{2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := New(rand.Reader, nodes[0], tc.req, envs[0])
			if err != nil {
				t.Fatal(err)
			}
			out, err := p.DoRound()
			if err != nil || out == nil {
				t.Fatalf("round 1: %v, %v", out, err)
			}
			role := p.(*dealingProtocol).role
			com, boxes, err := unmarshalDealing(role.g, len(tc.recips), out.Payload)
			if err != nil {
				t.Fatal(err)
			}
			for j, to := range tc.recips {
				if to == 1 {
					if len(boxes[j]) != 0 {
						t.Fatalf("own slot %d carries a %d-byte box", j+1, len(boxes[j]))
					}
					continue
				}
				recipient := &dealingProtocol{id: envs[to-1].Identity, instID: tc.req.InstanceID(), self: to, role: dealingRole{kind: role.kind}}
				s, err := recipient.open(1, boxes[j])
				if err != nil {
					t.Fatalf("node %d cannot open its box: %v", to, err)
				}
				if s.Index != j+1 || !com.VerifyShare(s) {
					t.Fatalf("node %d's box holds no valid sub-share %d", to, j+1)
				}
			}
		})
	}
}

// TestSealedKeygenDisqualifiesFaultyDealer corrupts node 2's sub-share
// for node 3 before sealing. Node 3's box opens
// but fails Feldman verification, so it complains; node 2's
// justification reveals the same bad share, fails on every node —
// node 2 included — and the dealer is disqualified identically
// everywhere while the run completes with the other three dealers.
func TestSealedKeygenDisqualifiesFaultyDealer(t *testing.T) {
	TestFaultDealing = func(node int, d *dkg.Dealing) {
		if node == 2 {
			d.SubShares[2].Value = big.NewInt(42) // f_2(3) forged
		}
	}
	defer func() { TestFaultDealing = nil }()
	t.Run("sealed", func(t *testing.T) {
		nodes := dealNodes(t, 1, 4)
		gen := Request{Scheme: schemes.KG20, KeyID: "faulty", Op: OpKeyGen}
		protos := startAll(t, nodes, gen, testEnvs(t, 4))
		for idx, v := range driveNodes(t, protos) {
			if string(v) != "faulty" {
				t.Fatalf("node %d keygen result %q", idx, v)
			}
		}
		checkQualified(t, protos, []int{1, 3, 4}, []int{2})
		checkSameKey(t, nodes, schemes.KG20, "faulty")
	})
}

// TestSealedReshare runs a sealed same-committee refresh: dealings are
// boxed to the new members, the complaint round is empty, the epoch
// advances, the public key is preserved, and decryption still works.
func TestSealedReshare(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.SG02)
	envs := testEnvs(t, 4)
	pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	msg := []byte("sealed reshare keeps the key")
	ct, err := sg02.Encrypt(rand.Reader, pk, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Scheme: schemes.SG02, Op: OpReshare,
		Payload: identitySpec(1, 4).Marshal(), Epoch: keys.FirstEpoch}
	protos := make(map[int]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req, envs[i])
		if err != nil {
			t.Fatal(err)
		}
		protos[i+1] = p
	}
	for idx, val := range driveNodes(t, protos) {
		if string(val) != "2" {
			t.Fatalf("node %d reshare result %q, want \"2\"", idx, val)
		}
	}
	for i, nk := range nodes {
		if !keys.MustPublic[*sg02.PublicKey](nk, schemes.SG02).Y.Equal(pk.Y) {
			t.Fatalf("node %d public key changed across the sealed refresh", i+1)
		}
	}
	dec := Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: ct.Marshal()}
	decProtos := make(map[int]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, dec, Env{})
		if err != nil {
			t.Fatal(err)
		}
		decProtos[i+1] = p
	}
	for idx, val := range driveNodes(t, decProtos) {
		if string(val) != string(msg) {
			t.Fatalf("node %d decrypted %q after sealed refresh", idx, val)
		}
	}
}

// TestSealedReshareDisqualifiesFaultyDealer makes old member 2 a
// faulty reshare dealer in two ways:
//   - bad-sub-share: its sub-share for new member 3 is forged, so the
//     complaint round drops it;
//   - forged-commitment: it reshares a value that is not its share, so
//     every node rejects its dealing publicly, with no complaint.
//
// Either way every node drops dealer 2 alone, and the refresh
// completes from the rest with the public key preserved.
func TestSealedReshareDisqualifiesFaultyDealer(t *testing.T) {
	faults := []struct {
		name       string
		fault      func(g group.Group, d *sharepkg.ReshareDealing)
		unresolved []int
	}{
		{"bad-sub-share", func(_ group.Group, d *sharepkg.ReshareDealing) {
			d.SubShares[2].Value = big.NewInt(42)
		}, []int{2}},
		{"forged-commitment", func(g group.Group, d *sharepkg.ReshareDealing) {
			forged, err := sharepkg.Reshare(rand.Reader, g, sharepkg.Share{Index: d.Dealer, Value: big.NewInt(42)}, 1, 4)
			if err != nil {
				panic(err)
			}
			*d = *forged
		}, nil},
	}
	for _, fc := range faults {
		t.Run("sealed/"+fc.name, func(t *testing.T) {
			nodes := dealNodes(t, 1, 4, schemes.SG02)
			pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
			TestFaultReshareDealing = func(node int, d *sharepkg.ReshareDealing) {
				if node == 2 {
					fc.fault(pk.Group, d)
				}
			}
			defer func() { TestFaultReshareDealing = nil }()
			req := Request{Scheme: schemes.SG02, Op: OpReshare,
				Payload: identitySpec(1, 4).Marshal(), Epoch: keys.FirstEpoch}
			envs := testEnvs(t, 4)
			// A bystander instance of node 3 receives dealer 2's
			// dealing as captured on the wire, to see the verdict.
			probe, err := New(rand.Reader, nodes[2], req, envs[2])
			if err != nil {
				t.Fatal(err)
			}
			var dealing2 *ProtocolMessage
			protos := startAll(t, nodes, req, envs)
			results := driveWith(t, protos, func(to int, m *ProtocolMessage) {
				if m.Sender == 2 && m.Round == 1 && dealing2 == nil {
					dealing2 = &ProtocolMessage{Sender: 2, Round: 1, Payload: m.Payload}
				}
			})
			for idx, val := range results {
				if string(val) != "2" {
					t.Fatalf("node %d reshare result %q, want \"2\"", idx, val)
				}
			}
			if err := probe.Update(*dealing2); !errors.Is(err, ErrShareRejected) {
				t.Fatalf("dealer 2's dealing = %v, want ErrShareRejected", err)
			}
			checkQualified(t, protos, []int{1, 3, 4}, fc.unresolved)
			checkSameKey(t, nodes, schemes.SG02, "")
			if !keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02).Y.Equal(pk.Y) {
				t.Fatal("public key changed")
			}
			decryptsAfter(t, nodes)
		})
	}
}

// TestJustificationRepairsFalseComplaint corrupts, in transit, the box
// an honest dealer (node 2) sends to node 3, for key generation and
// resharing. Node 3 complains, node 2's
// justification verifies and discharges the complaint, node 3 adopts
// the revealed sub-share, and every node keeps all four dealers and
// installs the same key.
func TestJustificationRepairsFalseComplaint(t *testing.T) {
	ops := []struct {
		name   string
		scheme schemes.ID
		req    Request
		result string
	}{
		{"keygen", schemes.KG20, Request{Scheme: schemes.KG20, KeyID: "repaired", Op: OpKeyGen}, "repaired"},
		{"reshare", schemes.SG02, Request{Scheme: schemes.SG02, Op: OpReshare,
			Payload: identitySpec(1, 4).Marshal(), Epoch: keys.FirstEpoch}, "2"},
	}
	for _, op := range ops {
		t.Run(op.name+"/sealed", func(t *testing.T) {
			nodes := dealNodes(t, 1, 4, op.scheme)
			protos := startAll(t, nodes, op.req, testEnvs(t, 4))
			g := protos[3].(*dealingProtocol).role.g
			tampered := false
			results := driveWith(t, protos, func(to int, m *ProtocolMessage) {
				if m.Sender != 2 || m.Round != 1 || to != 3 {
					return
				}
				com, boxes, err := unmarshalDealing(g, 4, m.Payload)
				if err != nil {
					t.Fatal(err)
				}
				box := append([]byte(nil), boxes[2]...)
				box[len(box)-1] ^= 1
				boxes[2] = box
				m.Payload = marshalDealing(com.Points, boxes)
				tampered = true
			})
			if !tampered {
				t.Fatal("dealer 2's dealing never reached node 3")
			}
			for idx, val := range results {
				if string(val) != op.result {
					t.Fatalf("node %d result %q, want %q", idx, val, op.result)
				}
			}
			for idx, p := range protos {
				if got := p.(*dealingProtocol).log.Against(2); !reflect.DeepEqual(got, []int{3}) {
					t.Fatalf("node %d recorded complaints %v against dealer 2, want [3]", idx, got)
				}
			}
			checkQualified(t, protos, []int{1, 2, 3, 4}, nil)
			checkSameKey(t, nodes, op.scheme, op.req.KeyID)
		})
	}
}

// TestSealedKeygenNeedsFullRoster pins the configuration contract: a
// sealed DKG cannot start unless every deployment node is rostered,
// and a node without an identity key is refused with an error naming
// it.
func TestSealedKeygenNeedsFullRoster(t *testing.T) {
	nodes := dealNodes(t, 1, 4)
	envs := testEnvs(t, 4)
	partial := make(identity.Roster)
	for i := 1; i <= 3; i++ { // node 4 missing
		partial[i] = envs[i-1].Roster[i]
	}
	env := Env{Identity: envs[0].Identity, Roster: partial}
	gen := Request{Scheme: schemes.KG20, KeyID: "short", Op: OpKeyGen}
	if _, err := New(rand.Reader, nodes[0], gen, env); err == nil {
		t.Fatal("sealed keygen started with a partial roster")
	}
	if _, err := New(rand.Reader, nodes[0], gen, Env{}); err == nil || !strings.Contains(err.Error(), "no identity key") {
		t.Fatalf("keygen without an identity = %v, want a refusal naming the identity key", err)
	}
}

// goldenDealing describes one recorded round-1 broadcast in
// testdata/wire/golden.json.
type goldenDealing struct {
	Group      string   `json:"group"`
	Kind       string   `json:"kind"`
	Instance   string   `json:"instance"`
	Dealer     int      `json:"dealer"`
	Recipients []int    `json:"recipients"`
	File       string   `json:"file"`
	SubShares  []string `json:"sub_shares"` // hex, share index order
}

// TestDealingWireGolden keeps secure deployments wire-compatible with
// earlier releases. It replays dealing-family messages an earlier
// release recorded: both sealed dealings decode and open, with the
// recipients' identity files, to the recorded sub-shares, and the
// complaint and justification messages decode and re-encode byte for
// byte.
func TestDealingWireGolden(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var m struct {
		Keygen, Reshare goldenDealing
		Complaint       struct {
			File    string
			Dealers []int
		}
		Justification struct {
			File   string
			Shares []struct {
				Index int
				Value string
			}
		}
	}
	if err := json.Unmarshal(read("golden.json"), &m); err != nil {
		t.Fatal(err)
	}
	for _, gd := range []goldenDealing{m.Keygen, m.Reshare} {
		t.Run(gd.Kind, func(t *testing.T) {
			g, err := group.ByName(gd.Group)
			if err != nil {
				t.Fatal(err)
			}
			data := read(gd.File)
			com, boxes, err := unmarshalDealing(g, len(gd.Recipients), data)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(marshalDealing(com.Points, boxes), data) {
				t.Fatal("dealing does not re-encode to the recorded bytes")
			}
			for j, to := range gd.Recipients {
				id, err := identity.LoadKey(filepath.Join(dir, fmt.Sprintf("node%d.key", to)))
				if err != nil {
					t.Fatal(err)
				}
				recipient := &dealingProtocol{id: id, instID: gd.Instance, self: to, role: dealingRole{kind: gd.Kind}}
				s, err := recipient.open(gd.Dealer, boxes[j])
				if err != nil {
					t.Fatalf("node %d cannot open its box: %v", to, err)
				}
				want, _ := new(big.Int).SetString(gd.SubShares[j], 16)
				if s.Index != j+1 || s.Value.Cmp(want) != 0 {
					t.Fatalf("node %d opened share %d=%x, recorded %d=%x", to, s.Index, s.Value, j+1, want)
				}
				if !com.VerifyShare(s) {
					t.Fatalf("node %d's recorded sub-share fails the recorded commitment", to)
				}
			}
		})
	}
	complaint := read(m.Complaint.File)
	dealers, err := unmarshalComplaints(complaint, 4)
	if err != nil || !reflect.DeepEqual(dealers, m.Complaint.Dealers) {
		t.Fatalf("complaint decoded to %v (%v), recorded %v", dealers, err, m.Complaint.Dealers)
	}
	if !bytes.Equal(marshalComplaints(dealers), complaint) {
		t.Fatal("complaint does not re-encode to the recorded bytes")
	}
	justification := read(m.Justification.File)
	js, err := unmarshalJustifications(justification, 4)
	if err != nil || len(js) != len(m.Justification.Shares) {
		t.Fatalf("justification decoded to %v (%v)", js, err)
	}
	for i, s := range js {
		want := m.Justification.Shares[i]
		if s.Index != want.Index || s.Value.Text(16) != want.Value {
			t.Fatalf("justification share %d = %d:%x, recorded %d:%s", i, s.Index, s.Value, want.Index, want.Value)
		}
	}
	if !bytes.Equal(marshalJustifications(js), justification) {
		t.Fatal("justification does not re-encode to the recorded bytes")
	}
}

// allocBytes returns the heap bytes one call of f allocates, averaged
// over a few calls.
func allocBytes(f func()) uint64 {
	const runs = 16
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestUnmarshalReshareSpecBoundsAllocation pins the fix for a reshare
// spec whose member count is checked against the bytes that follow
// before anything is allocated: a 24-byte payload claiming 65 536
// members is rejected without allocating for them. It also pins that
// every dealing-family decoder rejects trailing bytes.
func TestUnmarshalReshareSpecBoundsAllocation(t *testing.T) {
	forged := wire.NewWriter().Int(1).Int(1 << 16).Out()
	if len(forged) != 24 {
		t.Fatalf("forged spec is %d bytes", len(forged))
	}
	if _, err := UnmarshalReshareSpec(forged); err == nil {
		t.Fatal("accepted a spec claiming more members than it carries")
	}
	if got := allocBytes(func() { _, _ = UnmarshalReshareSpec(forged) }); got > 1024 {
		t.Fatalf("decoding a 24-byte spec allocated %d bytes", got)
	}
	for _, dec := range dealingDecoders {
		for _, seed := range dec.seeds() {
			if dec.decode(seed) == nil {
				t.Fatalf("%s: rejected its own encoding", dec.name)
			}
			if dec.decode(append(seed, 0)) != nil {
				t.Fatalf("%s: accepted a trailing byte", dec.name)
			}
		}
	}
}

// dealingDecoders lists the dealing-family decoders for the fuzz
// target: decode returns nil for a rejected input, and otherwise a
// function re-encoding what was decoded. seeds returns valid
// encodings.
var dealingDecoders = []struct {
	name   string
	decode func([]byte) func() []byte
	seeds  func() [][]byte
}{
	{"dealing/edwards25519", dealingDecoder(group.Edwards25519()), dealingSeeds(group.Edwards25519())},
	{"dealing/p256", dealingDecoder(group.P256()), dealingSeeds(group.P256())},
	{"complaints", func(b []byte) func() []byte {
		dealers, err := unmarshalComplaints(b, 4)
		if err != nil {
			return nil
		}
		return func() []byte { return marshalComplaints(dealers) }
	}, func() [][]byte { return [][]byte{marshalComplaints(nil), marshalComplaints([]int{2, 4})} }},
	{"justifications", func(b []byte) func() []byte {
		js, err := unmarshalJustifications(b, 4)
		if err != nil {
			return nil
		}
		return func() []byte { return marshalJustifications(js) }
	}, func() [][]byte {
		return [][]byte{marshalJustifications(nil),
			marshalJustifications([]sharepkg.Share{{Index: 3, Value: big.NewInt(42)}, {Index: 1, Value: big.NewInt(0)}})}
	}},
	{"sub-share", func(b []byte) func() []byte {
		s, err := unmarshalSubShare(b)
		if err != nil {
			return nil
		}
		return func() []byte { return marshalSubShare(s) }
	}, func() [][]byte {
		return [][]byte{marshalSubShare(sharepkg.Share{Index: 2, Value: big.NewInt(1 << 40)})}
	}},
	{"reshare-spec", func(b []byte) func() []byte {
		spec, err := UnmarshalReshareSpec(b)
		if err != nil {
			return nil
		}
		return func() []byte { return spec.Marshal() }
	}, func() [][]byte {
		return [][]byte{identitySpec(1, 4).Marshal(), (ReshareSpec{NewT: 1, Members: []int{2, 3, 4}}).Marshal()}
	}},
}

func dealingDecoder(g group.Group) func([]byte) func() []byte {
	return func(b []byte) func() []byte {
		com, boxes, err := unmarshalDealing(g, 4, b)
		if err != nil {
			return nil
		}
		return func() []byte { return marshalDealing(com.Points, boxes) }
	}
}

func dealingSeeds(g group.Group) func() [][]byte {
	return func() [][]byte {
		points := []group.Point{g.Generator(), g.Identity()}
		boxes := [][]byte{{}, {1}, marshalSubShare(sharepkg.Share{Index: 3, Value: big.NewInt(7)}), bytes.Repeat([]byte{9}, 80)}
		return [][]byte{marshalDealing(points, boxes)}
	}
}

// FuzzDealingDecoders feeds arbitrary bytes to every dealing-family
// decoder — dealing (over both groups), complaints, justifications,
// sub-share, reshare spec — selected by which. It asserts that no
// input panics, that decoding allocates in proportion to the input,
// and that every accepted input re-encodes to exactly itself.
func FuzzDealingDecoders(f *testing.F) {
	for i, dec := range dealingDecoders {
		for _, seed := range dec.seeds() {
			f.Add(uint8(i), seed)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		dec := dealingDecoders[int(which)%len(dealingDecoders)]
		var reencode func() []byte
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reencode = dec.decode(data)
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
