package protocols

import (
	"crypto/rand"
	"errors"
	"testing"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/frost"
)

func dealNodes(t *testing.T, tt, n int, ids ...schemes.ID) []*keys.Keystore {
	t.Helper()
	nodes, err := keys.Deal(rand.Reader, tt, n, keys.Options{
		RSABits: 512, UseRSAFixture: true, Schemes: ids,
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// drive runs a set of TRI instances to completion by shuttling their
// messages directly, without any network.
func drive(t *testing.T, protos []Protocol) [][]byte {
	t.Helper()
	type pending struct {
		sender int
		out    *RoundOutput
	}
	var queue []pending
	for i, p := range protos {
		out, err := p.DoRound()
		if err != nil {
			t.Fatalf("node %d DoRound: %v", i+1, err)
		}
		if out != nil {
			queue = append(queue, pending{sender: i + 1, out: out})
		}
	}
	results := make([][]byte, len(protos))
	for steps := 0; steps < 10000; steps++ {
		allDone := true
		for i := range protos {
			if results[i] == nil {
				allDone = false
			}
		}
		if allDone {
			return results
		}
		if len(queue) == 0 {
			t.Fatal("deadlock: no messages in flight and not all finalized")
		}
		msg := queue[0]
		queue = queue[1:]
		for i, p := range protos {
			if i+1 == msg.sender {
				continue
			}
			if results[i] != nil {
				continue
			}
			err := p.Update(ProtocolMessage{Sender: msg.sender, Round: msg.out.Round, Payload: msg.out.Payload})
			if err != nil && !errors.Is(err, ErrShareRejected) {
				t.Fatalf("node %d update: %v", i+1, err)
			}
			for p.IsReadyForNextRound() {
				out, err := p.DoRound()
				if err != nil {
					t.Fatalf("node %d DoRound: %v", i+1, err)
				}
				if out != nil {
					queue = append(queue, pending{sender: i + 1, out: out})
				}
			}
			if p.IsReadyToFinalize() {
				val, err := p.Finalize()
				if err != nil {
					t.Fatalf("node %d finalize: %v", i+1, err)
				}
				results[i] = val
			}
		}
	}
	t.Fatal("drive did not converge")
	return nil
}

func TestRequestInstanceIDDeterministic(t *testing.T) {
	r1 := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: []byte("x")}
	r2 := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: []byte("x")}
	if r1.InstanceID() != r2.InstanceID() {
		t.Fatal("identical requests produced different IDs")
	}
	r3 := Request{Scheme: schemes.BLS04, Op: OpSign, Payload: []byte("y")}
	if r1.InstanceID() == r3.InstanceID() {
		t.Fatal("different payloads collided")
	}
	r4 := Request{Scheme: schemes.SH00, Op: OpSign, Payload: []byte("x")}
	if r1.InstanceID() == r4.InstanceID() {
		t.Fatal("different schemes collided")
	}
}

func TestRequestMarshalRoundTrip(t *testing.T) {
	r := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("name"), Session: "s"}
	got, err := UnmarshalRequest(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.InstanceID() != r.InstanceID() {
		t.Fatal("round trip changed instance ID")
	}
	if _, err := UnmarshalRequest([]byte("junk")); err == nil {
		t.Fatal("junk request decoded")
	}
}

func TestUnsupportedCombos(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.BLS04)
	bad := []Request{
		{Scheme: schemes.BLS04, Op: OpDecrypt},
		{Scheme: schemes.CKS05, Op: OpSign},
		{Scheme: "NOPE", Op: OpSign},
		{Scheme: schemes.SG02, Op: OpDecrypt}, // no SG02 keys dealt
	}
	for _, req := range bad {
		if _, err := New(rand.Reader, nodes[0], req, Env{}); err == nil {
			t.Fatalf("request %v accepted", req)
		}
	}
}

func TestNonInteractiveTRISemantics(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.CKS05)
	protos := make([]Protocol, len(nodes))
	req := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("tri")}
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req, Env{})
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = p
		if p.IsReadyToFinalize() {
			t.Fatal("ready to finalize before DoRound")
		}
		if _, err := p.Finalize(); !errors.Is(err, ErrNotReady) {
			t.Fatal("early finalize did not report ErrNotReady")
		}
	}
	results := drive(t, protos)
	for _, r := range results[1:] {
		if string(r) != string(results[0]) {
			t.Fatal("nodes disagree on coin value")
		}
	}
	// A second DoRound on a finalized instance errors.
	if _, err := protos[0].DoRound(); !errors.Is(err, ErrAlreadyFinalized) {
		t.Fatalf("want ErrAlreadyFinalized, got %v", err)
	}
}

func TestFrostTRITwoRounds(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.KG20)
	protos := make([]Protocol, len(nodes))
	req := Request{Scheme: schemes.KG20, Op: OpSign, Payload: []byte("frost tri")}
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req, Env{})
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = p
	}
	results := drive(t, protos)
	fpk := keys.MustPublic[*frost.PublicKey](nodes[0], schemes.KG20)
	sig, err := frost.UnmarshalSignature(fpk.Group, results[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := frost.Verify(fpk, []byte("frost tri"), sig); err != nil {
		t.Fatal(err)
	}
}

func TestRejectedSharesSurfaceButDoNotKill(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.CKS05)
	req := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("byz")}
	p, err := New(rand.Reader, nodes[0], req, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.DoRound(); err != nil {
		t.Fatal(err)
	}
	err = p.Update(ProtocolMessage{Sender: 2, Round: 1, Payload: []byte("garbage")})
	if !errors.Is(err, ErrShareRejected) {
		t.Fatalf("want ErrShareRejected, got %v", err)
	}
	if p.IsReadyToFinalize() {
		t.Fatal("garbage share advanced the quorum")
	}
}

// TestKeygenProtocolInstallsAgreedKey drives the OpKeyGen TRI protocol
// across four keystores and checks the DKG contract: every node
// installs the key under the requested ID, all public keys agree, and
// the new key immediately signs/decrypts through the ordinary request
// path.
func TestKeygenProtocolInstallsAgreedKey(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.CKS05) // keygen needs only thresholds, but deal CKS05 for contrast
	gen := Request{Scheme: schemes.KG20, KeyID: "runtime-1", Op: OpKeyGen}
	envs := testEnvs(t, len(nodes))
	protos := make([]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, gen, envs[i])
		if err != nil {
			t.Fatal(err)
		}
		protos[i] = p
	}
	results := drive(t, protos)
	for i, v := range results {
		if string(v) != "runtime-1" {
			t.Fatalf("node %d keygen result %q", i+1, v)
		}
	}
	ref, err := keys.Public[*frost.PublicKey](nodes[0], schemes.KG20, "runtime-1")
	if err != nil {
		t.Fatal(err)
	}
	t.Run("agreement", func(t *testing.T) {
		for i, nk := range nodes {
			pk, err := keys.Public[*frost.PublicKey](nk, schemes.KG20, "runtime-1")
			if err != nil {
				t.Fatalf("node %d: %v", i+1, err)
			}
			if !pk.Y.Equal(ref.Y) {
				t.Fatalf("node %d public key differs", i+1)
			}
			for j := range pk.VK {
				if !pk.VK[j].Equal(ref.VK[j]) {
					t.Fatalf("node %d VK[%d] differs", i+1, j)
				}
			}
		}
	})
	t.Run("usable-for-signing", func(t *testing.T) {
		sign := Request{Scheme: schemes.KG20, KeyID: "runtime-1", Op: OpSign, Payload: []byte("signed under DKG key")}
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
	})
	t.Run("conflict", func(t *testing.T) {
		if _, err := New(rand.Reader, nodes[0], gen, Env{}); !errors.Is(err, keys.ErrKeyExists) {
			t.Fatalf("re-running keygen for an installed key: %v", err)
		}
	})
	t.Run("unknown-key-lookup", func(t *testing.T) {
		req := Request{Scheme: schemes.KG20, KeyID: "never-made", Op: OpSign, Payload: []byte("x")}
		if _, err := New(rand.Reader, nodes[0], req, Env{}); !errors.Is(err, keys.ErrKeyUnknown) {
			t.Fatalf("unknown key: %v", err)
		}
	})
}

// TestKeygenValidation pins the Validate contract for OpKeyGen and
// key-ID syntax.
func TestKeygenValidation(t *testing.T) {
	if err := (Request{Scheme: schemes.KG20, KeyID: "ok-1", Op: OpKeyGen}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Request{Scheme: schemes.KG20, Op: OpKeyGen}).Validate(); !errors.Is(err, ErrBadKeyID) {
		t.Fatalf("keygen without id: %v", err)
	}
	if err := (Request{Scheme: schemes.SH00, KeyID: "k", Op: OpKeyGen}).Validate(); !errors.Is(err, ErrKeygenUnsupported) {
		t.Fatalf("deal-only keygen: %v", err)
	}
	if err := (Request{Scheme: schemes.KG20, KeyID: "k", Op: OpKeyGen, Payload: []byte("no-such-group")}).Validate(); !errors.Is(err, ErrKeygenUnsupported) {
		t.Fatalf("unknown group: %v", err)
	}
	if err := (Request{Scheme: schemes.CKS05, KeyID: "bad id", Op: OpCoin}).Validate(); !errors.Is(err, ErrBadKeyID) {
		t.Fatalf("bad key id: %v", err)
	}
}

// TestOperationNames pins the wire names: each operation's String
// parses back to it, and anything else is refused or named by number.
func TestOperationNames(t *testing.T) {
	for _, op := range []Operation{OpSign, OpDecrypt, OpCoin, OpKeyGen, OpReshare} {
		got, err := ParseOperation(op.String())
		if err != nil || got != op {
			t.Fatalf("ParseOperation(%q) = %v, %v; want %v", op.String(), got, err, op)
		}
	}
	if _, err := ParseOperation("encrypt"); err == nil {
		t.Fatal("unknown wire name parsed")
	}
	if got := Operation(99).String(); got != "op(99)" {
		t.Fatalf("Operation(99).String() = %q, want op(99)", got)
	}
}

// TestValidateRejections pins Validate's rejections outside keygen.
func TestValidateRejections(t *testing.T) {
	spec := ReshareSpec{NewT: 1, Members: []int{1, 2, 3}}.Marshal()
	if err := (Request{Scheme: schemes.KG20, Op: OpReshare, Payload: spec}).Validate(); err != nil {
		t.Fatalf("valid reshare refused: %v", err)
	}
	for _, c := range []struct {
		name string
		req  Request
		want error
	}{
		{"unknown op", Request{Scheme: schemes.KG20, Op: Operation(99)}, ErrUnknownOperation},
		{"negative epoch", Request{Scheme: schemes.KG20, Op: OpSign, Epoch: -1}, ErrBadEpoch},
		{"oversize payload", Request{Scheme: schemes.KG20, Op: OpSign, Payload: make([]byte, MaxPayload+1)}, ErrPayloadTooLarge},
		{"deal-only reshare", Request{Scheme: schemes.SH00, Op: OpReshare, Payload: spec}, ErrReshareUnsupported},
		{"malformed spec", Request{Scheme: schemes.KG20, Op: OpReshare, Payload: append(spec, 0)}, ErrReshareUnsupported},
	} {
		if err := c.req.Validate(); !errors.Is(err, c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, err, c.want)
		}
	}
}

// TestKeyIDThreadsThroughIdentity pins that the key ID participates in
// the instance identity and the wire form, with "" and "default"
// naming the same instance.
func TestKeyIDThreadsThroughIdentity(t *testing.T) {
	base := Request{Scheme: schemes.CKS05, Op: OpCoin, Payload: []byte("c")}
	dflt := base
	dflt.KeyID = keys.DefaultKeyID
	if base.InstanceID() != dflt.InstanceID() {
		t.Fatal("empty and explicit default key IDs diverged")
	}
	other := base
	other.KeyID = "other"
	if base.InstanceID() == other.InstanceID() {
		t.Fatal("distinct keys share an instance")
	}
	got, err := UnmarshalRequest(other.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.KeyID != "other" || got.InstanceID() != other.InstanceID() {
		t.Fatalf("wire round trip lost the key id: %+v", got)
	}
}
