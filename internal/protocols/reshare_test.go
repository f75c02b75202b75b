package protocols

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/sg02"
)

// driveNodes runs TRI instances keyed by their REAL mesh node index —
// unlike drive, which numbers senders by slice position — so protocols
// that translate mesh senders into committee share indices (reshared
// keys with explicit members) see the envelopes a real transport would
// deliver.
func driveNodes(t *testing.T, protos map[int]Protocol) map[int][]byte {
	t.Helper()
	return driveWith(t, protos, nil)
}

// driveWith is driveNodes with a hook that may rewrite each message on
// its way to one node, modelling corruption in transit.
func driveWith(t *testing.T, protos map[int]Protocol, tamper func(to int, msg *ProtocolMessage)) map[int][]byte {
	t.Helper()
	type pending struct {
		sender int
		out    *RoundOutput
	}
	var queue []pending
	for idx, p := range protos {
		out, err := p.DoRound()
		if err != nil {
			t.Fatalf("node %d DoRound: %v", idx, err)
		}
		if out != nil {
			queue = append(queue, pending{sender: idx, out: out})
		}
	}
	results := make(map[int][]byte)
	for steps := 0; steps < 10000; steps++ {
		if len(results) == len(protos) {
			return results
		}
		if len(queue) == 0 {
			t.Fatal("deadlock: no messages in flight and not all finalized")
		}
		msg := queue[0]
		queue = queue[1:]
		for idx, p := range protos {
			if idx == msg.sender || results[idx] != nil {
				continue
			}
			m := ProtocolMessage{Sender: msg.sender, Round: msg.out.Round, Payload: msg.out.Payload}
			if tamper != nil {
				tamper(idx, &m)
			}
			err := p.Update(m)
			if err != nil && !errors.Is(err, ErrShareRejected) {
				t.Fatalf("node %d update: %v", idx, err)
			}
			for p.IsReadyForNextRound() {
				out, err := p.DoRound()
				if err != nil {
					t.Fatalf("node %d DoRound: %v", idx, err)
				}
				if out != nil {
					queue = append(queue, pending{sender: idx, out: out})
				}
			}
			if p.IsReadyToFinalize() {
				val, err := p.Finalize()
				if err != nil {
					t.Fatalf("node %d finalize: %v", idx, err)
				}
				results[idx] = val
			}
		}
	}
	t.Fatal("driveNodes did not converge")
	return nil
}

func identitySpec(t, n int) ReshareSpec {
	members := make([]int, n)
	for i := range members {
		members[i] = i + 1
	}
	return ReshareSpec{NewT: t, Members: members}
}

// TestReshareRefreshAdvancesEpoch runs a same-committee proactive
// refresh and checks the lifecycle contract: every node lands at epoch
// 2 with a DIFFERENT share scalar, the public key is untouched, and a
// ciphertext from epoch 1 still decrypts under the refreshed shares.
func TestReshareRefreshAdvancesEpoch(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.SG02)
	pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	msg := []byte("sealed before the refresh")
	ct, err := sg02.Encrypt(rand.Reader, pk, msg, nil)
	if err != nil {
		t.Fatal(err)
	}
	oldShares := make(map[int]*big.Int)
	for i, nk := range nodes {
		oldShares[i+1] = keys.MustShare[sg02.KeyShare](nk, schemes.SG02).Value
	}

	req := Request{Scheme: schemes.SG02, Op: OpReshare,
		Payload: identitySpec(1, 4).Marshal(), Epoch: keys.FirstEpoch}
	envs := testEnvs(t, len(nodes))
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
		k, err := nk.Get(schemes.SG02, "")
		if err != nil {
			t.Fatal(err)
		}
		if k.Epoch != 2 {
			t.Fatalf("node %d at epoch %d after refresh", i+1, k.Epoch)
		}
		share := k.Share.(sg02.KeyShare)
		if share.Index != i+1 {
			t.Fatalf("node %d share index moved to %d in a same-committee refresh", i+1, share.Index)
		}
		if share.Value.Cmp(oldShares[i+1]) == 0 {
			t.Fatalf("node %d share unchanged: the refresh did not re-randomize", i+1)
		}
		if !keys.MustPublic[*sg02.PublicKey](nk, schemes.SG02).Y.Equal(pk.Y) {
			t.Fatalf("node %d public key changed across the refresh", i+1)
		}
	}

	// The epoch-1 ciphertext decrypts under the epoch-2 shares.
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
			t.Fatalf("node %d decrypted %q after refresh", idx, val)
		}
	}
}

// TestReshareMembershipChange moves the default SG02 key from the
// identity committee of 4 onto nodes {2, 3, 4}: the leaving node keeps
// a public-only record (typed no-share failures), the new committee
// holds compacted share indices, and decryption works among the new
// members with mesh senders translated to committee indices.
func TestReshareMembershipChange(t *testing.T) {
	nodes := dealNodes(t, 1, 4, schemes.SG02)
	pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	msg := []byte("survives the committee change")
	ct, err := sg02.Encrypt(rand.Reader, pk, msg, nil)
	if err != nil {
		t.Fatal(err)
	}

	spec := ReshareSpec{NewT: 1, Members: []int{2, 3, 4}}
	req := Request{Scheme: schemes.SG02, Op: OpReshare, Payload: spec.Marshal(), Epoch: keys.FirstEpoch}
	envs := testEnvs(t, len(nodes))
	protos := make(map[int]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req, envs[i])
		if err != nil {
			t.Fatal(err)
		}
		protos[i+1] = p
	}
	driveNodes(t, protos)

	// Node 1 left: public record at epoch 2, no share, typed failure on
	// quorum operations.
	k1, err := nodes[0].Get(schemes.SG02, "")
	if err != nil {
		t.Fatal(err)
	}
	if k1.Epoch != 2 || k1.Share != nil {
		t.Fatalf("leaving node kept epoch=%d share=%v", k1.Epoch, k1.Share)
	}
	dec := Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: ct.Marshal()}
	if _, err := New(rand.Reader, nodes[0], dec, Env{}); !errors.Is(err, keys.ErrKeyNoShare) {
		t.Fatalf("decrypt on leaving node = %v, want ErrKeyNoShare", err)
	}

	// The new committee holds compacted indices 1..3 in member order.
	for pos, nodeIdx := range spec.Members {
		k, err := nodes[nodeIdx-1].Get(schemes.SG02, "")
		if err != nil {
			t.Fatal(err)
		}
		share := k.Share.(sg02.KeyShare)
		if share.Index != pos+1 {
			t.Fatalf("node %d holds share index %d, want %d", nodeIdx, share.Index, pos+1)
		}
		if tt, nn := k.Params(); tt != 1 || nn != 3 {
			t.Fatalf("node %d sees params (t=%d, n=%d), want (1, 3)", nodeIdx, tt, nn)
		}
	}

	// Decryption among the new members, with real mesh sender indices.
	decProtos := make(map[int]Protocol, len(spec.Members))
	for _, nodeIdx := range spec.Members {
		p, err := New(rand.Reader, nodes[nodeIdx-1], dec, Env{})
		if err != nil {
			t.Fatal(err)
		}
		decProtos[nodeIdx] = p
	}
	for idx, val := range driveNodes(t, decProtos) {
		if string(val) != string(msg) {
			t.Fatalf("node %d decrypted %q after membership change", idx, val)
		}
	}

	// A share from outside the committee is rejected by the sender map,
	// not silently mis-attributed to a committee index.
	outsider, err := New(rand.Reader, nodes[1], dec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if err := outsider.Update(ProtocolMessage{Sender: 1, Round: 1, Payload: []byte("x")}); !errors.Is(err, ErrShareRejected) {
		t.Fatalf("non-member sender = %v, want ErrShareRejected", err)
	}
}

// TestReshareEpochPinning covers the request-side epoch guard: after a
// reshare, submissions pinned to the superseded epoch fail with the
// typed epoch error, unpinned submissions use the current epoch, and a
// stale reshare request (still naming epoch 1) cannot start.
func TestReshareEpochPinning(t *testing.T) {
	nodes := dealNodes(t, 1, 3, schemes.SG02)
	req := Request{Scheme: schemes.SG02, Op: OpReshare,
		Payload: identitySpec(1, 3).Marshal(), Epoch: keys.FirstEpoch}
	envs := testEnvs(t, len(nodes))
	protos := make(map[int]Protocol, len(nodes))
	for i, nk := range nodes {
		p, err := New(rand.Reader, nk, req, envs[i])
		if err != nil {
			t.Fatal(err)
		}
		protos[i+1] = p
	}
	driveNodes(t, protos)

	pk := keys.MustPublic[*sg02.PublicKey](nodes[0], schemes.SG02)
	ct, err := sg02.Encrypt(rand.Reader, pk, []byte("pinned"), nil)
	if err != nil {
		t.Fatal(err)
	}
	stale := Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: ct.Marshal(), Epoch: 1}
	if _, err := New(rand.Reader, nodes[0], stale, Env{}); !errors.Is(err, keys.ErrKeyEpoch) {
		t.Fatalf("old-epoch decrypt = %v, want ErrKeyEpoch", err)
	}
	current := Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: ct.Marshal(), Epoch: 2}
	if _, err := New(rand.Reader, nodes[0], current, Env{}); err != nil {
		t.Fatalf("current-epoch decrypt rejected: %v", err)
	}
	unpinned := Request{Scheme: schemes.SG02, Op: OpDecrypt, Payload: ct.Marshal()}
	if _, err := New(rand.Reader, nodes[0], unpinned, Env{}); err != nil {
		t.Fatalf("unpinned decrypt rejected: %v", err)
	}
	staleReshare := Request{Scheme: schemes.SG02, Op: OpReshare,
		Payload: identitySpec(1, 3).Marshal(), Epoch: 1}
	if _, err := New(rand.Reader, nodes[0], staleReshare, Env{}); !errors.Is(err, keys.ErrKeyEpoch) {
		t.Fatalf("stale reshare = %v, want ErrKeyEpoch", err)
	}
}
