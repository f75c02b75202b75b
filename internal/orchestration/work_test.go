package orchestration

import (
	"crypto/rand"
	"testing"

	"thetacrypt/internal/keys"
	"thetacrypt/internal/network/memnet"
	"thetacrypt/internal/protocols"
	"thetacrypt/internal/schemes"
	"thetacrypt/internal/schemes/sg02"
)

// TestShareChecksPerRequest pins the share-check work of one honest
// SG02 decrypt and one CKS05 coin at n = 4, t = 1. A node checks the
// DLEQ proof of the one peer share that completes its quorum, two
// point relations, and never the share it made itself, so the four
// nodes check exactly 8 relations between them.
func TestShareChecksPerRequest(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  func(t *testing.T, c *cluster) protocols.Request
	}{
		{"SG02-decrypt", func(t *testing.T, c *cluster) protocols.Request {
			pk := keys.MustPublic[*sg02.PublicKey](c.nodes[0], schemes.SG02)
			ct, err := sg02.Encrypt(rand.Reader, pk, []byte("counted"), nil)
			if err != nil {
				t.Fatal(err)
			}
			return protocols.Request{Scheme: schemes.SG02, Op: protocols.OpDecrypt, Payload: ct.Marshal()}
		}},
		{"CKS05-coin", func(*testing.T, *cluster) protocols.Request {
			return protocols.Request{Scheme: schemes.CKS05, Op: protocols.OpCoin, Payload: []byte("counted")}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, 1, 4, memnet.Options{})
			waitAll(t, c.submitAll(t, tc.req(t, c)))
			var rels int64
			for _, e := range c.engines {
				rels += e.Stats().Crypto.BatchedRelations
			}
			if rels != 8 {
				t.Fatalf("one request checked %d relations over four nodes, want 8", rels)
			}
		})
	}
}
