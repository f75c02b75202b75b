package frost

import (
	"math/big"
	"slices"
	"testing"

	"thetacrypt/internal/group"
	"thetacrypt/internal/mathutil"
	"thetacrypt/internal/share"
	"thetacrypt/internal/wire"
)

// The oracle: FROST's per-signer formulas as written before the
// signing session, each computed from scratch on every call. ρ_j
// re-encodes the whole commitment list, R sums D_j + ρ_j*E_j with one
// Point.Mul per signer, and the challenge and z_j are recomputed from
// those.

func oracleRho(pk *PublicKey, j int, msg []byte, sorted []*NonceCommitment) *big.Int {
	data := [][]byte{wire.NewWriter().Int(j).Out(), msg}
	for _, c := range sorted {
		data = append(data, wire.NewWriter().Int(c.Index).Bytes(c.D.Marshal()).Bytes(c.E.Marshal()).Out())
	}
	return pk.Group.HashToScalar("frost/rho", data...)
}

func oracleR(pk *PublicKey, msg []byte, sorted []*NonceCommitment) group.Point {
	acc := pk.Group.Identity()
	for _, c := range sorted {
		acc = acc.Add(c.D).Add(c.E.Mul(oracleRho(pk, c.Index, msg, sorted)))
	}
	return acc
}

func oracleChallenge(pk *PublicKey, r group.Point, msg []byte) *big.Int {
	return pk.Group.HashToScalar("frost/challenge", r.Marshal(), pk.Y.Marshal(), msg)
}

func oracleZ(pk *PublicKey, ks KeyShare, nonce *Nonce, msg []byte, sorted []*NonceCommitment) *big.Int {
	ord := pk.Group.Order()
	idx := make([]int, len(sorted))
	for k, c := range sorted {
		idx[k] = c.Index
	}
	lambda, err := share.LagrangeCoefficient(ks.Index, idx, ord)
	if err != nil {
		panic(err)
	}
	c := oracleChallenge(pk, oracleR(pk, msg, sorted), msg)
	z := mathutil.AddMod(nonce.D, mathutil.MulMod(nonce.E, oracleRho(pk, ks.Index, msg, sorted), ord), ord)
	return mathutil.AddMod(z, mathutil.MulMod(mathutil.MulMod(lambda, ks.Value, ord), c, ord), ord)
}

// fuzzSigning derives a (t, n) key, a signer set of at least t+1 and
// the signers' nonces from the fuzz input. The key and the nonces hash
// seed; mask picks the signers (topped up with the lowest indices), and
// they are listed in descending order so the session must sort them.
// With mask's top bit set, the commitments go through their encoding,
// so the session hashes the decoded bytes.
func fuzzSigning(p256 bool, t, n uint8, mask uint8, seed []byte) (*PublicKey, []KeyShare, []*Nonce, []*NonceCommitment) {
	g := group.Edwards25519()
	if p256 {
		g = group.P256()
	}
	nn := 1 + int(n)%7
	tt := int(t) % nn
	var signers []int
	for i := nn; i >= 1; i-- {
		if mask&(1<<(i-1)) != 0 {
			signers = append(signers, i)
		}
	}
	for i := 1; len(signers) < tt+1; i++ {
		if !slices.Contains(signers, i) {
			signers = append(signers, i)
		}
	}
	poly := &share.Polynomial{Coeffs: make([]*big.Int, tt+1), Modulus: g.Order()}
	for k := range poly.Coeffs {
		poly.Coeffs[k] = g.HashToScalar("frost-fuzz/coef", seed, []byte{byte(k)})
	}
	keyShares := poly.Shares(nn)
	pk := &PublicKey{Group: g, Y: g.BaseMul(poly.Coeffs[0]), VK: make([]group.Point, nn), T: tt, N: nn}
	for i, s := range keyShares {
		pk.VK[i] = g.BaseMul(s.Value)
	}
	nonces := make([]*Nonce, len(signers))
	comms := make([]*NonceCommitment, len(signers))
	for k, i := range signers {
		d := g.HashToScalar("frost-fuzz/d", seed, []byte{byte(i)})
		e := g.HashToScalar("frost-fuzz/e", seed, []byte{byte(i)})
		nonces[k] = &Nonce{D: d, E: e}
		comms[k] = &NonceCommitment{Index: i, D: g.BaseMul(d), E: g.BaseMul(e)}
		if mask&0x80 != 0 {
			var err error
			if comms[k], err = UnmarshalNonceCommitment(g, comms[k].Marshal()); err != nil {
				panic(err)
			}
		}
	}
	return pk, keyShares, nonces, comms
}

// FuzzFrostSession checks a Session against the oracle above on fuzzed
// groups, thresholds, signer sets, keys, nonces and messages: every ρ_i,
// R, c and every z_i must agree; every honest share must verify and a
// share off by one must not; the shares must combine into a signature
// Verify accepts.
func FuzzFrostSession(f *testing.F) {
	f.Add(false, uint8(2), uint8(6), uint8(0b111), []byte("kg20"), []byte("m"))
	f.Add(false, uint8(1), uint8(3), uint8(0b1010), []byte{}, []byte{})
	f.Add(false, uint8(0), uint8(0), uint8(0), []byte("one signer"), []byte("solo"))
	f.Add(true, uint8(1), uint8(3), uint8(0b1111), []byte("p256"), []byte("all four"))
	f.Add(false, uint8(2), uint8(6), uint8(0b10000111), []byte("decoded"), []byte("m"))
	f.Fuzz(func(t *testing.T, p256 bool, tt, n, mask uint8, seed, msg []byte) {
		pk, keyShares, nonces, comms := fuzzSigning(p256, tt, n, mask, seed)
		s, err := NewSession(pk, msg, comms)
		if err != nil {
			t.Fatal(err)
		}
		sorted := slices.Clone(comms)
		slices.SortFunc(sorted, func(a, b *NonceCommitment) int { return a.Index - b.Index })
		r := oracleR(pk, msg, sorted)
		if !s.r.Equal(r) {
			t.Fatalf("R = %x, oracle %x", s.r.Marshal(), r.Marshal())
		}
		if c := oracleChallenge(pk, r, msg); s.c.Cmp(c) != 0 {
			t.Fatalf("c = %v, oracle %v", s.c, c)
		}
		shares := make([]*SignatureShare, len(comms))
		for k, comm := range comms {
			i := comm.Index
			if rho := oracleRho(pk, i, msg, sorted); s.rho[s.position(i)].Cmp(rho) != 0 {
				t.Fatalf("ρ_%d = %v, oracle %v", i, s.rho[s.position(i)], rho)
			}
			ss, err := s.Sign(keyShares[i-1], nonces[k])
			if err != nil {
				t.Fatal(err)
			}
			if z := oracleZ(pk, keyShares[i-1], nonces[k], msg, sorted); ss.Z.Cmp(z) != 0 {
				t.Fatalf("z_%d = %v, oracle %v", i, ss.Z, z)
			}
			if err := s.VerifyShare(ss); err != nil {
				t.Fatalf("honest share %d rejected: %v", i, err)
			}
			off := &SignatureShare{Index: i, Z: mathutil.AddMod(ss.Z, big.NewInt(1), pk.Group.Order())}
			if s.VerifyShare(off) == nil {
				t.Fatalf("share %d off by one accepted", i)
			}
			shares[k] = ss
		}
		sig, err := s.Combine(shares)
		if err != nil {
			t.Fatal(err)
		}
		if !sig.R.Equal(r) {
			t.Fatal("combined R differs from the oracle's")
		}
		if err := Verify(pk, msg, sig); err != nil {
			t.Fatal(err)
		}
	})
}
