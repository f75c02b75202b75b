// Package pairing implements the BN254 pairing-friendly elliptic curve
// (also known as alt_bn128): the base field Fp on four 64-bit Montgomery
// limbs (math/bits only, no assembly), the quadratic / sextic / dodecic
// extension tower as value types whose operations write into a receiver
// and allocate nothing, the groups G1 = E(Fp) and G2 ⊂ E'(Fp2) in
// Jacobian coordinates, hashing to both groups, and the optimal ate
// pairing e: G1 × G2 → GT with a projective, inversion-free Miller loop
// and a final exponentiation that squares in the cyclotomic subgroup.
//
// BN254 is the curve used by the paper's BZ03 and BLS04 schemes
// (Table 3). Scalars cross the API as *big.Int and are reduced and
// serialised by math/big; from the 32 reduced scalar bytes on, G1.Mul and
// G2.Mul are constant-time in the scalar. Everything that only ever sees
// public inputs is deliberately variable-time: the decoders, hashing to
// the curve, Equal, Pair, PairingCheck and the GT operations.
//
// The math/big implementation this code replaced survives as the
// test-only oracle in bn254_oracle_test.go; testdata/bn254_kat.json holds
// answers frozen from it, and every encoding, every hash-to-curve output
// and every decoder verdict is byte-for-byte what that code produced.
package pairing

import "math/big"

// The BN254 parameters are the standard alt_bn128 ones (as used by
// Ethereum's precompiles): with u = 4965661367192848881,
// p = 36u^4 + 36u^3 + 24u^2 + 6u + 1 (the limbs in fp.go) and
// r = 36u^4 + 36u^3 + 18u^2 + 6u + 1.
const bnU = 4965661367192848881

var (
	// orderBytes is the prime group order r; cofactorBytes is
	// #E'(Fp2)/r = 2p - r. Big-endian, the form the scalar ladder takes.
	// Both are below 2^254.
	orderBytes = [32]byte{
		0x30, 0x64, 0x4e, 0x72, 0xe1, 0x31, 0xa0, 0x29, 0xb8, 0x50, 0x45, 0xb6, 0x81, 0x81, 0x58, 0x5d,
		0x28, 0x33, 0xe8, 0x48, 0x79, 0xb9, 0x70, 0x91, 0x43, 0xe1, 0xf5, 0x93, 0xf0, 0x00, 0x00, 0x01,
	}
	cofactorBytes = [32]byte{
		0x30, 0x64, 0x4e, 0x72, 0xe1, 0x31, 0xa0, 0x29, 0xb8, 0x50, 0x45, 0xb6, 0x81, 0x81, 0x58, 0x5e,
		0x06, 0xce, 0xec, 0xda, 0x57, 0x2a, 0x24, 0x89, 0x34, 0x5f, 0x22, 0x99, 0xc0, 0xf9, 0xfa, 0x8d,
	}
	modulusBytes = [32]byte{
		0x30, 0x64, 0x4e, 0x72, 0xe1, 0x31, 0xa0, 0x29, 0xb8, 0x50, 0x45, 0xb6, 0x81, 0x81, 0x58, 0x5d,
		0x97, 0x81, 0x6a, 0x91, 0x68, 0x71, 0xca, 0x8d, 0x3c, 0x20, 0x8c, 0x16, 0xd8, 0x7c, 0xfd, 0x47,
	}

	// sixUPlus2NAF is the non-adjacent form of the optimal ate loop
	// count 6u + 2, least significant digit first.
	sixUPlus2NAF = [66]int8{
		0, 0, 0, 1, 0, 1, 0, -1, 0, 0, -1, 0, 0, 0, 1, 0, 0, -1, 0, -1, 0, 0,
		0, 1, 0, -1, 0, 0, 0, 0, -1, 0, 0, 1, 0, -1, 0, 0, 1, 0, 0, 0, 0, 0,
		-1, 0, 0, -1, 0, 1, 0, -1, 0, 0, 0, -1, 0, -1, 0, 0, 0, 1, 0, -1, 0, 1,
	}

	// feThree is the G1 curve coefficient b = 3: y^2 = x^3 + 3.
	feThree = fe{0x7a17caa950ad28d7, 0x1f6ac17ae15521b9, 0x334bea4e696bd284, 0x2a1f6744ce179d8e}

	// twistB is the twist coefficient b' = 3/ξ of E': y^2 = x^3 + b',
	// with ξ = 9 + i the sextic non-residue defining the tower.
	twistB = fe2{
		fe{0x3bf938e377b802a8, 0x020b1b273633535d, 0x26b7edf049755260, 0x2514c6324384a86d},
		fe{0x38e7ecccd1dcff67, 0x65f0b37d93ce0d3e, 0xd749d0dd22ac00aa, 0x0141b9ce4a688d4d},
	}

	// frobGamma[j] = ξ^(j(p-1)/6) for j = 1..5 are the Frobenius twist
	// constants; index 0 is unused.
	frobGamma = [6]fe2{
		1: {
			fe{0xaf9ba69633144907, 0xca6b1d7387afb78a, 0x11bded5ef08a2087, 0x02f34d751a1f3a7c},
			fe{0xa222ae234c492d72, 0xd00f02a4565de15b, 0xdc2ff3a253dfc926, 0x10a75716b3899551},
		},
		2: {
			fe{0xb5773b104563ab30, 0x347f91c8a9aa6454, 0x7a007127242e0991, 0x1956bcd8118214ec},
			fe{0x6e849f1ea0aa4757, 0xaa1c7b6d89f89141, 0xb6e713cdfae0ca3a, 0x26694fbb4e82ebc3},
		},
		3: {
			fe{0xe4bbdd0c2936b629, 0xbb30f162e133bacb, 0x31a9d1b6f9645366, 0x253570bea500f8dd},
			fe{0xa1d77ce45ffe77c7, 0x07affd117826d1db, 0x6d16bd27bb7edc6b, 0x2c87200285defecc},
		},
		4: {
			fe{0x7361d77f843abe92, 0xa5bb2bd3273411fb, 0x9c941f314b3e2399, 0x15df9cddbb9fd3ec},
			fe{0x5dddfd154bd8c949, 0x62cb29a5a4445b60, 0x37bc870a0c7dd2b9, 0x24830a9d3171f0fd},
		},
		5: {
			fe{0xc970692f41690fe7, 0xe240342127694b0b, 0x32bee66b83c459e8, 0x12aabced0ab08841},
			fe{0x0d485d2340aebfa9, 0x05193418ab2fcc57, 0xd3b0a40b8a4910f5, 0x2f21ebb535d2925a},
		},
	}

	// g2GenX, g2GenY are the standard alt_bn128 G2 generator on the twist.
	g2GenX = fe2{
		fe{0x8e83b5d102bc2026, 0xdceb1935497b0172, 0xfbb8264797811adf, 0x19573841af96503b},
		fe{0xafb4737da84c6140, 0x6043dd5a5802d8c4, 0x09e950fc52a02f86, 0x14fef0833aea7b6b},
	}
	g2GenY = fe2{
		fe{0x619dfa9d886be9f6, 0xfe7fd297f59e9b78, 0xff9e1a62231b7dfe, 0x28fd7eebae9e4206},
		fe{0x64095b56c71856ee, 0xdc57f922327d3cbb, 0x55f935be33351076, 0x0da4a0e693fd6482},
	}
)

// Order returns the prime order r of G1, G2 and GT.
func Order() *big.Int { return new(big.Int).SetBytes(orderBytes[:]) }

// FieldModulus returns the base field prime p.
func FieldModulus() *big.Int { return new(big.Int).SetBytes(modulusBytes[:]) }

// recodeScalar splits a big-endian scalar below 2^255 into 64 signed
// radix-16 digits, least significant first: every digit lies in [-8, 7]
// except the last, which lies in [0, 8]. The scalar ladders do the same
// work for each digit whatever its value, so their sequence of
// operations is the same for every scalar.
func recodeScalar(k *[32]byte) (digits [64]int8) {
	for i := 0; i < 32; i++ {
		digits[2*i] = int8(k[31-i] & 15)
		digits[2*i+1] = int8(k[31-i] >> 4)
	}
	for i := 0; i < 63; i++ {
		carry := (digits[i] + 8) >> 4
		digits[i] -= carry << 4
		digits[i+1] += carry
	}
	return digits
}

// scalarBytes reduces k modulo r and serialises it; the constant-time
// claim of G1.Mul and G2.Mul starts at its result.
func scalarBytes(k *big.Int) (out [32]byte) {
	new(big.Int).Mod(k, Order()).FillBytes(out[:])
	return out
}
