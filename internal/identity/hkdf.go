package identity

import (
	"crypto/hmac"
	"crypto/sha256"
)

// HKDF is RFC 5869 extract-then-expand over HMAC-SHA256, producing n
// output bytes (n ≤ 255·32). The standard library only grew a hkdf
// package after this module's floor, so the mesh carries its own —
// the sealed-box layer derives its AEAD keys through it.
func HKDF(secret, salt, info []byte, n int) []byte {
	// Extract: PRK = HMAC(salt, secret). A nil salt hashes as the
	// RFC's zero-filled default by way of HMAC's key padding.
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)

	// Expand: T(i) = HMAC(PRK, T(i-1) || info || i).
	out := make([]byte, 0, n)
	var block []byte
	for i := byte(1); len(out) < n; i++ {
		exp := hmac.New(sha256.New, prk)
		exp.Write(block)
		exp.Write(info)
		exp.Write([]byte{i})
		block = exp.Sum(nil)
		out = append(out, block...)
	}
	return out[:n]
}
