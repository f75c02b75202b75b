package schemes

import (
	"crypto/aes"
	"crypto/cipher"
	"errors"
	"fmt"
	"io"
)

// The threshold ciphers use hybrid encryption: the threshold layer
// encapsulates a 256-bit data-encapsulation key and the payload is
// sealed with an AEAD under that key. The paper uses ChaCha20-Poly1305;
// this reproduction substitutes AES-256-GCM, the stdlib AEAD with the
// same interface and negligible cost relative to the threshold KEM.

// DEKSize is the data-encapsulation key size in bytes.
const DEKSize = 32

// ErrPayloadAuth is returned when AEAD opening fails, i.e. the payload
// was tampered with or the wrong key was reconstructed.
var ErrPayloadAuth = errors.New("schemes: payload authentication failed")

// NewDEK samples a fresh data-encapsulation key.
func NewDEK(rand io.Reader) ([]byte, error) {
	key := make([]byte, DEKSize)
	if _, err := io.ReadFull(rand, key); err != nil {
		return nil, fmt.Errorf("sample DEK: %w", err)
	}
	return key, nil
}

// SealPayload AEAD-encrypts plaintext under key, binding label as
// associated data. The nonce is prepended to the ciphertext.
func SealPayload(rand io.Reader, key, plaintext, label []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, aead.NonceSize())
	if _, err := io.ReadFull(rand, nonce); err != nil {
		return nil, fmt.Errorf("sample nonce: %w", err)
	}
	sealed := aead.Seal(nil, nonce, plaintext, label)
	return append(nonce, sealed...), nil
}

// OpenPayload reverses SealPayload. The AEAD tag doubles as the paper's
// result verification for cipher schemes: a wrongly combined key cannot
// authenticate.
func OpenPayload(key, payload, label []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	if len(payload) < aead.NonceSize() {
		return nil, ErrPayloadAuth
	}
	nonce, sealed := payload[:aead.NonceSize()], payload[aead.NonceSize():]
	plain, err := aead.Open(nil, nonce, sealed, label)
	if err != nil {
		return nil, ErrPayloadAuth
	}
	return plain, nil
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != DEKSize {
		return nil, fmt.Errorf("schemes: DEK must be %d bytes, got %d", DEKSize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("new cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("new gcm: %w", err)
	}
	return aead, nil
}

// XORBytes returns a XOR b for equal-length slices; it implements the
// one-time-pad step of the TDH2/BZ03 key encapsulation.
func XORBytes(a, b []byte) ([]byte, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("schemes: xor length mismatch %d != %d", len(a), len(b))
	}
	out := make([]byte, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out, nil
}
