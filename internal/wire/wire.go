// Package wire provides a minimal length-prefixed binary encoding used
// for scheme shares, ciphertexts, and protocol messages. It replaces the
// Protocol Buffers serialization of the original system with a
// self-contained stdlib equivalent: every value is written as a 4-byte
// big-endian length followed by the raw bytes, so encodings are
// unambiguous and platform independent.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
)

// ErrTruncated is returned when a reader runs out of input.
var ErrTruncated = errors.New("wire: truncated input")

const maxChunk = 1 << 24 // 16 MiB sanity cap per field

// Writer accumulates length-prefixed fields.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes appends a byte field.
func (w *Writer) Bytes(b []byte) *Writer {
	var lenbuf [4]byte
	binary.BigEndian.PutUint32(lenbuf[:], uint32(len(b)))
	w.buf = append(w.buf, lenbuf[:]...)
	w.buf = append(w.buf, b...)
	return w
}

// BigInt appends a big integer field: a sign byte (1 for a negative
// value) and the magnitude. Reader.Nat reads the non-negative ones
// back; nothing reads a negative one.
func (w *Writer) BigInt(v *big.Int) *Writer {
	sign := byte(0)
	if v.Sign() < 0 {
		sign = 1
	}
	return w.Bytes(append([]byte{sign}, v.Bytes()...))
}

// Int appends a small integer field.
func (w *Writer) Int(v int) *Writer {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(int64(v)))
	return w.Bytes(b[:])
}

// Uint64 appends an unsigned 64-bit field (sequence numbers, epochs).
func (w *Writer) Uint64(v uint64) *Writer {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return w.Bytes(b[:])
}

// String appends a string field.
func (w *Writer) String(s string) *Writer { return w.Bytes([]byte(s)) }

// Out returns the accumulated encoding.
func (w *Writer) Out() []byte { return w.buf }

// Reader consumes length-prefixed fields.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps an encoded buffer.
func NewReader(data []byte) *Reader { return &Reader{buf: data} }

// Err returns the first decoding error encountered.
func (r *Reader) Err() error { return r.err }

// Done reports whether the whole buffer was consumed without error.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.buf) }

// Remaining returns the number of bytes not yet consumed.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

// Bytes reads the next byte field.
func (r *Reader) Bytes() []byte {
	if r.err != nil {
		return nil
	}
	if r.off+4 > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	n := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	if n > maxChunk {
		r.err = fmt.Errorf("wire: field of %d bytes exceeds cap", n)
		return nil
	}
	if r.off+int(n) > len(r.buf) {
		r.err = ErrTruncated
		return nil
	}
	out := make([]byte, n)
	copy(out, r.buf[r.off:r.off+int(n)])
	r.off += int(n)
	return out
}

// Nat reads a non-negative big integer in the one encoding
// Writer.BigInt gives it: sign byte 0 and no leading zero byte, so an
// accepted value re-encodes to the same bytes. Anything else is a
// decoding error.
func (r *Reader) Nat() *big.Int {
	b := r.Bytes()
	if r.err != nil {
		return nil
	}
	if len(b) == 0 || b[0] != 0 || len(b) > 1 && b[1] == 0 {
		r.err = errors.New("wire: non-canonical natural number")
		return nil
	}
	return new(big.Int).SetBytes(b[1:])
}

// End returns the first decoding error, or an error if any input is
// left unread.
func (r *Reader) End() error {
	if r.err == nil && r.off != len(r.buf) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// Int reads a small integer field.
func (r *Reader) Int() int {
	b := r.Bytes()
	if r.err != nil {
		return 0
	}
	if len(b) != 8 {
		r.err = fmt.Errorf("wire: bad int field length %d", len(b))
		return 0
	}
	return int(int64(binary.BigEndian.Uint64(b)))
}

// Uint64 reads an unsigned 64-bit field.
func (r *Reader) Uint64() uint64 {
	b := r.Bytes()
	if r.err != nil {
		return 0
	}
	if len(b) != 8 {
		r.err = fmt.Errorf("wire: bad uint64 field length %d", len(b))
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// String reads a string field.
func (r *Reader) String() string { return string(r.Bytes()) }
