package tcpnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
)

// countingWriter records every Write call it receives.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

func TestWriteFrameIsOneWrite(t *testing.T) {
	payload := []byte("one frame, one record")
	var w countingWriter
	if err := writeFrame(&w, payload); err != nil {
		t.Fatal(err)
	}
	if w.writes != 1 {
		t.Fatalf("writeFrame made %d writes, want 1", w.writes)
	}
	got, err := readFrame(&w.Buffer)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("frame did not round-trip: %q, %v", got, err)
	}
}

func TestReadFrameGrowsWithArrivingBytes(t *testing.T) {
	// Frames across the doubling steps arrive intact.
	for _, n := range []int{0, 1, readChunk, readChunk + 1, 5*readChunk + 3} {
		payload := bytes.Repeat([]byte{0x5a}, n)
		var w countingWriter
		if err := writeFrame(&w, payload); err != nil {
			t.Fatal(err)
		}
		got, err := readFrame(&w.Buffer)
		if err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("%d-byte frame did not round-trip: %v", n, err)
		}
	}

	// A header declaring the largest legal frame, then EOF: the reader
	// must fail without allocating anywhere near the declared size.
	header := binary.BigEndian.AppendUint32(nil, maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(header))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
		t.Fatalf("a %d-byte header with no body allocated %d bytes", maxFrame, got)
	}
}
