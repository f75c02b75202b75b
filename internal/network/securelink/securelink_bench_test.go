package securelink

import (
	"crypto/rand"
	"io"
	"net"
	"testing"
	"time"

	"thetacrypt/internal/identity"
)

// benchMesh builds two identities and their roster without a *testing.T.
func benchMesh(b *testing.B) ([]*identity.Key, identity.Roster) {
	b.Helper()
	keys := make([]*identity.Key, 3)
	roster := make(identity.Roster, 2)
	for i := 1; i <= 2; i++ {
		k, err := identity.Generate(rand.Reader, i)
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = k
		roster[i] = k.Public()
	}
	return keys, roster
}

// BenchmarkHandshake measures one full mutual-authentication TLS 1.3
// handshake over an in-memory pipe: the key exchange, both Ed25519
// CertificateVerify signatures and their checks, and both roster pins.
// This is the per-link setup cost a reconnect pays.
func BenchmarkHandshake(b *testing.B) {
	keys, roster := benchMesh(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cc, sc := net.Pipe()
		done := make(chan *Conn, 1)
		go func() {
			conn, _, err := Server(sc, Config{Key: keys[2], Roster: roster, Timeout: 10 * time.Second})
			if err != nil {
				sc.Close()
			}
			done <- conn
		}()
		conn, err := Client(cc, Config{Key: keys[1], Roster: roster, Timeout: 10 * time.Second}, 2)
		if err != nil {
			b.Fatal(err)
		}
		srv := <-done
		conn.Close()
		if srv != nil {
			srv.Close()
		}
	}
}

// BenchmarkSecureLinkThroughput measures the TLS record layer's
// steady-state throughput over loopback TCP: 16 KiB writes sealed,
// framed, and opened on the far side. b.SetBytes makes the result
// report MB/s.
func BenchmarkSecureLinkThroughput(b *testing.B) {
	keys, roster := benchMesh(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	type acceptResult struct {
		conn *Conn
		err  error
	}
	acc := make(chan acceptResult, 1)
	go func() {
		raw, err := ln.Accept()
		if err != nil {
			acc <- acceptResult{nil, err}
			return
		}
		conn, _, err := Server(raw, Config{Key: keys[2], Roster: roster, Timeout: 10 * time.Second})
		acc <- acceptResult{conn, err}
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	client, err := Client(raw, Config{Key: keys[1], Roster: roster, Timeout: 10 * time.Second}, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	ar := <-acc
	if ar.err != nil {
		b.Fatal(ar.err)
	}
	drained := make(chan struct{})
	go func() {
		io.Copy(io.Discard, ar.conn)
		close(drained)
	}()

	const chunk = 16 * 1024
	payload := make([]byte, chunk)
	b.SetBytes(chunk)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Write(payload); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	client.Close()
	<-drained
}
