package cloudsim

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"
)

// readFrame reads a single frame through a frameReader of its own, so the
// payload is the caller's to keep — what the tests that collect frames
// want, and what a connection's reused buffer does not give.
func readFrame(r io.Reader) (byte, []byte, error) {
	return (&frameReader{r: r}).next()
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("hello amalgam")
	if err := writeFrame(&buf, msgSpec, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != msgSpec || string(got) != string(payload) {
		t.Fatalf("frame roundtrip kind=%d payload=%q", kind, got)
	}
}

func TestFrameEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgSubmit, nil); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != msgSubmit || len(got) != 0 {
		t.Fatal("empty frame corrupted")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, msgSpec, []byte("abcdef")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-2]
	if _, _, err := readFrame(bytes.NewReader(raw)); err == nil {
		t.Fatal("truncated frame should fail")
	}
}

func TestFrameOversizeRejected(t *testing.T) {
	// Hand-craft a header claiming a 2 GiB payload.
	hdr := []byte{msgSpec, 0xff, 0xff, 0xff, 0x7f}
	if _, _, err := readFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversize frame should be rejected before allocation")
	}
}

// TestWriteFrameOversizeFailsFast pins the write-side guard: a payload over
// maxFrame must be refused before a single byte hits the wire — previously
// it was written with a (potentially truncated) uint32 length and the peer
// rejected the stream mid-job. maxFrame is lowered so the test does not
// allocate gigabytes.
func TestWriteFrameOversizeFailsFast(t *testing.T) {
	prev := maxFrame
	maxFrame = 16
	defer func() { maxFrame = prev }()

	var buf bytes.Buffer
	if err := writeFrame(&buf, msgState, make([]byte, 17)); err == nil {
		t.Fatal("oversize payload should fail fast on the write side")
	}
	if buf.Len() != 0 {
		t.Fatalf("oversize write left %d bytes on the wire; a partial frame corrupts the stream", buf.Len())
	}
	// At exactly the limit the frame must still round-trip.
	payload := make([]byte, 16)
	if err := writeFrame(&buf, msgState, payload); err != nil {
		t.Fatal(err)
	}
	kind, got, err := readFrame(&buf)
	if err != nil || kind != msgState || len(got) != 16 {
		t.Fatalf("limit-sized frame roundtrip failed: kind=%d len=%d err=%v", kind, len(got), err)
	}
}

// TestServerSurvivesGarbageConnection is failure injection: a client that
// sends junk must not wedge or crash the service; a well-formed job
// afterwards still succeeds.
func TestServerSurvivesGarbageConnection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte{0x42, 0x00, 0x00, 0x00, 0x02, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	_, _ = conn.Read(buf) // server replies with an error frame or closes
	conn.Close()

	req, _, _ := tinyJob(t, false)
	if _, err := TrainContextNet(context.Background(), l.Addr().String(), req, StreamHandlers{}, NetConfig{}); err != nil {
		t.Fatalf("server wedged after garbage connection: %v", err)
	}
}

func TestServerRejectsUnknownFrameMidJob(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	server := NewServer(l)
	defer func() {
		l.Close()
		server.Wait()
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, 99, []byte("?")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	kind, payload, err := readFrame(conn)
	if err != nil {
		return // connection closed: acceptable rejection
	}
	if kind != msgError {
		t.Fatalf("expected error frame, got kind %d payload %q", kind, payload)
	}
}
