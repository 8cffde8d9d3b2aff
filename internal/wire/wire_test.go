package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Type: 1},
		{Type: 7, Stream: 42, Payload: []byte("hello")},
		{Type: 255, Stream: 0xFFFFFFFF, Payload: bytes.Repeat([]byte{0x5F}, 1024)},
		{Type: 0, Stream: 1, Payload: []byte{}},
	}
	var buf bytes.Buffer
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame[%d]: %v", i, err)
		}
		if got.Type != want.Type || got.Stream != want.Stream || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after reading all frames", buf.Len())
	}
}

func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	f := Frame{Type: 9, Stream: 1234, Payload: []byte("payload bytes")}
	var w bytes.Buffer
	if err := WriteFrame(&w, f); err != nil {
		t.Fatal(err)
	}
	appended, err := AppendFrame(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), appended) {
		t.Fatalf("AppendFrame bytes differ from WriteFrame:\n%x\n%x", appended, w.Bytes())
	}
}

func TestWireLayoutIsPinned(t *testing.T) {
	// The byte layout is a compatibility contract with every deployed agent:
	// magic(2) version(1) type(1) stream(4) len(4) payload.
	b, err := AppendFrame(nil, Frame{Type: 0x0B, Stream: 0x01020304, Payload: []byte{0xAA, 0xBB}})
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{0x5F, 0x05, 0x01, 0x0B, 0x01, 0x02, 0x03, 0x04, 0x00, 0x00, 0x00, 0x02, 0xAA, 0xBB}
	if !bytes.Equal(b, want) {
		t.Fatalf("layout drifted:\n got %x\nwant %x", b, want)
	}
}

// countingWriter counts Write calls.
type countingWriter struct{ writes int }

func (w *countingWriter) Write(p []byte) (int, error) { w.writes++; return len(p), nil }

// TestEmptyPayloadIsOneWrite: a header-only frame is a single write, so a
// peer that answers the header and hangs up does not fail it on a
// synchronous transport.
func TestEmptyPayloadIsOneWrite(t *testing.T) {
	var w countingWriter
	if err := WriteFrame(&w, Frame{Type: 1}); err != nil || w.writes != 1 {
		t.Fatalf("empty frame: %d writes, err %v; want 1 write", w.writes, err)
	}
}

func TestReadFrameErrors(t *testing.T) {
	mk := func(mut func(hdr []byte)) io.Reader {
		b, _ := AppendFrame(nil, Frame{Type: 1, Stream: 2, Payload: []byte("x")})
		mut(b)
		return bytes.NewReader(b)
	}
	if _, err := ReadFrame(mk(func(h []byte) { h[0] = 0x00 })); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: got %v", err)
	}
	if _, err := ReadFrame(mk(func(h []byte) { h[2] = 99 })); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: got %v", err)
	}
	if _, err := ReadFrame(mk(func(h []byte) {
		binary.BigEndian.PutUint32(h[8:12], MaxPayload+1)
	})); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("too large: got %v", err)
	}
	// Truncated header and truncated payload surface as IO errors.
	if _, err := ReadFrame(strings.NewReader("\x5f\x05\x01")); err == nil {
		t.Fatal("truncated header: want error")
	}
	short, _ := AppendFrame(nil, Frame{Type: 1, Payload: []byte("abcdef")})
	if _, err := ReadFrame(bytes.NewReader(short[:len(short)-2])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated payload: got %v", err)
	}
	if err := WriteFrame(io.Discard, Frame{Payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversize write: got %v", err)
	}
}

func TestSplitFrameIncremental(t *testing.T) {
	a, _ := AppendFrame(nil, Frame{Type: 1, Stream: 10, Payload: []byte("first")})
	b, _ := AppendFrame(nil, Frame{Type: 2, Stream: 20, Payload: []byte("second")})
	stream := append(append([]byte{}, a...), b...)

	// Feed the stream byte by byte; frames must pop out exactly at their
	// completion boundaries, in order.
	var buf []byte
	var got [][]byte
	for _, c := range stream {
		buf = append(buf, c)
		for {
			frame, rest, ok := SplitFrame(buf)
			if !ok {
				break
			}
			got = append(got, frame)
			buf = rest
		}
	}
	if len(buf) != 0 || len(got) != 2 {
		t.Fatalf("got %d frames, %d leftover bytes", len(got), len(buf))
	}
	if !bytes.Equal(got[0], a) || !bytes.Equal(got[1], b) {
		t.Fatal("reassembled frames differ from originals")
	}

	// An announced payload beyond MaxPayload can never complete.
	huge := make([]byte, HeaderLen)
	binary.BigEndian.PutUint16(huge[0:2], Magic)
	huge[2] = Version
	binary.BigEndian.PutUint32(huge[8:12], MaxPayload+1)
	if _, _, ok := SplitFrame(huge); ok {
		t.Fatal("SplitFrame accepted an impossible frame")
	}
}

// FuzzFrame drives both directions of the codec: arbitrary bytes must never
// panic the decoder, and anything that decodes must re-encode to the same
// bytes (given a sane header the codec is bijective).
func FuzzFrame(f *testing.F) {
	seed := func(fr Frame) {
		b, err := AppendFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	seed(Frame{Type: 1})
	seed(Frame{Type: 11, Stream: 7, Payload: []byte("ack")})
	seed(Frame{Type: 20, Stream: 0xDEADBEEF, Payload: bytes.Repeat([]byte{1, 2, 3}, 100)})
	f.Add([]byte{})
	f.Add([]byte{0x5F})
	f.Add([]byte{0x5F, 0x05, 0x01, 0x01, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x5F, 0x05}, 32))

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		re, err := AppendFrame(nil, fr)
		if err != nil {
			t.Fatalf("decoded frame failed to re-encode: %v", err)
		}
		if !bytes.Equal(re, data[:len(re)]) {
			t.Fatalf("round-trip mismatch:\n in %x\nout %x", data[:len(re)], re)
		}
		// SplitFrame must agree with ReadFrame about the frame boundary.
		frame, _, ok := SplitFrame(data)
		if !ok {
			t.Fatal("ReadFrame succeeded but SplitFrame found no frame")
		}
		if !bytes.Equal(frame, re) {
			t.Fatal("SplitFrame boundary disagrees with ReadFrame")
		}
	})
}
