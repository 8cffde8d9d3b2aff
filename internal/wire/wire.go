// Package wire is the SurfOS length-prefixed binary framing layer, shared
// by every framed protocol in the system: the southbound control protocol
// (ctrlproto device agents), the framed northbound task API, and — by
// design — any future transport that ships records between control-plane
// processes (WAL shipping for controller failover rides the same frames).
//
// One frame on the wire:
//
//	frame := magic(2) version(1) type(1) stream(4) len(4) payload(len)
//
// All integers are big-endian. The 4-byte stream field is
// protocol-defined: RPC-style protocols use it as a correlation ID echoed
// by the matching reply, streaming protocols use it as a logical stream
// ID so many event streams multiplex over one connection. The layout is
// byte-identical to the original ctrlproto framing, so every existing
// agent, client, and golden byte sequence is unchanged.
package wire

import (
	"encoding/binary"
	"errors"
	"io"
)

// Protocol constants.
const (
	// Magic marks every frame ("SurfOS").
	Magic   uint16 = 0x5F05
	Version byte   = 1
	// MaxPayload bounds a frame's payload; a 512×512-element codebook of 16
	// entries is ~33 MB, so allow 64 MB.
	MaxPayload = 64 << 20
	// HeaderLen is the fixed frame header size.
	HeaderLen = 2 + 1 + 1 + 4 + 4
)

// Framing errors.
var (
	ErrBadMagic   = errors.New("wire: bad magic")
	ErrBadVersion = errors.New("wire: unsupported version")
	ErrTooLarge   = errors.New("wire: payload exceeds MaxPayload")
)

// Frame is one protocol unit. Type identifies the message to the layered
// protocol; Stream is the correlation or stream ID; Payload is opaque to
// this package.
type Frame struct {
	Type    byte
	Stream  uint32
	Payload []byte
}

// AppendFrame serializes a frame onto buf and returns the extended slice.
func AppendFrame(buf []byte, f Frame) ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return buf, ErrTooLarge
	}
	buf = binary.BigEndian.AppendUint16(buf, Magic)
	buf = append(buf, Version, f.Type)
	buf = binary.BigEndian.AppendUint32(buf, f.Stream)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(f.Payload)))
	return append(buf, f.Payload...), nil
}

// WriteFrame serializes a frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxPayload {
		return ErrTooLarge
	}
	hdr := make([]byte, HeaderLen)
	binary.BigEndian.PutUint16(hdr[0:2], Magic)
	hdr[2] = Version
	hdr[3] = f.Type
	binary.BigEndian.PutUint32(hdr[4:8], f.Stream)
	binary.BigEndian.PutUint32(hdr[8:12], uint32(len(f.Payload)))
	if _, err := w.Write(hdr); err != nil || len(f.Payload) == 0 {
		return err
	}
	// An empty payload is not written: on a synchronous transport
	// (net.Pipe) a zero-length write blocks until the peer reads again,
	// so a peer that answers the header and hangs up would fail it.
	_, err := w.Write(f.Payload)
	return err
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	hdr := make([]byte, HeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Frame{}, err
	}
	return readBody(r, hdr)
}

// readBody validates a header and reads the payload it announces.
func readBody(r io.Reader, hdr []byte) (Frame, error) {
	if binary.BigEndian.Uint16(hdr[0:2]) != Magic {
		return Frame{}, ErrBadMagic
	}
	if hdr[2] != Version {
		return Frame{}, ErrBadVersion
	}
	n := binary.BigEndian.Uint32(hdr[8:12])
	if n > MaxPayload {
		return Frame{}, ErrTooLarge
	}
	f := Frame{
		Type:   hdr[3],
		Stream: binary.BigEndian.Uint32(hdr[4:8]),
	}
	if n > 0 {
		f.Payload = make([]byte, n)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, err
		}
	}
	return f, nil
}

// SplitFrame extracts one complete raw frame (header + payload bytes) from
// the head of buf, returning the remainder. ok is false when buf does not
// yet hold a complete frame — including when the announced payload exceeds
// MaxPayload, which can never complete. Fault injectors and stream
// reassemblers share this so "one frame" means the same thing everywhere.
func SplitFrame(buf []byte) (frame, rest []byte, ok bool) {
	if len(buf) < HeaderLen {
		return nil, buf, false
	}
	n := int(binary.BigEndian.Uint32(buf[8:12]))
	total := HeaderLen + n
	if n > MaxPayload || len(buf) < total {
		return nil, buf, false
	}
	return buf[:total:total], buf[total:], true
}
