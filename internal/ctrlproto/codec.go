// Package ctrlproto is the SurfOS southbound control protocol: the wire
// format and endpoints connecting the central control plane (surface
// orchestrator) to surface controller agents, mirroring how SDN decouples
// the control plane from forwarding hardware (paper §3.1).
//
// The protocol is a length-prefixed binary TLV over TCP:
//
//	frame  := magic(2) version(1) type(1) corr(4) len(4) payload(len)
//
// All integers are big-endian. Strings are u16 length + UTF-8 bytes;
// float64 slices are u32 count + IEEE-754 bits. Requests carry a
// correlation ID echoed by the matching reply, so a client can pipeline
// concurrent requests over one connection; agents may also push unsolicited
// Feedback frames (correlation 0).
//
// The framing layer itself (magic, version, length prefix) lives in the
// shared internal/wire package — the framed northbound and any future
// control-plane transport speak the same frames. This package layers the
// message-type vocabulary and payload codecs on top.
package ctrlproto

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"surfos/internal/surface"
	"surfos/internal/wire"
)

// Protocol constants, re-exported from the shared framing layer so
// existing callers keep compiling against ctrlproto alone.
const (
	Magic      = wire.Magic
	Version    = wire.Version
	MaxPayload = wire.MaxPayload
)

// MsgType identifies a frame's meaning.
type MsgType byte

// Message types.
const (
	MsgHello MsgType = iota + 1
	MsgHelloReply
	MsgGetSpec
	MsgSpecReply
	MsgShiftPhase
	MsgSetAmplitude
	MsgStoreCodebook
	MsgSelect
	MsgActiveQuery
	MsgActiveReply
	MsgAck
	MsgError
	MsgFeedback
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	names := map[MsgType]string{
		MsgHello: "hello", MsgHelloReply: "hello-reply",
		MsgGetSpec: "get-spec", MsgSpecReply: "spec-reply",
		MsgShiftPhase: "shift-phase", MsgSetAmplitude: "set-amplitude",
		MsgStoreCodebook: "store-codebook", MsgSelect: "select",
		MsgActiveQuery: "active-query", MsgActiveReply: "active-reply",
		MsgAck: "ack", MsgError: "error", MsgFeedback: "feedback",
		MsgListTasks: "list-tasks", MsgTasksReply: "tasks-reply",
		MsgEndTask: "end-task", MsgSetIdle: "set-idle",
		MsgSubmitTask: "submit-task", MsgTaskReply: "task-reply",
		MsgWatchTasks: "watch-tasks", MsgTaskEvent: "task-event",
		MsgDemand: "demand", MsgDemandReply: "demand-reply",
		MsgHealth: "health", MsgHealthReply: "health-reply",
		MsgOpenStream: "open-stream", MsgCloseStream: "close-stream",
		MsgReplSnapshot: "repl-snapshot", MsgReplAppend: "repl-append",
		MsgReplHeartbeat: "repl-heartbeat", MsgReplAck: "repl-ack",
		MsgMoveTask: "move-task", MsgReport: "report",
		MsgDiagnose: "diagnose", MsgDiagnoseReply: "diagnose-reply",
	}
	if s, ok := names[t]; ok {
		return s
	}
	return fmt.Sprintf("msg(%d)", byte(t))
}

// Protocol errors. The framing errors are the shared wire sentinels, so
// errors.Is works the same whether a caller checked against ctrlproto or
// wire; ErrTruncated is this package's payload-decode error.
var (
	ErrBadMagic   = wire.ErrBadMagic
	ErrBadVersion = wire.ErrBadVersion
	ErrTooLarge   = wire.ErrTooLarge
	ErrTruncated  = fmt.Errorf("ctrlproto: truncated payload")
)

// Frame is one protocol unit: a wire frame whose stream field carries this
// protocol's request correlation ID (or stream ID for multiplexed event
// streams) and whose type is a ctrlproto MsgType.
type Frame struct {
	Type    MsgType
	Corr    uint32
	Payload []byte
}

const headerLen = wire.HeaderLen

// WriteFrame serializes a frame to w.
func WriteFrame(w io.Writer, f Frame) error {
	return wire.WriteFrame(w, wire.Frame{Type: byte(f.Type), Stream: f.Corr, Payload: f.Payload})
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	wf, err := wire.ReadFrame(r)
	if err != nil {
		return Frame{}, err
	}
	return Frame{Type: MsgType(wf.Type), Corr: wf.Stream, Payload: wf.Payload}, nil
}

// --- payload primitives ---

type encoder struct{ buf []byte }

func (e *encoder) u8(v byte)     { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16)  { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32)  { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64)  { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) str(s string) {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	e.u16(uint16(len(s)))
	e.buf = append(e.buf, s...)
}

// bytes writes a u32-length-prefixed byte blob (snapshot payloads and WAL
// record data can exceed the u16 str limit).
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

func (e *encoder) bool(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

func (e *encoder) strs(v []string) {
	if len(v) > math.MaxUint16 {
		v = v[:math.MaxUint16]
	}
	e.u16(uint16(len(v)))
	for _, s := range v {
		e.str(s)
	}
}

func (e *encoder) floats(v []float64) {
	e.u32(uint32(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) need(n int) bool {
	if d.err != nil {
		return false
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return false
	}
	return true
}

func (d *decoder) u8() byte {
	if !d.need(1) {
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u16() uint16 {
	if !d.need(2) {
		return 0
	}
	v := binary.BigEndian.Uint16(d.buf[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if !d.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if !d.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) str() string {
	n := int(d.u16())
	if !d.need(n) {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || !d.need(n) {
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+n])
	d.off += n
	return out
}

func (d *decoder) bool() bool { return d.u8() == 1 }

func (d *decoder) strs() []string {
	n := int(d.u16())
	var out []string
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

func (d *decoder) floats() []float64 {
	n := int(d.u32())
	if d.err != nil || n < 0 {
		return nil
	}
	// Guard against absurd counts before allocating.
	if d.off+8*n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

// optU64 reads a trailing optional u64 field: present iff exactly 8 bytes
// remain, 0 otherwise. Appended-on-encode optional fields use this so
// payloads from older peers (without the field) still decode.
func (d *decoder) optU64() uint64 {
	if d.err != nil || d.off+8 != len(d.buf) {
		return 0
	}
	return d.u64()
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("ctrlproto: %d trailing bytes", len(d.buf)-d.off)
	}
	return nil
}

// --- message payloads ---

// Hello announces an agent's device.
type Hello struct {
	DeviceID string
	Model    string
	Mount    string
}

// Encode serializes the message.
func (m Hello) Encode() []byte {
	var e encoder
	e.str(m.DeviceID)
	e.str(m.Model)
	e.str(m.Mount)
	return e.buf
}

// DecodeHello parses a Hello payload.
func DecodeHello(b []byte) (Hello, error) {
	d := decoder{buf: b}
	m := Hello{DeviceID: d.str(), Model: d.str(), Mount: d.str()}
	return m, d.finish()
}

// ConfigMsg carries one configuration (ShiftPhase / SetAmplitude).
type ConfigMsg struct {
	Property surface.ControlProperty
	Values   []float64
	// ReqID is the optional idempotency token (trailing field, 0 = none):
	// the agent deduplicates deliveries sharing one, so client retries
	// never double-apply.
	ReqID uint64
}

// Encode serializes the message.
func (m ConfigMsg) Encode() []byte {
	var e encoder
	e.u8(byte(m.Property))
	e.floats(m.Values)
	if m.ReqID != 0 {
		e.u64(m.ReqID)
	}
	return e.buf
}

// DecodeConfigMsg parses a ConfigMsg payload.
func DecodeConfigMsg(b []byte) (ConfigMsg, error) {
	d := decoder{buf: b}
	m := ConfigMsg{Property: surface.ControlProperty(d.u8()), Values: d.floats()}
	m.ReqID = d.optU64()
	return m, d.finish()
}

// Config converts to a surface configuration.
func (m ConfigMsg) Config() surface.Config {
	return surface.Config{Property: m.Property, Values: m.Values}
}

// CodebookMsg replaces a device's stored configurations.
type CodebookMsg struct {
	Property surface.ControlProperty
	Labels   []string
	Entries  [][]float64
	// ReqID is the optional idempotency token (trailing field, 0 = none).
	ReqID uint64
}

// Encode serializes the message.
func (m CodebookMsg) Encode() []byte {
	var e encoder
	e.u8(byte(m.Property))
	e.u32(uint32(len(m.Entries)))
	for i := range m.Entries {
		label := ""
		if i < len(m.Labels) {
			label = m.Labels[i]
		}
		e.str(label)
		e.floats(m.Entries[i])
	}
	if m.ReqID != 0 {
		e.u64(m.ReqID)
	}
	return e.buf
}

// DecodeCodebookMsg parses a CodebookMsg payload.
func DecodeCodebookMsg(b []byte) (CodebookMsg, error) {
	d := decoder{buf: b}
	m := CodebookMsg{Property: surface.ControlProperty(d.u8())}
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		m.Labels = append(m.Labels, d.str())
		m.Entries = append(m.Entries, d.floats())
	}
	m.ReqID = d.optU64()
	return m, d.finish()
}

// SelectMsg activates a stored codebook entry.
type SelectMsg struct {
	Index uint32
	// ReqID is the optional idempotency token (trailing field, 0 = none).
	ReqID uint64
}

// Encode serializes the message.
func (m SelectMsg) Encode() []byte {
	var e encoder
	e.u32(m.Index)
	if m.ReqID != 0 {
		e.u64(m.ReqID)
	}
	return e.buf
}

// DecodeSelectMsg parses a SelectMsg payload.
func DecodeSelectMsg(b []byte) (SelectMsg, error) {
	d := decoder{buf: b}
	m := SelectMsg{Index: d.u32()}
	m.ReqID = d.optU64()
	return m, d.finish()
}

// SpecReply carries the device's hardware specification.
type SpecReply struct {
	Model             string
	FreqLowHz         float64
	FreqHighHz        float64
	Control           surface.ControlProperty
	OpMode            surface.OpMode
	Granularity       surface.Granularity
	Reconfigurable    bool
	PhaseBits         uint8
	ControlDelayNanos uint64
	Rows, Cols        uint32
	CostUSD           float64
}

// Encode serializes the message.
func (m SpecReply) Encode() []byte {
	var e encoder
	e.str(m.Model)
	e.f64(m.FreqLowHz)
	e.f64(m.FreqHighHz)
	e.u8(byte(m.Control))
	e.u8(byte(m.OpMode))
	e.u8(byte(m.Granularity))
	if m.Reconfigurable {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.u8(m.PhaseBits)
	e.u64(m.ControlDelayNanos)
	e.u32(m.Rows)
	e.u32(m.Cols)
	e.f64(m.CostUSD)
	return e.buf
}

// DecodeSpecReply parses a SpecReply payload.
func DecodeSpecReply(b []byte) (SpecReply, error) {
	d := decoder{buf: b}
	m := SpecReply{
		Model:      d.str(),
		FreqLowHz:  d.f64(),
		FreqHighHz: d.f64(),
	}
	m.Control = surface.ControlProperty(d.u8())
	m.OpMode = surface.OpMode(d.u8())
	m.Granularity = surface.Granularity(d.u8())
	m.Reconfigurable = d.u8() == 1
	m.PhaseBits = d.u8()
	m.ControlDelayNanos = d.u64()
	m.Rows = d.u32()
	m.Cols = d.u32()
	m.CostUSD = d.f64()
	return m, d.finish()
}

// ActiveReply reports the device's live configuration.
type ActiveReply struct {
	HasActive bool
	Label     string
	Property  surface.ControlProperty
	Values    []float64
}

// Encode serializes the message.
func (m ActiveReply) Encode() []byte {
	var e encoder
	if m.HasActive {
		e.u8(1)
	} else {
		e.u8(0)
	}
	e.str(m.Label)
	e.u8(byte(m.Property))
	e.floats(m.Values)
	return e.buf
}

// DecodeActiveReply parses an ActiveReply payload.
func DecodeActiveReply(b []byte) (ActiveReply, error) {
	d := decoder{buf: b}
	m := ActiveReply{HasActive: d.u8() == 1, Label: d.str()}
	m.Property = surface.ControlProperty(d.u8())
	m.Values = d.floats()
	return m, d.finish()
}

// ErrorMsg reports a failed request. Code carries the typed error
// category (see status.go) so clients can reconstruct sentinel errors
// across the wire; Text preserves the remote error detail.
type ErrorMsg struct {
	Code Status
	Text string
}

// Encode serializes the message.
func (m ErrorMsg) Encode() []byte {
	var e encoder
	e.u16(uint16(m.Code))
	e.str(m.Text)
	return e.buf
}

// DecodeErrorMsg parses an ErrorMsg payload.
func DecodeErrorMsg(b []byte) (ErrorMsg, error) {
	d := decoder{buf: b}
	m := ErrorMsg{Code: Status(d.u16()), Text: d.str()}
	return m, d.finish()
}

// FeedbackMsg pushes an endpoint report from the agent.
type FeedbackMsg struct {
	EndpointID string
	ConfigIdx  int32
	SNRdB      float64
	UnixNanos  int64
}

// Encode serializes the message.
func (m FeedbackMsg) Encode() []byte {
	var e encoder
	e.str(m.EndpointID)
	e.u32(uint32(m.ConfigIdx))
	e.f64(m.SNRdB)
	e.u64(uint64(m.UnixNanos))
	return e.buf
}

// DecodeFeedbackMsg parses a FeedbackMsg payload.
func DecodeFeedbackMsg(b []byte) (FeedbackMsg, error) {
	d := decoder{buf: b}
	m := FeedbackMsg{EndpointID: d.str()}
	m.ConfigIdx = int32(d.u32())
	m.SNRdB = d.f64()
	m.UnixNanos = int64(d.u64())
	return m, d.finish()
}
