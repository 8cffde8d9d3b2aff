package ctrlproto

// Stream multiplexing (northbound): a client opens any number of logical
// event streams over one connection, each identified by a client-chosen
// 32-bit stream ID drawn from the same space as request correlation IDs.
// Events for a stream are pushed as MsgTaskEvent frames whose Corr field
// carries the stream ID, so one connection interleaves RPC replies and any
// number of scoped streams.
//
// Each open stream is its own bus subscriber with a kind-appropriate
// backpressure policy: task streams ride a drop-oldest ring (a lagging
// watcher sees the freshest window), health streams coalesce per device
// (only the latest state matters).

// Stream message types, continuing the task-API block (healthmsg.go ends
// at 25).
const (
	MsgOpenStream  MsgType = iota + 26 // open a logical event stream
	MsgCloseStream                     // close one stream, leaving the connection up
)

// Stream kinds for OpenStreamMsg.
const (
	// StreamTasks delivers every task lifecycle event; Filter, when
	// non-empty, restricts to one tenant.
	StreamTasks = "tasks"
	// StreamHealth delivers device health transitions only (coalesced to
	// the latest state per device); Filter, when non-empty, restricts to
	// one device ID.
	StreamHealth = "health"
)

// OpenStreamMsg asks the control agent to start pushing events on a
// client-chosen stream ID.
type OpenStreamMsg struct {
	Stream uint32
	Kind   string
	Filter string
}

// Encode serializes the message.
func (m OpenStreamMsg) Encode() []byte {
	var e encoder
	e.u32(m.Stream)
	e.str(m.Kind)
	e.str(m.Filter)
	return e.buf
}

// DecodeOpenStreamMsg parses an OpenStreamMsg payload.
func DecodeOpenStreamMsg(b []byte) (OpenStreamMsg, error) {
	d := decoder{buf: b}
	m := OpenStreamMsg{Stream: d.u32(), Kind: d.str(), Filter: d.str()}
	return m, d.finish()
}

// CloseStreamMsg tears down one logical stream.
type CloseStreamMsg struct {
	Stream uint32
}

// Encode serializes the message.
func (m CloseStreamMsg) Encode() []byte {
	var e encoder
	e.u32(m.Stream)
	return e.buf
}

// DecodeCloseStreamMsg parses a CloseStreamMsg payload.
func DecodeCloseStreamMsg(b []byte) (CloseStreamMsg, error) {
	d := decoder{buf: b}
	m := CloseStreamMsg{Stream: d.u32()}
	return m, d.finish()
}
