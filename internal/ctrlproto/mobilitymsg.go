package ctrlproto

// Mobility payload: re-target a live task's spatial goal (a user walking
// with their device). The orchestrator hands the task off between
// interference-domain shards when the new position is best served
// elsewhere.

// MsgMoveTask continues the wire numbering (replmsg.go ends at 31;
// monitormsg.go continues at 33) — append only.
const MsgMoveTask MsgType = 32

// MoveTaskMsg re-targets one task at a new position.
type MoveTaskMsg struct {
	ID  uint32
	Pos [3]float64
}

// Encode serializes the message.
func (m MoveTaskMsg) Encode() []byte {
	var e encoder
	e.u32(m.ID)
	for _, v := range m.Pos {
		e.f64(v)
	}
	return e.buf
}

// DecodeMoveTaskMsg parses a MoveTaskMsg payload.
func DecodeMoveTaskMsg(b []byte) (MoveTaskMsg, error) {
	d := decoder{buf: b}
	m := MoveTaskMsg{ID: d.u32()}
	for i := range m.Pos {
		m.Pos[i] = d.f64()
	}
	return m, d.finish()
}
