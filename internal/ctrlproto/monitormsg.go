package ctrlproto

// Monitoring payloads (northbound): endpoint telemetry in, diagnosis out.
// A report is one endpoint's measured SNR through one device; the control
// agent folds it into its monitor, which compares it with the plan's
// prediction.

// Monitoring message types, continuing the wire numbering (MsgMoveTask is
// 32) — append only.
const (
	MsgReport MsgType = iota + 33
	MsgDiagnose
	MsgDiagnoseReply
)

// ReportMsg is one endpoint SNR measurement through one device. The agent
// stamps it with its own receive time.
type ReportMsg struct {
	DeviceID   string
	EndpointID string
	SNRdB      float64
}

// Encode serializes the message.
func (m ReportMsg) Encode() []byte {
	var e encoder
	e.str(m.DeviceID)
	e.str(m.EndpointID)
	e.f64(m.SNRdB)
	return e.buf
}

// DecodeReportMsg parses a ReportMsg payload.
func DecodeReportMsg(b []byte) (ReportMsg, error) {
	d := decoder{buf: b}
	m := ReportMsg{DeviceID: d.str(), EndpointID: d.str(), SNRdB: d.f64()}
	return m, d.finish()
}

// FindingInfo is the wire view of one monitor finding.
type FindingInfo struct {
	DeviceID      string
	EndpointID    string // "" for device-level findings
	Verdict       string // "healthy", "endpoint-blocked", ...
	ExpectedSNRdB float64
	ObservedSNRdB float64
	Samples       uint32
}

// DiagnoseReply lists the monitor's findings, sorted by device then
// endpoint.
type DiagnoseReply struct{ Findings []FindingInfo }

// Encode serializes the message.
func (m DiagnoseReply) Encode() []byte {
	var e encoder
	e.u32(uint32(len(m.Findings)))
	for _, f := range m.Findings {
		e.str(f.DeviceID)
		e.str(f.EndpointID)
		e.str(f.Verdict)
		e.f64(f.ExpectedSNRdB)
		e.f64(f.ObservedSNRdB)
		e.u32(f.Samples)
	}
	return e.buf
}

// DecodeDiagnoseReply parses a DiagnoseReply payload.
func DecodeDiagnoseReply(b []byte) (DiagnoseReply, error) {
	d := decoder{buf: b}
	n := int(d.u32())
	var m DiagnoseReply
	for i := 0; i < n && d.err == nil; i++ {
		m.Findings = append(m.Findings, FindingInfo{
			DeviceID: d.str(), EndpointID: d.str(), Verdict: d.str(),
			ExpectedSNRdB: d.f64(), ObservedSNRdB: d.f64(), Samples: d.u32(),
		})
	}
	return m, d.finish()
}
