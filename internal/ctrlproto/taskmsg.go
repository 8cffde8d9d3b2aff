package ctrlproto

// Task-control payloads: the northbound task API of the control plane
// (list/submit/end/idle, demand dispatch, and the lifecycle event stream),
// sharing the frame format and codec primitives with the device-control
// messages.

// Task-control message types. Values continue the device-control range —
// append only.
const (
	MsgListTasks MsgType = iota + 14
	MsgTasksReply
	MsgEndTask
	MsgSetIdle
	MsgSubmitTask
	MsgTaskReply
	MsgWatchTasks // reserved: the retired whole-table watch; agents answer it with an error
	MsgTaskEvent
	MsgDemand
	MsgDemandReply
)

// TaskInfo is the wire view of one orchestrator task.
type TaskInfo struct {
	ID        uint32
	Kind      string
	State     string
	Priority  uint32
	FreqHz    float64
	HasResult bool
	// Result fields, meaningful when HasResult.
	Metric     float64
	MetricName string
	Share      float64
	Satisfied  bool
	Strategy   string
	Surfaces   []string
	// Err is the failure reason text ("" unless failed).
	Err string
	// Tenant/Domain are the task's admission tenant and owning
	// interference-domain shard (appended fields).
	Tenant string
	Domain uint32
}

func (m TaskInfo) encode(e *encoder) {
	e.u32(m.ID)
	e.str(m.Kind)
	e.str(m.State)
	e.u32(m.Priority)
	e.f64(m.FreqHz)
	e.bool(m.HasResult)
	e.f64(m.Metric)
	e.str(m.MetricName)
	e.f64(m.Share)
	e.bool(m.Satisfied)
	e.str(m.Strategy)
	e.strs(m.Surfaces)
	e.str(m.Err)
	e.str(m.Tenant)
	e.u32(m.Domain)
}

func decodeTaskInfo(d *decoder) TaskInfo {
	return TaskInfo{
		ID:         d.u32(),
		Kind:       d.str(),
		State:      d.str(),
		Priority:   d.u32(),
		FreqHz:     d.f64(),
		HasResult:  d.bool(),
		Metric:     d.f64(),
		MetricName: d.str(),
		Share:      d.f64(),
		Satisfied:  d.bool(),
		Strategy:   d.str(),
		Surfaces:   d.strs(),
		Err:        d.str(),
		Tenant:     d.str(),
		Domain:     d.u32(),
	}
}

// TasksReply lists the orchestrator's tasks.
type TasksReply struct{ Tasks []TaskInfo }

// Encode serializes the message.
func (m TasksReply) Encode() []byte {
	var e encoder
	e.u32(uint32(len(m.Tasks)))
	for _, t := range m.Tasks {
		t.encode(&e)
	}
	return e.buf
}

// DecodeTasksReply parses a TasksReply payload.
func DecodeTasksReply(b []byte) (TasksReply, error) {
	d := decoder{buf: b}
	n := int(d.u32())
	m := TasksReply{}
	for i := 0; i < n && d.err == nil; i++ {
		m.Tasks = append(m.Tasks, decodeTaskInfo(&d))
	}
	return m, d.finish()
}

// TaskReply carries one task (submit result).
type TaskReply struct{ Task TaskInfo }

// Encode serializes the message.
func (m TaskReply) Encode() []byte {
	var e encoder
	m.Task.encode(&e)
	return e.buf
}

// DecodeTaskReply parses a TaskReply payload.
func DecodeTaskReply(b []byte) (TaskReply, error) {
	d := decoder{buf: b}
	m := TaskReply{Task: decodeTaskInfo(&d)}
	return m, d.finish()
}

// TaskIDMsg addresses one task (end / idle / resume).
type TaskIDMsg struct {
	ID   uint32
	Idle bool // MsgSetIdle: park (true) or resume (false)
}

// Encode serializes the message.
func (m TaskIDMsg) Encode() []byte {
	var e encoder
	e.u32(m.ID)
	e.bool(m.Idle)
	return e.buf
}

// DecodeTaskIDMsg parses a TaskIDMsg payload.
func DecodeTaskIDMsg(b []byte) (TaskIDMsg, error) {
	d := decoder{buf: b}
	m := TaskIDMsg{ID: d.u32(), Idle: d.bool()}
	return m, d.finish()
}

// SubmitMsg files a service goal. Kind selects the service by registry
// name; the remaining fields are a union over the built-in goal types —
// unused fields stay zero.
type SubmitMsg struct {
	Kind     string     // "link", "coverage", "sensing", "powering", "security"
	Endpoint string     // link/security endpoint, powering device
	Region   string     // coverage/sensing region
	Type     string     // sensing type
	Pos      [3]float64 // link/powering position, security user position
	Pos2     [3]float64 // security eavesdropper position
	MinSNRdB float64
	MediandB float64
	FreqHz   float64
	GridStep float64
	DurNanos uint64 // sensing/powering duration
	Priority uint32
	// Tenant is the submitting tenant for admission accounting (appended
	// field; "" means the default tenant).
	Tenant string
}

// Encode serializes the message.
func (m SubmitMsg) Encode() []byte {
	var e encoder
	e.str(m.Kind)
	e.str(m.Endpoint)
	e.str(m.Region)
	e.str(m.Type)
	for _, v := range m.Pos {
		e.f64(v)
	}
	for _, v := range m.Pos2 {
		e.f64(v)
	}
	e.f64(m.MinSNRdB)
	e.f64(m.MediandB)
	e.f64(m.FreqHz)
	e.f64(m.GridStep)
	e.u64(m.DurNanos)
	e.u32(m.Priority)
	e.str(m.Tenant)
	return e.buf
}

// DecodeSubmitMsg parses a SubmitMsg payload.
func DecodeSubmitMsg(b []byte) (SubmitMsg, error) {
	d := decoder{buf: b}
	m := SubmitMsg{Kind: d.str(), Endpoint: d.str(), Region: d.str(), Type: d.str()}
	for i := range m.Pos {
		m.Pos[i] = d.f64()
	}
	for i := range m.Pos2 {
		m.Pos2[i] = d.f64()
	}
	m.MinSNRdB = d.f64()
	m.MediandB = d.f64()
	m.FreqHz = d.f64()
	m.GridStep = d.f64()
	m.DurNanos = d.u64()
	m.Priority = d.u32()
	m.Tenant = d.str()
	return m, d.finish()
}

// TaskEventMsg streams one lifecycle transition (pushed on a stream; the
// frame's correlation field carries the stream ID).
type TaskEventMsg struct {
	UnixNanos  int64
	TaskID     uint32
	Kind       string
	State      string
	FreqHz     float64
	Endpoint   string
	Strategy   string
	Surfaces   []string
	Share      float64
	Metric     float64
	MetricName string
	Err        string
	// DeviceID names the surface for device health events (appended
	// field; "" for plain task lifecycle events).
	DeviceID string
	// Tenant/Domain mirror the orchestrator event's admission tenant and
	// interference-domain shard (appended fields).
	Tenant string
	Domain uint32
}

// Encode serializes the message.
func (m TaskEventMsg) Encode() []byte {
	var e encoder
	e.u64(uint64(m.UnixNanos))
	e.u32(m.TaskID)
	e.str(m.Kind)
	e.str(m.State)
	e.f64(m.FreqHz)
	e.str(m.Endpoint)
	e.str(m.Strategy)
	e.strs(m.Surfaces)
	e.f64(m.Share)
	e.f64(m.Metric)
	e.str(m.MetricName)
	e.str(m.Err)
	e.str(m.DeviceID)
	e.str(m.Tenant)
	e.u32(m.Domain)
	return e.buf
}

// DecodeTaskEventMsg parses a TaskEventMsg payload.
func DecodeTaskEventMsg(b []byte) (TaskEventMsg, error) {
	d := decoder{buf: b}
	m := TaskEventMsg{UnixNanos: int64(d.u64()), TaskID: d.u32(), Kind: d.str(), State: d.str()}
	m.FreqHz = d.f64()
	m.Endpoint = d.str()
	m.Strategy = d.str()
	m.Surfaces = d.strs()
	m.Share = d.f64()
	m.Metric = d.f64()
	m.MetricName = d.str()
	m.Err = d.str()
	m.DeviceID = d.str()
	m.Tenant = d.str()
	m.Domain = d.u32()
	return m, d.finish()
}

// DemandMsg dispatches a natural-language demand through the broker.
type DemandMsg struct{ Utterance string }

// Encode serializes the message.
func (m DemandMsg) Encode() []byte {
	var e encoder
	e.str(m.Utterance)
	return e.buf
}

// DecodeDemandMsg parses a DemandMsg payload.
func DecodeDemandMsg(b []byte) (DemandMsg, error) {
	d := decoder{buf: b}
	m := DemandMsg{Utterance: d.str()}
	return m, d.finish()
}

// DemandReply reports the dispatched calls and resulting tasks.
type DemandReply struct {
	Calls []string
	Tasks []TaskInfo
}

// Encode serializes the message.
func (m DemandReply) Encode() []byte {
	var e encoder
	e.strs(m.Calls)
	e.u32(uint32(len(m.Tasks)))
	for _, t := range m.Tasks {
		t.encode(&e)
	}
	return e.buf
}

// DecodeDemandReply parses a DemandReply payload.
func DecodeDemandReply(b []byte) (DemandReply, error) {
	d := decoder{buf: b}
	m := DemandReply{Calls: d.strs()}
	n := int(d.u32())
	for i := 0; i < n && d.err == nil; i++ {
		m.Tasks = append(m.Tasks, decodeTaskInfo(&d))
	}
	return m, d.finish()
}
