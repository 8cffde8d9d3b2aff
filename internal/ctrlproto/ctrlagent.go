package ctrlproto

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"surfos/internal/broker"
	"surfos/internal/geom"
	"surfos/internal/monitor"
	"surfos/internal/orchestrator"
	"surfos/internal/telemetry"
)

// CtrlAgent is the control-plane (northbound) endpoint of the protocol: it
// exposes the orchestrator's task API — list, submit, end, idle, demand —
// and streams task lifecycle events to watchers, over the same frame
// format the device agents speak. Where the device Agent fronts one
// driver, the CtrlAgent fronts the whole task table.
type CtrlAgent struct {
	// Orch is the served orchestrator (required).
	Orch *orchestrator.Orchestrator
	// Broker enables MsgDemand dispatch when set.
	Broker *broker.Broker
	// Events enables MsgOpenStream watch streams when set.
	Events *telemetry.EventBus
	// Reconcile, when set, runs after every mutating request (submit,
	// end, idle) so replies reflect post-scheduling task state. Errors
	// are logged, not fatal: the mutation itself already succeeded.
	Reconcile func(ctx context.Context) error
	// ReconcileTask, when set, is preferred over Reconcile for mutations
	// that touch one known task: it re-plans only the task's interference
	// domain instead of the whole scene.
	ReconcileTask func(ctx context.Context, taskID int) error
	// ControlHealth, when set, contributes the control plane's own health
	// (shards, tenants, bus drops, journal lag) to MsgHealth replies.
	ControlHealth func() ControlHealthInfo
	// Monitor enables MsgReport (folded in synchronously with Observe)
	// and MsgDiagnose when set. Neither is standby-gated.
	Monitor *monitor.Monitor
	// Repl, when set, receives MsgRepl* frames: this daemon is (or was) a
	// replication follower and the primary ships its WAL here.
	Repl *ReplReceiver
	// Standby, when set and true, rejects mutating requests (submit, end,
	// idle, demand) with ErrNotLeader so clients fail over to the
	// primary. Reads and watches stay connected but answer from this
	// daemon's local orchestrator and event bus — empty on a
	// never-promoted follower (the warm replica is folded in only when
	// promotion re-admits it), current again on a fenced ex-primary.
	Standby func() bool
	// Ctx bounds request handling (nil = background).
	Ctx context.Context
	// Logf receives diagnostic messages; nil silences them.
	Logf func(format string, args ...any)

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]*connState
	closed   bool
}

// connState tracks one controller connection's write lock and its
// multiplexed streams. The write lock doubles as the guard for the stream
// table: handle() runs on the single read goroutine, so contention is only
// with teardown and in-flight event writes.
type connState struct {
	w       sync.Mutex
	streams map[uint32]func() // stream ID -> subscription cancel
}

// NewCtrlAgent wraps an orchestrator for serving.
func NewCtrlAgent(orch *orchestrator.Orchestrator) (*CtrlAgent, error) {
	if orch == nil {
		return nil, errors.New("ctrlproto: ctrl agent needs an orchestrator")
	}
	return &CtrlAgent{Orch: orch, conns: make(map[net.Conn]*connState)}, nil
}

func (a *CtrlAgent) logf(format string, args ...any) {
	if a.Logf != nil {
		a.Logf(format, args...)
	}
}

func (a *CtrlAgent) ctx() context.Context {
	if a.Ctx != nil {
		return a.Ctx
	}
	return context.Background()
}

// Listen starts serving on addr and returns the bound address.
func (a *CtrlAgent) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		ln.Close()
		return nil, errors.New("ctrlproto: ctrl agent closed")
	}
	a.listener = ln
	a.mu.Unlock()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go a.ServeConn(conn)
		}
	}()
	return ln.Addr(), nil
}

// Close stops the agent and drops all connections.
func (a *CtrlAgent) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	a.closed = true
	if a.listener != nil {
		a.listener.Close()
	}
	for c, st := range a.conns {
		st.cancelSubscriptions()
		c.Close()
	}
	return nil
}

// cancelSubscriptions tears down every open stream. Safe to call more
// than once.
func (st *connState) cancelSubscriptions() {
	st.w.Lock()
	streams := st.streams
	st.streams = nil
	st.w.Unlock()
	for _, cancel := range streams {
		cancel()
	}
}

// ServeConn handles one established connection until it fails or the peer
// disconnects; useful for tests over net.Pipe.
func (a *CtrlAgent) ServeConn(conn net.Conn) {
	st := &connState{}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		conn.Close()
		return
	}
	a.conns[conn] = st
	a.mu.Unlock()
	defer func() {
		conn.Close()
		a.mu.Lock()
		delete(a.conns, conn)
		a.mu.Unlock()
		st.w.Lock() // wait for any in-flight event write
		st.w.Unlock()
		st.cancelSubscriptions()
	}()
	for {
		f, err := ReadFrame(conn)
		if err != nil {
			// A closed pipe/socket is a normal disconnect (peer hangup or
			// our own Close racing this read), not a diagnostic. Logging
			// it would also crash tests whose Logf died with the test.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				a.logf("ctrl agent: read: %v", err)
			}
			return
		}
		reply := a.handle(conn, st, f)
		st.w.Lock()
		err = WriteFrame(conn, reply)
		st.w.Unlock()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.ErrClosedPipe) {
				a.logf("ctrl agent: write: %v", err)
			}
			return
		}
	}
}

// reconcile runs the post-mutation hook.
func (a *CtrlAgent) reconcile() {
	if a.Reconcile == nil {
		return
	}
	if err := a.Reconcile(a.ctx()); err != nil {
		a.logf("ctrl agent: reconcile: %v", err)
	}
}

// reconcileTask runs the task-scoped post-mutation hook when wired,
// falling back to the full reconcile.
func (a *CtrlAgent) reconcileTask(taskID int) {
	if a.ReconcileTask != nil {
		if err := a.ReconcileTask(a.ctx(), taskID); err != nil {
			a.logf("ctrl agent: reconcile task %d: %v", taskID, err)
		}
		return
	}
	a.reconcile()
}

// taskInfo converts an orchestrator task snapshot to its wire view.
func taskInfo(t *orchestrator.Task) TaskInfo {
	m := TaskInfo{
		ID:       uint32(t.ID),
		Kind:     t.Kind.String(),
		State:    t.State.String(),
		Priority: uint32(t.Priority),
		FreqHz:   t.FreqHz,
	}
	if r := t.Result; r != nil {
		m.HasResult = true
		m.Metric = r.Metric
		m.MetricName = r.MetricName
		m.Share = r.Share
		m.Satisfied = r.Satisfied
		m.Strategy = r.Strategy
		m.Surfaces = append([]string(nil), r.Surfaces...)
	}
	if t.Err != nil {
		m.Err = t.Err.Error()
	}
	m.Tenant = t.Tenant
	m.Domain = uint32(t.Domain)
	return m
}

// The five mutating verbs. Each is the one implementation of its verb —
// handle() decodes a frame onto it — and each has the same shape:
// standby gate, orchestrator call, post-mutation re-plan hook, result. A
// re-plan that fails after the mutation succeeded is logged through Logf,
// not returned: the mutation stands and the task table stays authoritative.

// leader is the standby gate of every mutating verb.
func (a *CtrlAgent) leader() error {
	if a.Standby != nil && a.Standby() {
		return ErrNotLeader
	}
	return nil
}

// EndTask terminates a task and re-plans its interference domain.
func (a *CtrlAgent) EndTask(id int) error {
	if err := a.leader(); err != nil {
		return err
	}
	if err := a.Orch.EndTask(id); err != nil {
		return err
	}
	a.reconcileTask(id)
	return nil
}

// SetIdle parks (idle=true) or resumes a task and re-plans its domain.
func (a *CtrlAgent) SetIdle(id int, idle bool) error {
	if err := a.leader(); err != nil {
		return err
	}
	if err := a.Orch.SetIdle(id, idle); err != nil {
		return err
	}
	a.reconcileTask(id)
	return nil
}

// MoveTask re-targets a live task at pos, re-plans the domain it landed
// in, and reports whether the move handed the task off between domains.
func (a *CtrlAgent) MoveTask(id int, pos geom.Vec3) (orchestrator.MoveResult, error) {
	if err := a.leader(); err != nil {
		return orchestrator.MoveResult{}, err
	}
	res, err := a.Orch.MoveTask(id, pos)
	if err != nil {
		return res, err
	}
	a.reconcileTask(id)
	return res, nil
}

// SubmitTask files a service goal and returns the task as it stands after
// scheduling.
func (a *CtrlAgent) SubmitTask(tenant string, kind orchestrator.ServiceKind, goal any, priority int) (*orchestrator.Task, error) {
	if err := a.leader(); err != nil {
		return nil, err
	}
	t, err := a.Orch.SubmitFor(a.ctx(), tenant, kind, goal, priority)
	if err != nil {
		return nil, err
	}
	a.reconcileTask(t.ID)
	if cur, err := a.Orch.Task(t.ID); err == nil {
		t = cur // reflect post-scheduling state
	}
	return t, nil
}

// Demand translates a natural-language demand through the broker, files
// the services it names and returns the calls (for display) and the
// tasks as they stand after scheduling.
func (a *CtrlAgent) Demand(utterance string) ([]broker.Call, []*orchestrator.Task, error) {
	if err := a.leader(); err != nil {
		return nil, nil, err
	}
	if a.Broker == nil {
		return nil, nil, errors.New("ctrlproto: no broker attached")
	}
	calls, tasks, err := a.Broker.HandleDemand(a.ctx(), utterance)
	if err != nil {
		return nil, nil, err
	}
	a.reconcile()
	for i, t := range tasks {
		if cur, err := a.Orch.Task(t.ID); err == nil {
			tasks[i] = cur
		}
	}
	return calls, tasks, nil
}

// handle dispatches one request frame and builds the reply: decode, the
// verb's method, encode.
func (a *CtrlAgent) handle(conn net.Conn, st *connState, f Frame) Frame {
	fail := func(err error) Frame { return errorFrame(f.Corr, err) }
	ack := Frame{Type: MsgAck, Corr: f.Corr}

	switch f.Type {
	case MsgReplSnapshot, MsgReplAppend, MsgReplHeartbeat:
		if a.Repl == nil {
			return fail(errors.New("ctrlproto: replication not enabled"))
		}
		return a.Repl.Handle(f)

	case MsgListTasks:
		var reply TasksReply
		for _, t := range a.Orch.Tasks() {
			reply.Tasks = append(reply.Tasks, taskInfo(t))
		}
		return Frame{Type: MsgTasksReply, Corr: f.Corr, Payload: reply.Encode()}

	case MsgEndTask, MsgSetIdle:
		m, err := DecodeTaskIDMsg(f.Payload)
		if err != nil {
			return fail(err)
		}
		if f.Type == MsgEndTask {
			err = a.EndTask(int(m.ID))
		} else {
			err = a.SetIdle(int(m.ID), m.Idle)
		}
		if err != nil {
			return fail(err)
		}
		return ack

	case MsgMoveTask:
		m, err := DecodeMoveTaskMsg(f.Payload)
		if err != nil {
			return fail(err)
		}
		if _, err := a.MoveTask(int(m.ID), geom.V(m.Pos[0], m.Pos[1], m.Pos[2])); err != nil {
			return fail(err)
		}
		return ack

	case MsgSubmitTask:
		m, err := DecodeSubmitMsg(f.Payload)
		if err != nil {
			return fail(err)
		}
		kind, goal, err := m.goal()
		if err != nil {
			return fail(err)
		}
		t, err := a.SubmitTask(m.Tenant, kind, goal, int(m.Priority))
		if err != nil {
			return fail(err)
		}
		return Frame{Type: MsgTaskReply, Corr: f.Corr, Payload: TaskReply{Task: taskInfo(t)}.Encode()}

	case MsgOpenStream:
		if a.Events == nil {
			return fail(errors.New("ctrlproto: no event bus attached"))
		}
		m, err := DecodeOpenStreamMsg(f.Payload)
		if err != nil {
			return fail(err)
		}
		if m.Stream == 0 {
			return fail(errors.New("ctrlproto: stream ID 0 is reserved"))
		}
		opts, err := streamSubOptions(m)
		if err != nil {
			return fail(err)
		}
		st.w.Lock()
		if _, dup := st.streams[m.Stream]; dup {
			st.w.Unlock()
			return fail(fmt.Errorf("ctrlproto: stream %d already open", m.Stream))
		}
		ch, cancel := a.Events.SubscribeOpts(opts)
		if st.streams == nil {
			st.streams = make(map[uint32]func())
		}
		st.streams[m.Stream] = cancel
		st.w.Unlock()
		go a.streamEvents(conn, st, m.Stream, ch)
		return ack

	case MsgCloseStream:
		m, err := DecodeCloseStreamMsg(f.Payload)
		if err != nil {
			return fail(err)
		}
		st.w.Lock()
		cancel, ok := st.streams[m.Stream]
		delete(st.streams, m.Stream)
		st.w.Unlock()
		if !ok {
			return fail(fmt.Errorf("ctrlproto: stream %d not open", m.Stream))
		}
		cancel()
		return ack

	case MsgHealth:
		reply := HealthReply{Devices: healthInfos(a.Orch.HW.HealthAll())}
		if a.ControlHealth != nil {
			reply.HasControl = true
			reply.Control = a.ControlHealth()
		}
		return Frame{Type: MsgHealthReply, Corr: f.Corr, Payload: reply.Encode()}

	case MsgReport, MsgDiagnose:
		if a.Monitor == nil {
			return fail(errors.New("ctrlproto: no monitor attached"))
		}
		if f.Type == MsgDiagnose {
			var reply DiagnoseReply
			for _, d := range a.Monitor.Diagnose(time.Now()) {
				reply.Findings = append(reply.Findings, FindingInfo{
					DeviceID: d.DeviceID, EndpointID: d.EndpointID, Verdict: d.Verdict.String(),
					ExpectedSNRdB: d.ExpectedSNRdB, ObservedSNRdB: d.ObservedSNRdB, Samples: uint32(d.Samples),
				})
			}
			return Frame{Type: MsgDiagnoseReply, Corr: f.Corr, Payload: reply.Encode()}
		}
		m, err := DecodeReportMsg(f.Payload)
		if err != nil {
			return fail(err)
		}
		if m.DeviceID == "" || m.EndpointID == "" {
			return fail(errors.New("ctrlproto: report needs a device and an endpoint"))
		}
		a.Monitor.Observe(telemetry.Report{DeviceID: m.DeviceID, EndpointID: m.EndpointID, SNRdB: m.SNRdB, Time: time.Now()})
		return ack

	case MsgDemand:
		m, err := DecodeDemandMsg(f.Payload)
		if err != nil {
			return fail(err)
		}
		calls, tasks, err := a.Demand(m.Utterance)
		if err != nil {
			return fail(err)
		}
		var reply DemandReply
		for _, c := range calls {
			reply.Calls = append(reply.Calls, c.String())
		}
		for _, t := range tasks {
			reply.Tasks = append(reply.Tasks, taskInfo(t))
		}
		return Frame{Type: MsgDemandReply, Corr: f.Corr, Payload: reply.Encode()}

	default:
		// The reserved MsgWatchTasks lands here: a tasks stream with an
		// empty filter (MsgOpenStream) is the whole-table watch.
		return fail(fmt.Errorf("ctrlproto: ctrl agent cannot handle %v", f.Type))
	}
}

// streamSubOptions maps a stream-open request to its bus subscription:
// the kind picks the backpressure policy, the filter scopes delivery.
func streamSubOptions(m OpenStreamMsg) (telemetry.SubOptions[telemetry.TaskEvent], error) {
	switch m.Kind {
	case StreamTasks:
		o := telemetry.SubOptions[telemetry.TaskEvent]{
			Name: "watch-tasks", Buffer: 256, Policy: telemetry.DropOldest,
		}
		if tenant := m.Filter; tenant != "" {
			o.Filter = func(ev telemetry.TaskEvent) bool { return ev.Tenant == tenant }
		}
		return o, nil
	case StreamHealth:
		o := telemetry.SubOptions[telemetry.TaskEvent]{
			Name: "watch-health", Buffer: 64, Policy: telemetry.Coalesce,
			Key: func(ev telemetry.TaskEvent) string { return ev.DeviceID },
		}
		device := m.Filter
		o.Filter = func(ev telemetry.TaskEvent) bool {
			return ev.DeviceID != "" && (device == "" || ev.DeviceID == device)
		}
		return o, nil
	}
	return telemetry.SubOptions[telemetry.TaskEvent]{}, fmt.Errorf("ctrlproto: unknown stream kind %q", m.Kind)
}

// eventMsg converts a bus event to its wire form.
func eventMsg(ev telemetry.TaskEvent) TaskEventMsg {
	return TaskEventMsg{
		UnixNanos:  ev.Time.UnixNano(),
		TaskID:     uint32(ev.TaskID),
		Kind:       ev.Kind,
		State:      ev.State,
		FreqHz:     ev.FreqHz,
		Endpoint:   ev.Endpoint,
		Strategy:   ev.Strategy,
		Surfaces:   ev.Surfaces,
		Share:      ev.Share,
		Metric:     ev.Metric,
		MetricName: ev.MetricName,
		Err:        ev.Err,
		DeviceID:   ev.DeviceID,
		Tenant:     ev.Tenant,
		Domain:     uint32(ev.Domain),
	}
}

// streamEvents forwards bus events to one watcher, tagged with the stream
// ID in the correlation field, until the subscription is cancelled (stream
// close or connection teardown).
func (a *CtrlAgent) streamEvents(conn net.Conn, st *connState, stream uint32, ch <-chan telemetry.TaskEvent) {
	for ev := range ch {
		m := eventMsg(ev)
		st.w.Lock()
		err := WriteFrame(conn, Frame{Type: MsgTaskEvent, Corr: stream, Payload: m.Encode()})
		st.w.Unlock()
		if err != nil {
			return // reader side tears the connection down
		}
	}
}

// goal reconstructs the service goal from the wire union.
func (m SubmitMsg) goal() (orchestrator.ServiceKind, any, error) {
	kind, err := orchestrator.KindByName(m.Kind)
	if err != nil {
		return 0, nil, err
	}
	pos := geom.V(m.Pos[0], m.Pos[1], m.Pos[2])
	pos2 := geom.V(m.Pos2[0], m.Pos2[1], m.Pos2[2])
	switch kind {
	case orchestrator.ServiceLink:
		return kind, orchestrator.LinkGoal{
			Endpoint: m.Endpoint, Pos: pos, MinSNRdB: m.MinSNRdB, FreqHz: m.FreqHz,
		}, nil
	case orchestrator.ServiceCoverage:
		return kind, orchestrator.CoverageGoal{
			Region: m.Region, MedianSNRdB: m.MediandB, FreqHz: m.FreqHz, GridStep: m.GridStep,
		}, nil
	case orchestrator.ServiceSensing:
		return kind, orchestrator.SensingGoal{
			Region: m.Region, Type: m.Type, Duration: time.Duration(m.DurNanos),
			FreqHz: m.FreqHz, GridStep: m.GridStep,
		}, nil
	case orchestrator.ServicePowering:
		return kind, orchestrator.PowerGoal{
			Device: m.Endpoint, Pos: pos, Duration: time.Duration(m.DurNanos), FreqHz: m.FreqHz,
		}, nil
	case orchestrator.ServiceSecurity:
		return kind, orchestrator.SecurityGoal{
			Endpoint: m.Endpoint, UserPos: pos, EvePos: pos2, FreqHz: m.FreqHz,
		}, nil
	}
	// A registered extension service has no wire goal mapping yet.
	return 0, nil, fmt.Errorf("%w: no wire goal for %q", orchestrator.ErrUnknownService, m.Kind)
}
