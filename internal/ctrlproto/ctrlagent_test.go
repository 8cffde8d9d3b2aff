package ctrlproto

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/hwmgr"
	"surfos/internal/orchestrator"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
	"surfos/internal/telemetry"
)

// ctrlRig builds an orchestrator with one surface + AP and serves it
// through a CtrlAgent over an in-process pipe.
type ctrlRig struct {
	orch   *orchestrator.Orchestrator
	events *telemetry.EventBus
	agent  *CtrlAgent
	client *Client
}

func newCtrlRig(t *testing.T) *ctrlRig {
	t.Helper()
	return newCtrlRigFaults(t, nil, nil)
}

// newCtrlRigFaults is newCtrlRig with a wire-fault script attached to the
// client and/or agent side of the northbound connection (nil = clean).
func newCtrlRigFaults(t *testing.T, clientFaults, agentFaults *WireFaults) *ctrlRig {
	t.Helper()
	apt := scene.NewApartment()
	hw := hwmgr.New()
	spec, err := driver.Lookup(driver.ModelNRSurface)
	if err != nil {
		t.Fatal(err)
	}
	pitch := em.Wavelength(spec.FreqLowHz+(spec.FreqHighHz-spec.FreqLowHz)/2) / 2
	m := apt.Mounts[scene.MountEastWall]
	panel := m.Panel(24*pitch+0.02, 24*pitch+0.02)
	s, err := surface.New("s0", panel, surface.Layout{Rows: 24, Cols: 24, PitchU: pitch, PitchV: pitch}, spec.OpMode, nil)
	if err != nil {
		t.Fatal(err)
	}
	drv, err := driver.New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.AddSurface("s0", scene.MountEastWall, drv); err != nil {
		t.Fatal(err)
	}
	if err := hw.AddAP(&hwmgr.AccessPoint{ID: "ap0", Pos: apt.AP, FreqHz: 24e9, Budget: rfsim.DefaultBudget(), Antennas: 4}); err != nil {
		t.Fatal(err)
	}
	orch, err := orchestrator.New(apt.Scene, hw, orchestrator.Options{
		OptIters: 30, GridStep: 1.2, SensingGridStep: 2.0, SensingBins: 15, SensingSubcarriers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := telemetry.NewEventBus()
	orch.SetEventBus(events)

	agent, err := NewCtrlAgent(orch)
	if err != nil {
		t.Fatal(err)
	}
	agent.Events = events
	agent.Reconcile = orch.Reconcile
	agent.Logf = t.Logf

	server, clientConn := net.Pipe()
	var agentConn net.Conn = server
	if agentFaults != nil {
		agentConn = NewFaultyConn(server, agentFaults)
	}
	go agent.ServeConn(agentConn)
	var cc net.Conn = clientConn
	if clientFaults != nil {
		cc = NewFaultyConn(clientConn, clientFaults)
	}
	client := NewClient(cc)
	t.Cleanup(func() {
		client.Close()
		agent.Close()
	})
	return &ctrlRig{orch: orch, events: events, agent: agent, client: client}
}

func TestSentinelsSurviveWireHop(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()

	// Unknown task: the orchestrator's sentinel must round-trip through
	// status codes and come back errors.Is-able.
	err := r.client.EndTask(ctx, 999)
	if !errors.Is(err, orchestrator.ErrUnknownTask) {
		t.Errorf("EndTask(999) err = %v, want errors.Is ErrUnknownTask", err)
	}
	var we *WireError
	if !errors.As(err, &we) || we.Status != StatusUnknownTask {
		t.Errorf("EndTask(999) wire error = %+v, want StatusUnknownTask", err)
	}
	if err := r.client.SetTaskIdle(ctx, 999, true); !errors.Is(err, orchestrator.ErrUnknownTask) {
		t.Errorf("SetTaskIdle(999) err = %v, want ErrUnknownTask", err)
	}

	// Invalid goal: distinct sentinel, distinct status.
	_, err = r.client.SubmitTask(ctx, SubmitMsg{Kind: "link", Priority: 1}) // no endpoint
	if !errors.Is(err, orchestrator.ErrGoalInvalid) {
		t.Errorf("bad submit err = %v, want errors.Is ErrGoalInvalid", err)
	}
	if errors.Is(err, orchestrator.ErrUnknownTask) {
		t.Error("ErrGoalInvalid aliased to ErrUnknownTask across the wire")
	}

	// Unknown service name.
	_, err = r.client.SubmitTask(ctx, SubmitMsg{Kind: "warp-drive", Priority: 1})
	if !errors.Is(err, orchestrator.ErrUnknownService) {
		t.Errorf("unknown kind err = %v, want ErrUnknownService", err)
	}
}

func TestSubmitListEndOverWire(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()
	r.client.Timeout = 30 * time.Second // reconcile runs inside the request

	task, err := r.client.SubmitTask(ctx, SubmitMsg{
		Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2}, Priority: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if task.Kind != "link" || task.Priority != 2 {
		t.Errorf("task = %+v", task)
	}
	// The agent reconciles post-submit, so the reply reflects scheduling.
	if task.State != "running" || !task.HasResult || task.MetricName != "snr_db" {
		t.Errorf("post-reconcile task = %+v", task)
	}
	if len(task.Surfaces) != 1 || task.Surfaces[0] != "s0" {
		t.Errorf("task surfaces = %v", task.Surfaces)
	}

	tasks, err := r.client.ListTasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].ID != task.ID {
		t.Fatalf("tasks = %+v", tasks)
	}

	if err := r.client.EndTask(ctx, int(task.ID)); err != nil {
		t.Fatal(err)
	}
	tasks, err = r.client.ListTasks(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 1 || tasks[0].State != "done" {
		t.Errorf("tasks after end = %+v", tasks)
	}
}

func TestWatchTasksStreamsEvents(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()
	r.client.Timeout = 30 * time.Second

	watch, err := r.client.OpenStream(ctx, StreamTasks, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.client.SubmitTask(ctx, SubmitMsg{
		Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2}, Priority: 1,
	}); err != nil {
		t.Fatal(err)
	}

	want := map[string]bool{
		telemetry.TaskSubmitted: false,
		telemetry.TaskScheduled: false,
		telemetry.TaskRunning:   false,
	}
	deadline := time.After(10 * time.Second)
	for {
		missing := false
		for _, seen := range want {
			if !seen {
				missing = true
			}
		}
		if !missing {
			break
		}
		select {
		case ev := <-watch.C:
			if _, ok := want[ev.State]; ok {
				want[ev.State] = true
			}
			if ev.State == telemetry.TaskRunning {
				if ev.Kind != "link" || ev.Endpoint != "laptop" || ev.MetricName != "snr_db" {
					t.Errorf("running event = %+v", ev)
				}
			}
		case <-deadline:
			t.Fatalf("timed out; seen = %v", want)
		}
	}
}

func TestHealthQueryOverWire(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()

	infos, err := r.client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].DeviceID != "s0" || infos[0].State != "healthy" {
		t.Fatalf("initial health = %+v", infos)
	}

	// Inject faults on the served device; the wire view must follow.
	dev, err := r.orch.HW.Surface("s0")
	if err != nil {
		t.Fatal(err)
	}
	fm := driver.NewFaultModel(1)
	dev.Drv.SetFaults(fm)
	fm.StickElement(5, 1.0)
	r.orch.HW.ProbeAll()

	infos, err = r.client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].State != "degraded" || len(infos[0].StuckElements) != 1 || infos[0].StuckElements[0] != 5 {
		t.Fatalf("degraded health = %+v", infos[0])
	}

	fm.SetDead(true)
	r.orch.HW.ProbeAll()
	infos, err = r.client.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if infos[0].State != "dead" || infos[0].LastErr == "" {
		t.Fatalf("dead health = %+v", infos[0])
	}
}

func TestDeviceEventsReachWatchers(t *testing.T) {
	r := newCtrlRig(t)
	watch, err := r.client.OpenStream(context.Background(), StreamTasks, "")
	if err != nil {
		t.Fatal(err)
	}
	r.orch.HW.SetEventBus(r.events)
	dev, _ := r.orch.HW.Surface("s0")
	fm := driver.NewFaultModel(1)
	dev.Drv.SetFaults(fm)
	fm.SetDead(true)
	r.orch.HW.ProbeAll()

	select {
	case ev := <-watch.C:
		if ev.State != telemetry.DeviceDead || ev.DeviceID != "s0" {
			t.Fatalf("event = %+v, want device_dead for s0", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("no device event reached the watcher")
	}
}

// TestRetiredWatchTasksGetsErrorFrame: message type 20 stays a reserved
// number, but nothing serves the whole-table watch any more. A client
// that still sends it gets the agent's "cannot handle" error and keeps a
// usable connection.
func TestRetiredWatchTasksGetsErrorFrame(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()
	_, err := r.client.roundTrip(ctx, MsgWatchTasks, nil)
	var we *WireError
	if !errors.As(err, &we) || !strings.Contains(we.Text, "cannot handle watch-tasks") {
		t.Fatalf("MsgWatchTasks reply = %v, want a cannot-handle error frame", err)
	}
	if _, err := r.client.ListTasks(ctx); err != nil {
		t.Fatalf("connection unusable after the rejected watch: %v", err)
	}
}
