package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"surfos/internal/ctrlproto"
	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/monitor"
	"surfos/internal/orchestrator"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
	"surfos/internal/telemetry"
)

// startAgent serves a real agent for the CLI to talk to.
func startAgent(t *testing.T) string {
	t.Helper()
	spec, err := driver.Lookup(driver.ModelNRSurface)
	if err != nil {
		t.Fatal(err)
	}
	pitch := em.Wavelength(24e9) / 2
	panel := geom.RectXY(geom.V(0, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.2, 0.2)
	s, err := surface.New("p", panel, surface.Layout{Rows: 2, Cols: 2, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := driver.New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	a, err := ctrlproto.NewAgent("cli-dev", "east_wall", d)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return addr.String()
}

func TestCLICommands(t *testing.T) {
	addr := startAgent(t)

	var out strings.Builder
	if err := run(context.Background(), addr, []string{"hello"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "device=cli-dev") {
		t.Errorf("hello: %q", out.String())
	}

	out.Reset()
	if err := run(context.Background(), addr, []string{"spec"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "model=NR-Surface") || !strings.Contains(out.String(), "granularity=column-wise") {
		t.Errorf("spec: %q", out.String())
	}

	out.Reset()
	if err := run(context.Background(), addr, []string{"active"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no active configuration") {
		t.Errorf("active before zero: %q", out.String())
	}

	out.Reset()
	if err := run(context.Background(), addr, []string{"zero"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(context.Background(), addr, []string{"active"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "label=active") {
		t.Errorf("active after zero: %q", out.String())
	}

	out.Reset()
	if err := run(context.Background(), addr, []string{"select", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), addr, []string{"select", "9"}, &out); err == nil {
		t.Error("out-of-range select accepted")
	}
	if err := run(context.Background(), addr, []string{"select"}, &out); err == nil {
		t.Error("select without index accepted")
	}
	if err := run(context.Background(), addr, []string{"select", "x"}, &out); err == nil {
		t.Error("non-numeric select accepted")
	}
	if err := run(context.Background(), addr, []string{"warp"}, &out); err == nil {
		t.Error("unknown command accepted")
	}
	if err := run(context.Background(), addr, nil, &out); err == nil {
		t.Error("missing command accepted")
	}
	if err := run(context.Background(), "127.0.0.1:1", []string{"hello"}, &out); err == nil {
		t.Error("dead agent address accepted")
	}
}

// startCtrlAgent serves an orchestrator-backed control agent for the task
// commands. The hardware manager is returned so tests can inject device
// health transitions.
func startCtrlAgent(t *testing.T) (string, *hwmgr.Manager) {
	t.Helper()
	orch, hw, events := newCtrlStack(t)
	a, addr := serveCtrl(t, orch, events, "127.0.0.1:0")
	t.Cleanup(func() { a.Close() })
	return addr, hw
}

// newCtrlStack builds the orchestrator/hardware/event-bus trio a control
// agent fronts; split from the agent so restart tests can serve the same
// stack through successive agents.
func newCtrlStack(t *testing.T) (*orchestrator.Orchestrator, *hwmgr.Manager, *telemetry.EventBus) {
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
	d, err := driver.New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.AddSurface("s0", scene.MountEastWall, d); err != nil {
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
	hw.SetEventBus(events)
	return orch, hw, events
}

// serveCtrl fronts the stack with a fresh control agent on listen (pass a
// previous agent's address to simulate a daemon restart on the same port).
func serveCtrl(t *testing.T, orch *orchestrator.Orchestrator, events *telemetry.EventBus, listen string) (*ctrlproto.CtrlAgent, string) {
	t.Helper()
	a, err := ctrlproto.NewCtrlAgent(orch)
	if err != nil {
		t.Fatal(err)
	}
	a.Events = events
	a.Reconcile = orch.Reconcile
	addr, err := a.Listen(listen)
	if err != nil {
		t.Fatal(err)
	}
	return a, addr.String()
}

func TestCLITaskCommandsAndExitCodes(t *testing.T) {
	addr, _ := startCtrlAgent(t)
	ctx := context.Background()

	var out strings.Builder
	if err := run(ctx, addr, []string{"tasks"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no tasks") {
		t.Errorf("tasks on empty table: %q", out.String())
	}

	out.Reset()
	if err := run(ctx, addr, []string{"submit", "-kind", "link", "-endpoint", "laptop", "-pos", "2.5,5.5,1.2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "state=running") || !strings.Contains(out.String(), "snr_db=") {
		t.Errorf("submit output: %q", out.String())
	}

	out.Reset()
	if err := run(ctx, addr, []string{"idle", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, addr, []string{"resume", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, addr, []string{"end", "1"}, &out); err != nil {
		t.Fatal(err)
	}

	// The acceptance criterion: a sentinel raised inside the orchestrator
	// survives the wire hop into the CLI as the same errors.Is identity,
	// and each failure class maps to its own exit code.
	err := run(ctx, addr, []string{"end", "999"}, &out)
	if !errors.Is(err, orchestrator.ErrUnknownTask) {
		t.Errorf("end 999 err = %v, want errors.Is ErrUnknownTask", err)
	}
	if code := exitCode(err); code != exitUnknownTask {
		t.Errorf("end 999 exit code = %d, want %d", code, exitUnknownTask)
	}

	err = run(ctx, addr, []string{"submit", "-kind", "link"}, &out) // no endpoint
	if !errors.Is(err, orchestrator.ErrGoalInvalid) {
		t.Errorf("bad submit err = %v, want errors.Is ErrGoalInvalid", err)
	}
	if code := exitCode(err); code != exitGoalInvalid {
		t.Errorf("bad submit exit code = %d, want %d", code, exitGoalInvalid)
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	err = run(cancelled, addr, []string{"tasks"}, &out)
	if code := exitCode(err); code != exitCancelled {
		t.Errorf("cancelled exit code = %d (err %v), want %d", code, err, exitCancelled)
	}

	// Usage errors: their own code, distinct from all of the above.
	if code := exitCode(run(ctx, addr, []string{"end", "x"}, &out)); code != exitUsage {
		t.Errorf("non-numeric id exit code = %d, want %d", code, exitUsage)
	}
	if code := exitCode(run(ctx, addr, nil, &out)); code != exitUsage {
		t.Errorf("no-command exit code = %d, want %d", code, exitUsage)
	}
	if code := exitCode(nil); code != exitOK {
		t.Errorf("nil error exit code = %d", code)
	}
	if code := exitCode(run(ctx, "127.0.0.1:1", []string{"tasks"}, &out)); code != exitFailure {
		t.Error("dead address should map to the generic failure code")
	}
}

func TestCLIWatchStreamsAndStops(t *testing.T) {
	addr, hw := startCtrlAgent(t)
	ctx, cancel := context.WithCancel(context.Background())

	var mu sync.Mutex
	var out strings.Builder
	sync1 := make(chan error, 1)
	go func() {
		sync1 <- run(ctx, addr, []string{"tasks", "--watch"}, syncWriter{mu: &mu, w: &out})
	}()

	// Wait for the watch subscription to be live before driving events.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		s := out.String()
		mu.Unlock()
		if strings.Contains(s, "watching task events") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch never started: %q", s)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Drive a lifecycle through a second connection while watching.
	var other strings.Builder
	if err := run(context.Background(), addr, []string{"submit", "-kind", "link", "-endpoint", "laptop", "-pos", "2.5,5.5,1.2"}, &other); err != nil {
		t.Fatal(err)
	}
	for {
		mu.Lock()
		s := out.String()
		mu.Unlock()
		if strings.Contains(s, "submitted") && strings.Contains(s, "running") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch output missing lifecycle: %q", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Device health transitions ride the same stream: killing the surface
	// shows up as a device-scoped line, so operators watch healing live.
	hw.RecordFailure("s0", driver.ErrDeviceDead)
	for {
		mu.Lock()
		s := out.String()
		mu.Unlock()
		if strings.Contains(s, "device s0 device_dead") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watch output missing device event: %q", s)
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-sync1; err != nil {
		t.Errorf("watch exit err = %v, want nil on cancel", err)
	}
}

func TestCLIHealthCommand(t *testing.T) {
	addr, hw := startCtrlAgent(t)
	ctx := context.Background()

	var out strings.Builder
	if err := run(ctx, addr, []string{"health"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "device s0 state=healthy") {
		t.Errorf("health on fresh device: %q", out.String())
	}

	// A dead device surfaces with its failure counters and last error.
	hw.RecordFailure("s0", driver.ErrDeviceDead)
	out.Reset()
	if err := run(ctx, addr, []string{"health"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "state=dead") || !strings.Contains(s, "failures=1/1") || !strings.Contains(s, "err=") {
		t.Errorf("health on dead device: %q", s)
	}
}

func TestCLIReportAndDiagnose(t *testing.T) {
	orch, _, _ := newCtrlStack(t)
	a, err := ctrlproto.NewCtrlAgent(orch)
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.New()
	a.Monitor = mon
	ln, err := a.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	addr := ln.String()
	ctx := context.Background()

	var out strings.Builder
	if err := run(ctx, addr, []string{"diagnose"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no expectations installed") {
		t.Errorf("diagnose with no expectations: %q", out.String())
	}

	mon.Expect(monitor.Expectation{DeviceID: "s0", EndpointID: "laptop", SNRdB: 10})
	for i := 0; i < 3; i++ {
		out.Reset()
		if err := run(ctx, addr, []string{"report", "s0", "laptop", "10"}, &out); err != nil || out.String() != "ok\n" {
			t.Fatalf("report: %q, %v", out.String(), err)
		}
	}
	out.Reset()
	if err := run(ctx, addr, []string{"diagnose"}, &out); err != nil {
		t.Fatal(err)
	}
	if want := "s0/laptop: healthy (expected 10.0 dB, observed 10.0 dB, 3 reports)\n"; out.String() != want {
		t.Errorf("diagnose = %q, want %q", out.String(), want)
	}

	for _, bad := range [][]string{{"report", "s0", "laptop"}, {"report", "s0", "laptop", "loud"}} {
		if code := exitCode(run(ctx, addr, bad, &out)); code != exitUsage {
			t.Errorf("%q exit code = %d, want %d", bad, code, exitUsage)
		}
	}
}

// A southbound request that dies awaiting its reply must exit with the
// dedicated control-channel timeout code, distinct from operator ^C.
func TestCLITimeoutExitCode(t *testing.T) {
	if code := exitCode(fmt.Errorf("tasks: %w", ctrlproto.ErrTimeout)); code != exitTimeout {
		t.Errorf("wrapped ErrTimeout exit code = %d, want %d", code, exitTimeout)
	}
	if exitTimeout == exitCancelled {
		t.Fatal("timeout and cancel codes must differ")
	}
}

// syncWriter serializes concurrent writes from the watch goroutine against
// the test's readers.
type syncWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}
