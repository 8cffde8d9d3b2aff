package main

import (
	"context"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"surfos"
	"surfos/internal/ctrlproto"
	"surfos/internal/metrics"
)

func testDaemon(t *testing.T) *daemon {
	t.Helper()
	d, err := newDaemon(context.Background(), "NR-Surface@east_wall,NR-Surface@north_wall", daemonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the optimizer for test speed.
	d.orch.Opts.OptIters = 30
	d.orch.Opts.GridStep = 1.5
	d.orch.Opts.SensingGridStep = 2.5
	d.orch.Opts.SensingBins = 11
	d.orch.Opts.SensingSubcarriers = 3
	t.Cleanup(d.close)
	return d
}

// connect opens a framed northbound session to d the way an accepted
// -listen connection is served: a net.Pipe handed to serveConn, connection
// cap included.
func connect(t *testing.T, d *daemon) *ctrlproto.Client {
	t.Helper()
	client, server := net.Pipe()
	go d.serveConn(server)
	c := ctrlproto.NewClient(client)
	c.Timeout = 30 * time.Second // demands re-plan inside the request
	t.Cleanup(func() { c.Close() })
	return c
}

// demand dispatches an utterance and renders the reply as surfctl does:
// one "call:" line per service call, then one line per task.
func demand(t *testing.T, c *ctrlproto.Client, utterance string) string {
	t.Helper()
	r, err := c.Demand(context.Background(), utterance)
	if err != nil {
		t.Fatalf("demand %q: %v", utterance, err)
	}
	var b strings.Builder
	for _, call := range r.Calls {
		b.WriteString("call: " + call + "\n")
	}
	for _, task := range r.Tasks {
		ctrlproto.RenderTask(&b, task)
	}
	return b.String()
}

// tasksText renders the task table as `surfctl tasks` prints it.
func tasksText(t *testing.T, c *ctrlproto.Client) string {
	t.Helper()
	tasks, err := c.ListTasks(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, task := range tasks {
		ctrlproto.RenderTask(&b, task)
	}
	return b.String()
}

// healthText renders the health reply as `surfctl health` prints it.
func healthText(t *testing.T, c *ctrlproto.Client) string {
	t.Helper()
	reply, err := c.HealthFull(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	ctrlproto.RenderDeviceHealth(&b, reply.Devices)
	ctrlproto.RenderControlHealth(&b, reply.Control)
	return b.String()
}

// plannedWithout reports whether d holds at least one committed plan and
// none of its plans uses device.
func plannedWithout(d *daemon, device string) bool {
	plans := d.orch.Plans()
	for _, p := range plans {
		if slices.Contains(p.Surfaces, device) {
			return false
		}
	}
	return len(plans) > 0
}

func TestDaemonRejectsBadSurfaceSpec(t *testing.T) {
	if _, err := newDaemon(context.Background(), "garbage", daemonOptions{}); err == nil {
		t.Error("malformed surface list accepted")
	}
	if _, err := newDaemon(context.Background(), "NR-Surface@nowhere", daemonOptions{}); err == nil {
		t.Error("unknown mount accepted")
	}
}

func TestDaemonCommands(t *testing.T) {
	d := testDaemon(t)
	c := connect(t, d)
	ctx := context.Background()

	// Each device stays reachable over its own southbound agent, the way
	// `surfctl -addr <agent> spec|active` reads it back.
	agentConn, server := net.Pipe()
	go d.agents[0].ServeConn(server)
	agent := ctrlproto.NewClient(agentConn)
	defer agent.Close()
	spec, err := agent.GetSpec(ctx)
	if err != nil || spec.Model != "NR-Surface" || spec.Granularity.String() != "column-wise" {
		t.Errorf("southbound spec: %+v, %v", spec, err)
	}
	if act, err := agent.Active(ctx); err != nil || act.HasActive {
		t.Errorf("fresh device should be unconfigured: %+v, %v", act, err)
	}

	if got := tasksText(t, c); got != "" {
		t.Errorf("tasks on a fresh daemon: %q", got)
	}

	reply := demand(t, c, "please stream a movie on the tv tonight")
	if !strings.Contains(reply, "enhance_link") || !strings.Contains(reply, "running") {
		t.Errorf("demand: %q", reply)
	}
	if plans := d.orch.Plans(); len(plans) == 0 || plans[0].Strategy == "" {
		t.Errorf("plans after demand: %+v", plans)
	}
	// The surface now holds a configuration, visible over the southbound
	// protocol.
	if act, err := agent.Active(ctx); err != nil || !act.HasActive {
		t.Errorf("device after scheduling: %+v, %v", act, err)
	}

	if err := c.EndTask(ctx, 1); err != nil {
		t.Errorf("end: %v", err)
	}
	if plans := d.orch.Plans(); len(plans) != 0 {
		t.Errorf("plans after end: %+v", plans)
	}

	if _, err := c.Demand(ctx, "gibberish nobody understands"); err == nil {
		t.Error("bad demand accepted")
	}
}

func TestDaemonIdleResume(t *testing.T) {
	d := testDaemon(t)
	c := connect(t, d)
	ctx := context.Background()
	if reply := demand(t, c, "charge my phone please"); !strings.Contains(reply, "init_powering") {
		t.Fatalf("demand: %q", reply)
	}
	if err := c.SetTaskIdle(ctx, 1, true); err != nil {
		t.Fatalf("idle: %v", err)
	}
	if plans := d.orch.Plans(); len(plans) != 0 {
		t.Errorf("plans while idle: %+v", plans)
	}
	if err := c.SetTaskIdle(ctx, 1, false); err != nil {
		t.Fatalf("resume: %v", err)
	}
	if len(d.orch.Plans()) == 0 {
		t.Error("no plans after resume")
	}
}

// TestDaemonNorthboundOverTCP dials a real -listen socket through the
// accept loop, and checks the connection gauge counts the open session
// and releases its slot when the client hangs up.
func TestDaemonNorthboundOverTCP(t *testing.T) {
	d := testDaemon(t)
	c, err := ctrlproto.Dial(serveNorthbound(t, d))
	if err != nil {
		t.Fatal(err)
	}
	devs, err := c.Health(context.Background())
	if err != nil || len(devs) != 2 {
		t.Fatalf("health over TCP: %+v, %v", devs, err)
	}
	if n := len(d.connSem); n != 1 {
		t.Errorf("open connections = %d, want 1", n)
	}
	c.Close()
	waitFor(t, func() bool { return len(d.connSem) == 0 })
}

// TestDaemonNorthboundFramedClient drives a framed task-control session
// through serveConn, multiplexed streams included.
func TestDaemonNorthboundFramedClient(t *testing.T) {
	d := testDaemon(t)
	c := connect(t, d)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tasks, err := c.ListTasks(ctx)
	if err != nil {
		t.Fatalf("framed ListTasks over northbound port: %v", err)
	}
	if len(tasks) != 0 {
		t.Fatalf("fresh daemon has tasks: %v", tasks)
	}
	s, err := c.OpenStream(ctx, ctrlproto.StreamTasks, "")
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close stream: %v", err)
	}
}

// TestDaemonHazardsAndDiagnosis covers the monitoring service end to end:
// endpoint reports arrive as framed Report requests, are folded into the
// monitor before the ack, and Diagnose compares them with the running
// link task's prediction. It also pins the deployed panels' cross-band
// hazard (§2.1: a panel can block an out-of-band link).
func TestDaemonHazardsAndDiagnosis(t *testing.T) {
	d := testDaemon(t)

	// The deployed 24 GHz panels do not block their own band...
	if b := d.hw.CrossBandBlockers(24e9, 3); len(b) != 0 {
		t.Errorf("in-band hazards: %d blockers", len(b))
	}
	// ...but they attenuate an out-of-band 28 GHz link (panel response).
	if b := d.hw.CrossBandBlockers(28e9, 3); len(b) == 0 {
		t.Error("out-of-band 28 GHz: no blockers")
	}

	c := connect(t, d)
	ctx := context.Background()
	diagnose := func() string {
		t.Helper()
		findings, err := c.Diagnose(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, f := range findings {
			b.WriteString(f.DeviceID + "/" + f.EndpointID + ": " + f.Verdict + "\n")
		}
		return b.String()
	}
	// No expectations yet.
	if got := diagnose(); got != "" {
		t.Errorf("diagnose before any link task: %q", got)
	}

	// Schedule a link demand: its prediction becomes an expectation once
	// the monitor has consumed the running event from the bus.
	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	waitFor(t, func() bool { return diagnose() != "" })

	// Reports are folded in before the ack: matching reports diagnose
	// healthy, then cratered ones diagnose a blockage, with no waiting.
	report := func(snr float64) {
		t.Helper()
		if err := c.Report(ctx, ctrlproto.ReportMsg{DeviceID: "s0-NR-Surface", EndpointID: "tv", SNRdB: snr}); err != nil {
			t.Fatalf("report: %v", err)
		}
	}
	for i := 0; i < 5; i++ {
		report(99)
	}
	if got := diagnose(); !strings.Contains(got, "s0-NR-Surface/tv: healthy") {
		t.Errorf("diagnose after matching reports: %q", got)
	}
	for i := 0; i < 10; i++ {
		report(-40)
	}
	if got := diagnose(); !strings.Contains(got, "s0-NR-Surface/tv: endpoint-blocked") {
		t.Errorf("diagnose after cratered reports: %q", got)
	}

	if err := c.Report(ctx, ctrlproto.ReportMsg{DeviceID: "s0-NR-Surface"}); err == nil {
		t.Error("report without an endpoint accepted")
	}
	// Reports and diagnosis are reads of the monitor, not mutations: a
	// standby serves them too.
	d.standby.Store(true)
	if err := c.Report(ctx, ctrlproto.ReportMsg{DeviceID: "s0-NR-Surface", EndpointID: "tv", SNRdB: 1}); err != nil {
		t.Errorf("standby report: %v", err)
	}
}

func TestDaemonFaultInjectionAndHealth(t *testing.T) {
	d, err := newDaemon(context.Background(), "NR-Surface@east_wall,NR-Surface@north_wall",
		daemonOptions{faultSeed: 7, faultStuck: 101})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	c := connect(t, d)

	// Before any probe the tracker has no records: everything is healthy.
	if reply := healthText(t, c); !strings.Contains(reply, "state=healthy") {
		t.Errorf("health before probe: %q", reply)
	}
	// One heartbeat pass picks up the injected stuck-element masks.
	d.hw.ProbeAll()
	if reply := healthText(t, c); !strings.Contains(reply, "state=degraded") || !strings.Contains(reply, "stuck=6[") {
		t.Errorf("health after probe: %q", reply)
	}
}

func TestDaemonSelfHealsDeadDevice(t *testing.T) {
	d := testDaemon(t)
	c := connect(t, d)
	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	devs := d.hw.Surfaces()
	if len(devs) != 2 {
		t.Fatalf("want 2 surfaces, got %d", len(devs))
	}
	fm := surfos.NewFaultModel(1)
	fm.SetDead(true)
	devs[0].Drv.SetFaults(fm)

	// The heartbeat marks the device dead, the event bus carries the
	// transition, and the self-healing consumer re-plans around it.
	d.hw.ProbeAll()
	waitFor(t, func() bool { return plannedWithout(d, devs[0].ID) })
	if reply := healthText(t, c); !strings.Contains(reply, "device "+devs[0].ID+" state=dead") {
		t.Errorf("health after death: %q", reply)
	}
}

// TestDaemonMetricsExposition wires the full registry and checks the
// Prometheus text output carries every subsystem's families: reconcile
// latency, device health, bus fan-out accounting, journal progress and
// group commits, and the daemon gauges.
func TestDaemonMetricsExposition(t *testing.T) {
	d := stateDaemon(t, t.TempDir())
	reg := metrics.NewRegistry()
	d.registerMetrics(reg)
	c := connect(t, d)

	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	// The demand's lifecycle events reach the journal through the bus.
	waitFor(t, func() bool { return d.journalBacklog() == 0 && d.journal.Syncs() > 0 })

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"surfos_reconcile_duration_seconds_bucket",
		"surfos_shard_tasks{domain=",
		"surfos_admission_rejected_total{tenant=",
		"surfos_device_health_state{device=",
		"surfos_bus_subscribers",
		"surfos_bus_subscriber_delivered_total{subscriber=\"selfheal\"",
		"surfos_northbound_connections 1", // the session that sent the demand
		"surfos_journal_seq ",
		"surfos_journal_syncs_total ",
		"surfos_journal_since_snapshot ",
		"surfos_journal_failed 0",
		"surfos_journal_epoch ",
		"surfos_journal_lag ",
		"surfos_wal_size_bytes ",
		"surfos_snapshot_age_seconds ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "surfos_reconcile_duration_seconds_count 0") {
		t.Error("reconcile histogram saw no observations after a demand")
	}
	if strings.Contains(text, "surfos_journal_syncs_total 0\n") || strings.Contains(text, "surfos_journal_seq 0\n") {
		t.Error("journal families report no records after a demand")
	}
	if syncs, seq := d.journal.Syncs(), d.journal.Seq(); syncs > seq {
		t.Errorf("%d journal syncs for %d records: more than one per record", syncs, seq)
	}
}

// waitFor polls a condition (telemetry flows through an async bus).
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(2 * time.Millisecond)
	}
}
