package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"surfos"
	"surfos/internal/ctrlproto"
	"surfos/internal/metrics"
	"surfos/internal/telemetry"
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

	reply, cont := d.handle("help")
	if !cont || !strings.Contains(reply, "demand") {
		t.Errorf("help: %q", reply)
	}

	reply, _ = d.handle("catalog")
	if !strings.Contains(reply, "mmWall") || !strings.Contains(reply, "AutoMS") {
		t.Errorf("catalog missing models: %q", reply)
	}

	reply, _ = d.handle("devices")
	if !strings.Contains(reply, "NR-Surface") || !strings.Contains(reply, "column-wise") {
		t.Errorf("devices (southbound readback): %q", reply)
	}
	if !strings.Contains(reply, "unconfigured") {
		t.Errorf("fresh devices should be unconfigured: %q", reply)
	}

	reply, _ = d.handle("tasks")
	if reply != "no tasks" {
		t.Errorf("tasks: %q", reply)
	}

	reply, _ = d.handle("demand please stream a movie on the tv tonight")
	if !strings.Contains(reply, "enhance_link") || !strings.Contains(reply, "running") {
		t.Errorf("demand: %q", reply)
	}

	reply, _ = d.handle("plans")
	if !strings.Contains(reply, "strategy=") {
		t.Errorf("plans: %q", reply)
	}

	// The surface now holds a configuration, visible over the southbound
	// protocol.
	reply, _ = d.handle("devices")
	if !strings.Contains(reply, "active=") {
		t.Errorf("devices after scheduling: %q", reply)
	}

	reply, _ = d.handle("end 1")
	if reply != "ok" {
		t.Errorf("end: %q", reply)
	}
	reply, _ = d.handle("plans")
	if reply != "no plans" {
		t.Errorf("plans after end: %q", reply)
	}

	reply, _ = d.handle("tick 250ms")
	if !strings.Contains(reply, "now ") {
		t.Errorf("tick: %q", reply)
	}

	reply, _ = d.handle("demand gibberish nobody understands")
	if !strings.Contains(reply, "error") {
		t.Errorf("bad demand: %q", reply)
	}
	reply, _ = d.handle("end notanumber")
	if !strings.Contains(reply, "error") {
		t.Errorf("bad end: %q", reply)
	}
	reply, _ = d.handle("frobnicate")
	if !strings.Contains(reply, "unknown command") {
		t.Errorf("unknown: %q", reply)
	}
	if _, cont := d.handle("quit"); cont {
		t.Error("quit should end the session")
	}
}

func TestDaemonIdleResume(t *testing.T) {
	d := testDaemon(t)
	if reply, _ := d.handle("demand charge my phone please"); !strings.Contains(reply, "init_powering") {
		t.Fatalf("demand: %q", reply)
	}
	if reply, _ := d.handle("idle 1"); reply != "ok" {
		t.Fatalf("idle: %q", reply)
	}
	if reply, _ := d.handle("plans"); reply != "no plans" {
		t.Errorf("plans while idle: %q", reply)
	}
	if reply, _ := d.handle("resume 1"); reply != "ok" {
		t.Fatalf("resume: %q", reply)
	}
	if reply, _ := d.handle("plans"); reply == "no plans" {
		t.Error("no plans after resume")
	}
}

func TestDaemonNorthboundOverTCP(t *testing.T) {
	d := testDaemon(t)
	client, server := net.Pipe()
	go d.serveConn(server)
	defer client.Close()

	rd := bufio.NewReader(client)
	banner, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(banner, "surfos daemon ready") {
		t.Fatalf("banner: %q %v", banner, err)
	}
	if _, err := client.Write([]byte("catalog\n")); err != nil {
		t.Fatal(err)
	}
	line, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(line, "GHz") {
		t.Fatalf("catalog line: %q %v", line, err)
	}
	if _, err := client.Write([]byte("quit\n")); err != nil {
		t.Fatal(err)
	}
}

// TestDaemonNorthboundFramedClient drives a framed task-control session
// over the same port the text protocol uses: the first byte (the wire
// magic) routes the connection to the control agent instead of the line
// scanner.
func TestDaemonNorthboundFramedClient(t *testing.T) {
	d := testDaemon(t)
	client, server := net.Pipe()
	go d.serveConn(server)

	c := ctrlproto.NewClient(client)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tasks, err := c.ListTasks(ctx)
	if err != nil {
		t.Fatalf("framed ListTasks over northbound port: %v", err)
	}
	if len(tasks) != 0 {
		t.Fatalf("fresh daemon has tasks: %v", tasks)
	}
	// Multiplexed streams work on the shared port too.
	s, err := c.OpenStream(ctx, ctrlproto.StreamTasks, "")
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close stream: %v", err)
	}
}

// TestTextAndFramedNorthboundAgree runs one script — demand, idle, resume,
// move, end — against a fresh daemon through each protocol and requires
// the same task table after every step — the text `tasks` reply byte for
// byte what surfctl prints for the framed ListTasks —, the same
// lifecycle-event sequence, and the same standby rejection of every step:
// both protocols are parsers over the same CtrlAgent verbs and print
// through the same renderer.
func TestTextAndFramedNorthboundAgree(t *testing.T) {
	const demand = "please stream a movie on the tv tonight"
	script := []struct {
		text   string
		framed func(context.Context, *ctrlproto.Client) error
	}{
		{"demand " + demand, func(ctx context.Context, c *ctrlproto.Client) error {
			_, err := c.Demand(ctx, demand)
			return err
		}},
		{"idle 1", func(ctx context.Context, c *ctrlproto.Client) error { return c.SetTaskIdle(ctx, 1, true) }},
		{"resume 1", func(ctx context.Context, c *ctrlproto.Client) error { return c.SetTaskIdle(ctx, 1, false) }},
		{"move 1 1.8 6.2 1.5", func(ctx context.Context, c *ctrlproto.Client) error { return c.MoveTask(ctx, 1, 1.8, 6.2, 1.5) }},
		{"end 1", func(ctx context.Context, c *ctrlproto.Client) error { return c.EndTask(ctx, 1) }},
	}

	// trace returns the task table after each step and the events the
	// whole script published.
	trace := func(framed bool) (tables, events []string) {
		d := testDaemon(t)
		// Default policy: delivery is synchronous with Publish, so the
		// channel holds the script's events the moment a step returns.
		evCh, unsub := d.events.SubscribeOpts(telemetry.SubOptions[telemetry.TaskEvent]{Name: "parity", Buffer: 256})
		defer unsub()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		client, server := net.Pipe()
		go d.serveConn(server)
		c := ctrlproto.NewClient(client)
		defer c.Close()

		// step runs one script line and reports whether it was rejected
		// by the standby gate (any other failure is fatal).
		step := func(i int) (notLeader bool) {
			if framed {
				err := script[i].framed(ctx, c)
				if err != nil && !errors.Is(err, ctrlproto.ErrNotLeader) {
					t.Fatalf("framed %q: %v", script[i].text, err)
				}
				return err != nil
			}
			reply, _ := d.handle(script[i].text)
			if reply == "error: not the leader (standby); retry against the primary" {
				return true
			}
			if strings.HasPrefix(reply, "error") {
				t.Fatalf("text %q: %s", script[i].text, reply)
			}
			return false
		}
		for i := range script {
			if step(i) {
				t.Fatalf("%q rejected by a leader (framed=%v)", script[i].text, framed)
			}
			table, _ := d.handle("tasks")
			if framed {
				tasks, err := c.ListTasks(ctx)
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				for _, task := range tasks {
					ctrlproto.RenderTask(&b, task)
				}
				table = strings.TrimRight(b.String(), "\n")
			}
			tables = append(tables, table)
		}
		d.standby.Store(true)
		for i := range script {
			if !step(i) {
				t.Errorf("standby accepted %q (framed=%v)", script[i].text, framed)
			}
		}
		for len(evCh) > 0 {
			ev := <-evCh
			events = append(events, fmt.Sprintf("task %d %s %s %s %s=%.2f", ev.TaskID, ev.Kind, ev.State, ev.Strategy, ev.MetricName, ev.Metric))
		}
		return tables, events
	}

	textTables, textEvents := trace(false)
	framedTables, framedEvents := trace(true)
	for i := range script {
		if textTables[i] != framedTables[i] {
			t.Errorf("task table after %q differs:\ntext:   %s\nframed: %s", script[i].text, textTables[i], framedTables[i])
		}
	}
	if len(textEvents) == 0 || !slices.Equal(textEvents, framedEvents) {
		t.Errorf("lifecycle events differ:\ntext:   %q\nframed: %q", textEvents, framedEvents)
	}
}

// TestDaemonNorthboundSniffKeepsTextFirstByte checks that a text client
// whose first command arrives before the banner (so its first byte is
// consumed by the protocol sniff) still gets that byte replayed into the
// line scanner.
func TestDaemonNorthboundSniffKeepsTextFirstByte(t *testing.T) {
	d := testDaemon(t)
	client, server := net.Pipe()
	go d.serveConn(server)
	defer client.Close()

	// net.Pipe writes are synchronous: the server sniffs one byte, then
	// writes the banner before draining the rest of the line, so the write
	// must not block this goroutine (TCP buffering hides this in practice).
	go func() { _, _ = client.Write([]byte("help\n")) }()
	rd := bufio.NewReader(client)
	banner, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(banner, "surfos daemon ready") {
		t.Fatalf("banner: %q %v", banner, err)
	}
	line, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(line, "commands:") {
		t.Fatalf("help reply with sniffed first byte: %q %v", line, err)
	}
}

func TestDaemonHazardsAndDiagnosis(t *testing.T) {
	d := testDaemon(t)

	// The deployed 24 GHz panels do not block their own band...
	reply, _ := d.handle("hazards 24")
	if !strings.Contains(reply, "no deployed panel") {
		t.Errorf("in-band hazards: %q", reply)
	}
	// ...but they attenuate an out-of-band 28 GHz link (panel response).
	reply, _ = d.handle("hazards 28")
	if !strings.Contains(reply, "attenuates 28.0 GHz") {
		t.Errorf("out-of-band hazards: %q", reply)
	}
	reply, _ = d.handle("hazards lots")
	if !strings.Contains(reply, "error") {
		t.Errorf("bad hazards arg: %q", reply)
	}

	// No expectations yet.
	reply, _ = d.handle("diagnose")
	if !strings.Contains(reply, "no expectations") {
		t.Errorf("diagnose empty: %q", reply)
	}

	// Schedule a link demand: its prediction becomes an expectation.
	reply, _ = d.handle("demand please stream a movie on the tv tonight")
	if !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	// Feed matching reports and diagnose healthy.
	for i := 0; i < 5; i++ {
		if reply, _ := d.handle("report s0-NR-Surface tv 99"); reply != "ok" {
			t.Fatalf("report: %q", reply)
		}
	}
	waitFor(t, func() bool {
		reply, _ := d.handle("diagnose")
		return strings.Contains(reply, "healthy")
	})

	// Crater the reports: blockage shows up.
	for i := 0; i < 10; i++ {
		d.handle("report s0-NR-Surface tv -40")
	}
	waitFor(t, func() bool {
		reply, _ := d.handle("diagnose")
		return strings.Contains(reply, "endpoint-blocked")
	})

	if reply, _ := d.handle("report onlytwo args"); !strings.Contains(reply, "error") {
		t.Errorf("bad report: %q", reply)
	}
}

func TestDaemonFaultInjectionAndHealth(t *testing.T) {
	d, err := newDaemon(context.Background(), "NR-Surface@east_wall,NR-Surface@north_wall",
		daemonOptions{faultSeed: 7, faultStuck: 101})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)

	// Before any probe the tracker has no records: everything is healthy.
	reply, _ := d.handle("health")
	if !strings.Contains(reply, "state=healthy") {
		t.Errorf("health before probe: %q", reply)
	}
	// One heartbeat pass picks up the injected stuck-element masks.
	d.hw.ProbeAll()
	reply, _ = d.handle("health")
	if !strings.Contains(reply, "state=degraded") || !strings.Contains(reply, "stuck=6[") {
		t.Errorf("health after probe: %q", reply)
	}
}

func TestDaemonSelfHealsDeadDevice(t *testing.T) {
	d := testDaemon(t)
	if reply, _ := d.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
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
	waitFor(t, func() bool {
		reply, _ := d.handle("plans")
		return strings.Contains(reply, "strategy=") && !strings.Contains(reply, devs[0].ID)
	})
	reply, _ := d.handle("health")
	if !strings.Contains(reply, "device "+devs[0].ID+" state=dead") {
		t.Errorf("health after death: %q", reply)
	}
}

// TestDaemonMetricsExposition wires the full registry and checks the
// Prometheus text output carries every subsystem's families: reconcile
// latency, device health, bus fan-out accounting, and the daemon gauges.
func TestDaemonMetricsExposition(t *testing.T) {
	d := testDaemon(t)
	reg := metrics.NewRegistry()
	d.registerMetrics(reg)

	if reply, _ := d.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}

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
		"surfos_northbound_connections 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "surfos_reconcile_duration_seconds_count 0") {
		t.Error("reconcile histogram saw no observations after a demand")
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
