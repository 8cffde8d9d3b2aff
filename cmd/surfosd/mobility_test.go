package main

import (
	"context"
	"strings"
	"testing"

	"surfos/internal/metrics"
)

// governedDaemon is testDaemon with the replan governor enabled, the way
// an operator would run -replan-burst 2.
func governedDaemon(t *testing.T) *daemon {
	t.Helper()
	d, err := newDaemon(context.Background(), "NR-Surface@east_wall,NR-Surface@north_wall", daemonOptions{
		replanBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.orch.Opts.OptIters = 30
	d.orch.Opts.GridStep = 1.5
	d.orch.Opts.SensingGridStep = 2.5
	d.orch.Opts.SensingBins = 11
	d.orch.Opts.SensingSubcarriers = 3
	t.Cleanup(d.close)
	return d
}

// TestDaemonMoveCommand drives the text-protocol move command: a walking
// user's task is re-targeted and re-planned through the governor.
func TestDaemonMoveCommand(t *testing.T) {
	d := governedDaemon(t)

	if reply, _ := d.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}

	reply, cont := d.handle("move 1 1.8 6.2 1.5")
	if !cont || reply != "ok" {
		t.Fatalf("move: %q", reply)
	}
	if reply, _ := d.handle("tasks"); !strings.Contains(reply, "running") {
		t.Errorf("tasks after move: %q", reply)
	}

	// The governor observed the re-plan.
	if s := d.gov.Stats(); s.Replans == 0 {
		t.Errorf("governor stats after move: %+v, want Replans > 0", s)
	}

	for _, bad := range []string{"move", "move 1 2 3", "move x 1 2 3", "move 1 a b c", "move 99 1 2 3"} {
		if reply, _ := d.handle(bad); !strings.Contains(reply, "error") {
			t.Errorf("%q accepted: %q", bad, reply)
		}
	}
}

// TestDaemonTextVerbsAreGoverned: with -replan-burst on, the text
// protocol's end/idle/resume mark the task's domain and go through the
// governor exactly like the framed verbs — they are the same CtrlAgent
// methods — instead of re-planning every domain behind its back.
func TestDaemonTextVerbsAreGoverned(t *testing.T) {
	d := governedDaemon(t)
	if reply, _ := d.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	// Every governed mutation either re-plans (Replans), coalesces into a
	// pending re-plan (Suppressed) or leaves its domain dirty for the next
	// token; the poll ticker only ever moves a count from Dirty to Replans.
	seen := func() uint64 {
		s := d.gov.Stats()
		return s.Replans + s.Suppressed + uint64(s.Dirty)
	}
	for _, line := range []string{"idle 1", "resume 1", "end 1"} {
		before := seen()
		if reply, _ := d.handle(line); reply != "ok" {
			t.Fatalf("%s: %q", line, reply)
		}
		if seen() <= before {
			t.Errorf("%q bypassed the governor: stats %+v", line, d.gov.Stats())
		}
	}
	if s := d.gov.Stats(); s.Replans < 2 {
		t.Errorf("burst of 2 should have re-planned idle and resume inline: %+v", s)
	}
}

// TestDaemonGovernorMetrics checks the -replan-* counters reach the
// metrics registry alongside the rest of the control plane.
func TestDaemonGovernorMetrics(t *testing.T) {
	d := governedDaemon(t)
	reg := metrics.NewRegistry()
	d.registerMetrics(reg)

	if reply, _ := d.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	if reply, _ := d.handle("move 1 1.8 6.2 1.5"); reply != "ok" {
		t.Fatalf("move: %q", reply)
	}

	var b strings.Builder
	if err := reg.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"surfos_replans_total",
		"surfos_replans_suppressed_total",
		"surfos_replans_forced_total",
		"surfos_replan_duration_seconds_bucket",
		"surfos_replan_dirty_domains",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if strings.Contains(text, "surfos_replans_total 0") {
		t.Error("governed move left surfos_replans_total at 0")
	}
}
