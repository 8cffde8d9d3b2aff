package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"surfos/internal/metrics"
	"surfos/internal/orchestrator"
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

// TestDaemonMoveCommand drives the framed move verb: a walking user's task
// is re-targeted and re-planned through the governor.
func TestDaemonMoveCommand(t *testing.T) {
	d := governedDaemon(t)
	c := connect(t, d)
	ctx := context.Background()

	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	if err := c.MoveTask(ctx, 1, 1.8, 6.2, 1.5); err != nil {
		t.Fatalf("move: %v", err)
	}
	if reply := tasksText(t, c); !strings.Contains(reply, "running") {
		t.Errorf("tasks after move: %q", reply)
	}

	// The governor observed the re-plan.
	if s := d.gov.Stats(); s.Replans == 0 {
		t.Errorf("governor stats after move: %+v, want Replans > 0", s)
	}

	if err := c.MoveTask(ctx, 99, 1, 2, 3); !errors.Is(err, orchestrator.ErrUnknownTask) {
		t.Errorf("move of an unknown task: err = %v, want ErrUnknownTask", err)
	}
}

// TestDaemonVerbsAreGoverned: with -replan-burst on, end/idle/resume mark
// the task's domain and go through the governor instead of re-planning
// every domain behind its back.
func TestDaemonVerbsAreGoverned(t *testing.T) {
	d := governedDaemon(t)
	c := connect(t, d)
	ctx := context.Background()
	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	// Every governed mutation either re-plans (Replans), coalesces into a
	// pending re-plan (Suppressed) or leaves its domain dirty for the next
	// token; the poll ticker only ever moves a count from Dirty to Replans.
	seen := func() uint64 {
		s := d.gov.Stats()
		return s.Replans + s.Suppressed + uint64(s.Dirty)
	}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"idle 1", func() error { return c.SetTaskIdle(ctx, 1, true) }},
		{"resume 1", func() error { return c.SetTaskIdle(ctx, 1, false) }},
		{"end 1", func() error { return c.EndTask(ctx, 1) }},
	} {
		before := seen()
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if seen() <= before {
			t.Errorf("%q bypassed the governor: stats %+v", step.name, d.gov.Stats())
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

	c := connect(t, d)
	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	if err := c.MoveTask(context.Background(), 1, 1.8, 6.2, 1.5); err != nil {
		t.Fatalf("move: %v", err)
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
