package main

import (
	"context"
	"errors"
	"strings"
	"testing"

	"surfos/internal/orchestrator"
)

// reconciles sums the shards' reconcile counters.
func reconciles(d *daemon) uint64 {
	var n uint64
	for _, sh := range d.orch.ShardStats() {
		n += sh.Reconciles
	}
	return n
}

// TestDaemonMoveCommand drives the framed move verb: a walking user's task
// is re-targeted and its domain re-planned before the reply.
func TestDaemonMoveCommand(t *testing.T) {
	d := testDaemon(t)
	c := connect(t, d)
	ctx := context.Background()

	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	before := reconciles(d)
	if err := c.MoveTask(ctx, 1, 1.8, 6.2, 1.5); err != nil {
		t.Fatalf("move: %v", err)
	}
	if reply := tasksText(t, c); !strings.Contains(reply, "running") {
		t.Errorf("tasks after move: %q", reply)
	}
	if after := reconciles(d); after <= before {
		t.Errorf("move left the shard reconciles at %d, want a re-plan", after)
	}

	if err := c.MoveTask(ctx, 99, 1, 2, 3); !errors.Is(err, orchestrator.ErrUnknownTask) {
		t.Errorf("move of an unknown task: err = %v, want ErrUnknownTask", err)
	}
}

// TestDaemonVerbsReplanTheirDomain: end, idle and resume each re-plan the
// task's interference domain before they reply.
func TestDaemonVerbsReplanTheirDomain(t *testing.T) {
	d := testDaemon(t)
	c := connect(t, d)
	ctx := context.Background()
	if reply := demand(t, c, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	for _, step := range []struct {
		name string
		do   func() error
	}{
		{"idle 1", func() error { return c.SetTaskIdle(ctx, 1, true) }},
		{"resume 1", func() error { return c.SetTaskIdle(ctx, 1, false) }},
		{"end 1", func() error { return c.EndTask(ctx, 1) }},
	} {
		before := reconciles(d)
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if after := reconciles(d); after <= before {
			t.Errorf("%q left the shard reconciles at %d, want a re-plan", step.name, after)
		}
	}
}
