package main

import (
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"surfos"
	"surfos/internal/ctrlproto"
)

// stateDaemon builds a daemon attached to a state directory.
func stateDaemon(t *testing.T, dir string) *daemon {
	t.Helper()
	d := testDaemon(t)
	if err := d.openState(dir); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDaemonStateRecoveryAcrossRestart is the tentpole invariant at daemon
// level: tasks journaled by one epoch are re-admitted and re-planned by
// the next, idle stays idle, ended stays ended, the ID allocator never
// collides, and journaled device deaths shape the recovery plan.
func TestDaemonStateRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	// --- epoch 1 ---
	d1 := stateDaemon(t, dir)
	c1 := connect(t, d1)
	ctx := context.Background()
	if reply := demand(t, c1, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	if reply := demand(t, c1, "charge my phone please"); !strings.Contains(reply, "task 2") {
		t.Fatalf("second demand: %q", reply)
	}
	if err := c1.SetTaskIdle(ctx, 2, true); err != nil {
		t.Fatalf("idle: %v", err)
	}
	if reply := demand(t, c1, "please stream a movie on the tv tonight"); !strings.Contains(reply, "task 3") {
		t.Fatalf("third demand: %q", reply)
	}
	if err := c1.EndTask(ctx, 3); err != nil {
		t.Fatalf("end: %v", err)
	}
	// Kill a surface so its death is journaled: the next epoch must start
	// planning around it without ever probing.
	devs := d1.hw.Surfaces()
	fm := surfos.NewFaultModel(1)
	fm.SetDead(true)
	devs[0].Drv.SetFaults(fm)
	d1.hw.ProbeAll()
	waitFor(t, func() bool { return plannedWithout(d1, devs[0].ID) })
	d1.close() // graceful: drains the journal, snapshots, fsyncs

	// --- epoch 2 ---
	d2 := stateDaemon(t, dir)
	c2 := connect(t, d2)
	reply := tasksText(t, c2)
	if !strings.Contains(reply, "task 1 kind=link") || !strings.Contains(reply, "state=running") {
		t.Errorf("task 1 not re-planned after restart: %q", reply)
	}
	if !strings.Contains(reply, "task 2 kind=power") || !strings.Contains(reply, "state=idle") {
		t.Errorf("task 2 not restored idle: %q", reply)
	}
	if strings.Contains(reply, "task 3") {
		t.Errorf("ended task 3 resurrected: %q", reply)
	}
	// Health was rehydrated, not re-probed: the dead device is already
	// excluded from the recovery plan.
	if reply := healthText(t, c2); !strings.Contains(reply, "device "+devs[0].ID+" state=dead") {
		t.Errorf("device death not rehydrated: %q", reply)
	}
	if !plannedWithout(d2, devs[0].ID) {
		t.Errorf("recovery plan uses the journaled-dead device: %+v", d2.orch.Plans())
	}
	// The allocator was bumped past every journaled ID.
	if reply := demand(t, c2, "charge my phone please"); !strings.Contains(reply, "task 4") {
		t.Errorf("post-restart submission collided: %q", reply)
	}
}

// TestDaemonStateDisabledByDefault: without -state-dir nothing is written
// anywhere, preserving the in-memory-only behavior.
func TestDaemonStateDisabledByDefault(t *testing.T) {
	d := testDaemon(t)
	if d.journal != nil {
		t.Fatal("journal attached without a state dir")
	}
	if reply := demand(t, connect(t, d), "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	d.closeState() // must be a no-op, not a panic
}

// TestDaemonStateRefusesCorruption: a damaged WAL must abort the boot
// loudly instead of silently dropping tasks.
func TestDaemonStateRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	d1 := stateDaemon(t, dir)
	if reply := demand(t, connect(t, d1), "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	d1.closeState()
	// Re-open the dir raw and vandalize the snapshot.
	snap := filepath.Join(dir, "snapshot.json")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, append([]byte("x"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := testDaemon(t)
	if err := d2.openState(dir); err == nil {
		t.Fatal("corrupt state dir accepted")
	}
}

// TestServeConnRejectsOverCap: a framed client over the connection cap
// gets its first request answered with a busy error naming the cap, and
// the connection is closed.
func TestServeConnRejectsOverCap(t *testing.T) {
	d := testDaemon(t)
	// Saturate the semaphore so the next connection is over cap.
	d.connSem = make(chan struct{}, 1)
	d.connSem <- struct{}{}

	c := connect(t, d)
	_, err := c.ListTasks(context.Background())
	if err == nil || !strings.Contains(err.Error(), "busy: 1 northbound connections") {
		t.Fatalf("over-cap ListTasks err = %v, want the busy error", err)
	}
	// The server closes the rejected connection.
	if _, err := c.ListTasks(context.Background()); err == nil {
		t.Error("rejected connection left open")
	}
}

// TestRunGracefulShutdown drives the whole lifecycle: boot with a state
// dir, attach a watcher, SIGTERM, and a clean exit that leaves a final
// snapshot behind. The watcher is a framed session on -listen, idle by
// design; shutdown must close it rather than wait for it.
func TestRunGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	// run logs the port it bound but does not return it; reserve one.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	done := make(chan error, 1)
	go func() {
		done <- run(addr, "", "NR-Surface@east_wall", dir, daemonOptions{})
	}()
	var c *ctrlproto.Client
	waitFor(t, func() bool {
		c, err = ctrlproto.Dial(addr)
		return err == nil
	})
	defer c.Close()
	watch, err := c.OpenStream(context.Background(), ctrlproto.StreamTasks, "")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down on SIGTERM")
	}
	if took := time.Since(start); took > 2500*time.Millisecond {
		t.Errorf("shutdown took %s with one idle watcher attached", took)
	}
	select {
	case _, ok := <-watch.C:
		if ok {
			t.Error("watch stream delivered an event instead of closing")
		}
	case <-time.After(5 * time.Second):
		t.Error("watch stream still open after shutdown")
	}
	if _, err := os.Stat(filepath.Join(dir, "snapshot.json")); err != nil {
		t.Errorf("no final snapshot after graceful shutdown: %v", err)
	}
}

// TestRunReportsListenErrors: a bad listen address must return through
// run's normal error path (so deferred cleanup executes), not kill the
// process before the daemon is released.
func TestRunReportsListenErrors(t *testing.T) {
	if err := run("500.0.0.1:0", "", "NR-Surface@east_wall", "", daemonOptions{}); err == nil {
		t.Error("bad northbound listen address accepted")
	}
}
