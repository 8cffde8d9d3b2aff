package main

import (
	"bufio"
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
	if reply, _ := d1.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	if reply, _ := d1.handle("demand charge my phone please"); !strings.Contains(reply, "task 2") {
		t.Fatalf("second demand: %q", reply)
	}
	if reply, _ := d1.handle("idle 2"); reply != "ok" {
		t.Fatalf("idle: %q", reply)
	}
	if reply, _ := d1.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "task 3") {
		t.Fatalf("third demand: %q", reply)
	}
	if reply, _ := d1.handle("end 3"); reply != "ok" {
		t.Fatalf("end: %q", reply)
	}
	// Kill a surface so its death is journaled: the next epoch must start
	// planning around it without ever probing.
	devs := d1.hw.Surfaces()
	fm := surfos.NewFaultModel(1)
	fm.SetDead(true)
	devs[0].Drv.SetFaults(fm)
	d1.hw.ProbeAll()
	waitFor(t, func() bool {
		reply, _ := d1.handle("plans")
		return strings.Contains(reply, "strategy=") && !strings.Contains(reply, devs[0].ID)
	})
	d1.close() // graceful: drains the journal, snapshots, fsyncs

	// --- epoch 2 ---
	d2 := stateDaemon(t, dir)
	reply, _ := d2.handle("tasks")
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
	reply, _ = d2.handle("health")
	if !strings.Contains(reply, "device "+devs[0].ID+" state=dead") {
		t.Errorf("device death not rehydrated: %q", reply)
	}
	reply, _ = d2.handle("plans")
	if strings.Contains(reply, devs[0].ID) {
		t.Errorf("recovery plan uses the journaled-dead device: %q", reply)
	}
	// The allocator was bumped past every journaled ID.
	if reply, _ := d2.handle("demand charge my phone please"); !strings.Contains(reply, "task 4") {
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
	if reply, _ := d.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	d.closeState() // must be a no-op, not a panic
}

// TestDaemonStateRefusesCorruption: a damaged WAL must abort the boot
// loudly instead of silently dropping tasks.
func TestDaemonStateRefusesCorruption(t *testing.T) {
	dir := t.TempDir()
	d1 := stateDaemon(t, dir)
	if reply, _ := d1.handle("demand please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
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

// TestServeConnRejectsOverCap: the northbound connection cap answers with
// a diagnostic line instead of hanging the excess client.
func TestServeConnRejectsOverCap(t *testing.T) {
	d := testDaemon(t)
	// Saturate the semaphore so the next connection is over cap.
	d.connSem = make(chan struct{}, 1)
	d.connSem <- struct{}{}

	client, server := net.Pipe()
	defer client.Close()
	go d.serveConn(server)
	line, err := bufio.NewReader(client).ReadString('\n')
	if err != nil || !strings.Contains(line, "error: busy") {
		t.Fatalf("over-cap reply = %q, %v", line, err)
	}
	// The server closes the rejected connection.
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bufio.NewReader(client).ReadString('\n'); err == nil {
		t.Error("rejected connection left open")
	}
}

// TestServeConnRejectsOversizedLine: a line beyond the scanner cap is a
// logged, diagnosed close — not a silent drop.
func TestServeConnRejectsOversizedLine(t *testing.T) {
	d := testDaemon(t)
	client, server := net.Pipe()
	defer client.Close()
	go d.serveConn(server)

	rd := bufio.NewReader(client)
	if _, err := rd.ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	go client.Write(append(make([]byte, northboundLineMax+1), '\n'))
	client.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := rd.ReadString('\n')
	if err != nil || !strings.Contains(line, "line exceeds") {
		t.Fatalf("oversized-line reply = %q, %v", line, err)
	}
}

// TestDrainForceClosesStragglers: the drain waits for in-flight sessions,
// then force-closes whatever outlives the deadline.
func TestDrainForceClosesStragglers(t *testing.T) {
	d := testDaemon(t)
	// No connections: the drain returns immediately.
	start := time.Now()
	d.drainConns(5 * time.Second)
	if time.Since(start) > time.Second {
		t.Fatal("empty drain waited for the deadline")
	}

	// A client that never sends anything pins its session until the drain
	// deadline force-closes it.
	client, server := net.Pipe()
	defer client.Close()
	d.connWG.Add(1)
	go func() {
		defer d.connWG.Done()
		d.serveConn(server)
	}()
	if _, err := bufio.NewReader(client).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		d.drainConns(50 * time.Millisecond)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain never finished")
	}
}

// TestRunGracefulShutdown drives the whole lifecycle: boot with a state
// dir, attach a watcher, SIGTERM, and a clean exit that leaves a final
// snapshot behind. The watcher is a framed session on -listen, idle by
// design; shutdown must drop it rather than wait out -drain-timeout.
func TestRunGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	// run logs the port it bound but does not return it; reserve one.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.Addr().String()
	probe.Close()

	const drain = 5 * time.Second
	done := make(chan error, 1)
	go func() {
		done <- run(addr, "", "NR-Surface@east_wall", dir, drain, daemonOptions{})
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
	if took := time.Since(start); took > drain/2 {
		t.Errorf("shutdown took %s with one idle watcher attached; the drain timeout is %s", took, drain)
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
	if err := run("500.0.0.1:0", "", "NR-Surface@east_wall", "", time.Second, daemonOptions{}); err == nil {
		t.Error("bad northbound listen address accepted")
	}
}
