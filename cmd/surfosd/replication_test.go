package main

import (
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"surfos"
	"surfos/internal/ctrlproto"
	"surfos/internal/orchestrator"
)

// serveNorthbound puts d behind a real -listen socket — accept loop and
// connection cap included, as run does — and returns its address.
func serveNorthbound(t *testing.T, d *daemon) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go d.acceptLoop(ln)
	return ln.Addr().String()
}

// replTestDaemon is testDaemon with a caller-owned context, so a test can
// hard-kill one daemon of a replicated pair (stopping its shippers and
// heartbeats mid-lease) while the other keeps running.
func replTestDaemon(t *testing.T, ctx context.Context) *daemon {
	t.Helper()
	d, err := newDaemon(ctx, "NR-Surface@east_wall,NR-Surface@north_wall", daemonOptions{})
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

// failoverPair boots a journaled primary shipping to a warm standby over
// a real TCP replication session, with a lease of ttl. kill hard-stops
// the primary: its shippers and heartbeats stop mid-lease.
func failoverPair(t *testing.T, ttl time.Duration) (d1, d2 *daemon, kill func()) {
	t.Helper()
	// Dirs before daemons: cleanups run LIFO, so each daemon's close (and
	// its final snapshot) happens before its state directory is removed.
	pdir, sdir := t.TempDir(), t.TempDir()

	// Primary: journaled state dir.
	ctx1, kill := context.WithCancel(context.Background())
	t.Cleanup(kill)
	d1 = replTestDaemon(t, ctx1)
	if err := d1.openState(pdir); err != nil {
		t.Fatal(err)
	}
	d1.holder = "primary"
	d1.replicating = true

	// Standby: warm replica receiving on its northbound port. Start
	// shipping right away so the armed boot lease sees heartbeats before
	// it lapses.
	d2 = replTestDaemon(t, context.Background())
	if err := d2.openFollower(sdir, ttl); err != nil {
		t.Fatal(err)
	}
	if err := d1.startReplication([]string{serveNorthbound(t, d2)}, ttl); err != nil {
		t.Fatal(err)
	}
	return d1, d2, kill
}

// waitShipped waits until the primary's journal has drained the bus and
// the standby has acked the primary's last record.
func waitShipped(t *testing.T, d1, d2 *daemon) {
	t.Helper()
	j := d1.journal
	waitFor(t, func() bool {
		seq := j.Seq()
		return d1.journalBacklog() == 0 && seq > 0 && d2.follower.Applied() == seq
	})
}

// TestDaemonFailoverPromotesStandby is the failover invariant at daemon
// level, over a real TCP replication session: a primary ships its journal
// to a warm standby; when the primary dies mid-lease the standby promotes
// itself, re-admits every live task, and starts accepting mutations.
func TestDaemonFailoverPromotesStandby(t *testing.T) {
	d1, d2, kill := failoverPair(t, time.Second)

	c1 := connect(t, d1)
	if reply := demand(t, c1, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	if reply := demand(t, c1, "charge my phone please"); !strings.Contains(reply, "task 2") {
		t.Fatalf("second demand: %q", reply)
	}

	// The journal drains the bus asynchronously; wait for it to settle and
	// for the follower's ack to reach the primary's sequence.
	waitShipped(t, d1, d2)
	if !d2.standby.Load() {
		t.Fatal("follower serving mutations before promotion")
	}

	// Hard-kill the primary: shippers and heartbeats stop mid-lease. The
	// standby's followLoop notices the lapsed lease and promotes.
	kill()
	waitFor(t, func() bool { return !d2.standby.Load() })
	if got := d2.promotions.Load(); got != 1 {
		t.Errorf("promotions = %d, want 1", got)
	}

	// Zero live tasks lost: both survive the failover, re-planned.
	c2 := connect(t, d2)
	reply := tasksText(t, c2)
	if !strings.Contains(reply, "task 1 kind=link") || !strings.Contains(reply, "state=running") {
		t.Errorf("task 1 not re-admitted on promotion: %q", reply)
	}
	if !strings.Contains(reply, "task 2 kind=power") {
		t.Errorf("task 2 lost in failover: %q", reply)
	}
	// The promoted daemon is the leader now: mutations are accepted and
	// the ID allocator continues past the primary's high-water mark.
	if reply := demand(t, c2, "please stream a movie on the tv tonight"); !strings.Contains(reply, "task 3") {
		t.Errorf("post-promotion demand: %q", reply)
	}
}

// TestDurableMoveSurvivesFailover: tasks the primary moved before it died
// are re-admitted by the promoted standby at their moved positions.
func TestDurableMoveSurvivesFailover(t *testing.T) {
	d1, d2, kill := failoverPair(t, time.Second)
	c1 := connect(t, d1)
	ctx := context.Background()
	if reply := demand(t, c1, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	if reply := demand(t, c1, "charge my phone please"); !strings.Contains(reply, "task 2") {
		t.Fatalf("second demand: %q", reply)
	}
	tv, phone := surfos.V(1.8, 6.2, 1.5), surfos.V(3.0, 5.0, 1.0)
	if err := c1.MoveTask(ctx, 1, tv.X, tv.Y, tv.Z); err != nil {
		t.Fatalf("move 1: %v", err)
	}
	if err := c1.MoveTask(ctx, 2, phone.X, phone.Y, phone.Z); err != nil {
		t.Fatalf("move 2: %v", err)
	}
	waitShipped(t, d1, d2)

	kill()
	waitFor(t, func() bool { return !d2.standby.Load() })
	for id, want := range map[int]surfos.Vec3{1: tv, 2: phone} {
		task, err := d2.orch.Task(id)
		if err != nil {
			t.Fatalf("task %d lost in failover: %v", id, err)
		}
		var got surfos.Vec3
		switch g := task.Goal.(type) {
		case orchestrator.LinkGoal:
			got = g.Pos
		case orchestrator.PowerGoal:
			got = g.Pos
		}
		if got != want {
			t.Errorf("promoted standby has task %d at %v, want the moved position %v", id, got, want)
		}
	}
}

// replProxy sits between a primary and its follower so a test can cut the
// replication path without killing either daemon: with drop set, live
// connections are severed and new ones closed on accept — a network
// partition, as the shippers see it.
type replProxy struct {
	ln      net.Listener
	backend string
	mu      sync.Mutex
	drop    bool
	conns   map[net.Conn]struct{}
}

func newReplProxy(t *testing.T, backend string) *replProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &replProxy{ln: ln, backend: backend, conns: map[net.Conn]struct{}{}}
	t.Cleanup(func() { ln.Close() })
	go p.run()
	return p
}

func (p *replProxy) run() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		if p.drop {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		back, err := net.Dial("tcp", p.backend)
		if err != nil {
			p.mu.Unlock()
			conn.Close()
			continue
		}
		p.conns[conn] = struct{}{}
		p.conns[back] = struct{}{}
		p.mu.Unlock()
		pipe := func(dst, src net.Conn) {
			io.Copy(dst, src)
			dst.Close()
			src.Close()
			p.mu.Lock()
			delete(p.conns, dst)
			delete(p.conns, src)
			p.mu.Unlock()
		}
		go pipe(back, conn)
		go pipe(conn, back)
	}
}

// setDrop flips the partition: dropping also severs live connections.
func (p *replProxy) setDrop(drop bool) {
	p.mu.Lock()
	p.drop = drop
	if drop {
		for c := range p.conns {
			c.Close()
		}
	}
	p.mu.Unlock()
}

// TestPrimaryLeaseLossStepsDownAndResumes pins the primary's own half of
// the lease: partitioned from every follower, it must stop accepting
// mutations within its TTL — before a standby could promote — and, when
// the partition heals against a follower that never promoted, resume
// leadership without fencing itself.
func TestPrimaryLeaseLossStepsDownAndResumes(t *testing.T) {
	ttl := 500 * time.Millisecond
	pdir, sdir := t.TempDir(), t.TempDir()

	d1 := replTestDaemon(t, context.Background())
	if err := d1.openState(pdir); err != nil {
		t.Fatal(err)
	}
	d1.holder = "primary"
	d1.replicating = true

	// Follower with an effectively infinite lease: it will never promote,
	// so any step-down observed on the primary is the primary's own doing.
	d2 := replTestDaemon(t, context.Background())
	if err := d2.openFollower(sdir, time.Hour); err != nil {
		t.Fatal(err)
	}
	proxy := newReplProxy(t, serveNorthbound(t, d2))
	if err := d1.startReplication([]string{proxy.ln.Addr().String()}, ttl); err != nil {
		t.Fatal(err)
	}

	c1 := connect(t, d1)
	if reply := demand(t, c1, "please stream a movie on the tv tonight"); !strings.Contains(reply, "running") {
		t.Fatalf("demand: %q", reply)
	}
	j := d1.journal
	waitFor(t, func() bool {
		seq := j.Seq()
		return d1.journalBacklog() == 0 && seq > 0 && d2.follower.Applied() == seq
	})

	// Partition. With no acks for a ttl the primary steps into standby.
	proxy.setDrop(true)
	waitFor(t, func() bool { return d1.standby.Load() })
	if _, err := c1.Demand(context.Background(), "charge my phone please"); !errors.Is(err, ctrlproto.ErrNotLeader) {
		t.Errorf("partitioned-primary demand err = %v, want a standby rejection", err)
	}
	if d2.follower.Promoted() {
		t.Fatal("follower promoted despite its armed hour-long lease")
	}

	// Heal. The follower never promoted, so its next ack restores the
	// lease and the primary resumes — no fencing, no epoch change.
	proxy.setDrop(false)
	waitFor(t, func() bool { return !d1.standby.Load() })
	if d1.fenced.Load() {
		t.Error("resumed primary reports fenced")
	}
	if reply := demand(t, c1, "charge my phone please"); !strings.Contains(reply, "task 2") {
		t.Errorf("post-heal demand = %q, want task 2 accepted", reply)
	}
	waitFor(t, func() bool { return d2.follower.Applied() == j.Seq() })
	if d2.follower.Promoted() || !d2.standby.Load() {
		t.Error("follower role changed across the partition")
	}
}
