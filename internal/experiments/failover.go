package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"surfos/internal/ctrlproto"
	"surfos/internal/store"
)

// failoverTTL is the experiment's lease. Time is virtual (the follower
// runs on an injected clock), so the value only shapes the rendered
// numbers, never the run time.
const failoverTTL = 3 * time.Second

// failoverTick is the virtual lease-poll cadence after the primary dies:
// a tenth of the TTL, mirroring the daemon's heartbeatEvery fraction.
const failoverTick = failoverTTL / 10

// FailoverResult is the replicated-control-plane chaos experiment: a
// primary journals the restart experiment's task mix while shipping
// every WAL record to a warm standby over the real replication wire
// (snapshot bootstrap, append batches, lease heartbeats), then dies
// hard. The standby's lease expires in virtual time, it promotes —
// bumping the epoch durably, which fences the resumed stale primary —
// and re-admits the live tasks through boot recovery's exact path. The
// promoted plane's plans must be byte-identical to what the dead
// primary's own reboot would have computed.
type FailoverResult struct {
	Profile Profile
	// Before is the primary's task table at death; After is the promoted
	// standby's after its recovery reconcile.
	Before, After []RestartRow
	// WALSeq is the primary's last durable sequence; FollowerApplied is
	// the standby's applied sequence at that moment (equal = zero lag).
	WALSeq, FollowerApplied uint64
	// EpochBefore is the dead primary's leadership term, EpochAfter the
	// promoted standby's (must be exactly one higher).
	EpochBefore, EpochAfter uint64
	// PromoteMillis is the virtual time from the last heartbeat to the
	// promotion decision; LeaseTTLMillis the lease it was judged against.
	PromoteMillis, LeaseTTLMillis float64
	// StaleRejected reports that the resumed old primary's append at its
	// stale epoch was refused over the wire with the typed fencing error.
	StaleRejected bool
	// PlansIdentical reports that the promoted standby's scheduling plans
	// serialize byte-identically to a ghost plane rebooted from the dead
	// primary's own state directory.
	PlansIdentical bool
	// RecoveredLive is how many live tasks the replica handed promotion.
	RecoveredLive int
	// IdleID and EndedID name the parked and terminated tasks.
	IdleID, EndedID int
}

// vclock is the follower's injected time source.
type vclock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *vclock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *vclock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// RunFailover executes the kill/promote cycle against two throwaway
// state directories joined by an in-memory replication wire. Everything
// is synchronous and the lease runs on a virtual clock, so the timeline
// is deterministic and golden-checkable.
func RunFailover(ctx context.Context, p Profile) (*FailoverResult, error) {
	pdir, err := os.MkdirTemp("", "surfos-failover-p-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(pdir)
	sdir, err := os.MkdirTemp("", "surfos-failover-s-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sdir)

	out := &FailoverResult{Profile: p, LeaseTTLMillis: float64(failoverTTL / time.Millisecond)}

	// --- primary: journal + leadership epoch ---
	pl, err := newRestartPlane(p)
	if err != nil {
		return nil, err
	}
	defer pl.unsub()
	journal, err := store.OpenJournal(pdir)
	if err != nil {
		return nil, err
	}
	if _, err := journal.BecomeLeader("primary", failoverTTL); err != nil {
		return nil, err
	}

	// --- standby: warm replica journal on a virtual clock, lease armed ---
	fol, err := store.OpenFollower(sdir)
	if err != nil {
		return nil, err
	}
	defer fol.Close()
	vc := &vclock{t: time.Unix(1_700_000_000, 0)}
	fol.SetClock(vc.now)
	fol.StartLease(failoverTTL)

	// --- replication wire: the real framed protocol over an in-memory
	// pipe, served exactly as the daemon's control agent routes it ---
	srvConn, cliConn := net.Pipe()
	defer srvConn.Close()
	recv := &ctrlproto.ReplReceiver{F: fol}
	go func() {
		for {
			f, err := ctrlproto.ReadFrame(srvConn)
			if err != nil {
				return
			}
			if err := ctrlproto.WriteFrame(srvConn, recv.Handle(f)); err != nil {
				return
			}
		}
	}()
	sender := ctrlproto.NewReplSender(cliConn)
	defer sender.Close()

	var pmu sync.Mutex
	var pending []store.Record
	epoch, seq, snap, detach, err := journal.AttachReplica(func(rec store.Record) {
		pmu.Lock()
		pending = append(pending, rec)
		pmu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	defer detach()
	out.EpochBefore = epoch
	if _, err := sender.Snapshot(epoch, seq, snap); err != nil {
		return nil, err
	}
	ship := func() error {
		pmu.Lock()
		batch := pending
		pending = nil
		pmu.Unlock()
		if len(batch) == 0 {
			return nil
		}
		_, err := sender.Append(epoch, batch)
		return err
	}

	// --- workload: the restart experiment's mix (two running, one idled,
	// one ended), every record shipped as it is journaled ---
	if out.IdleID, out.EndedID, err = pl.runMix(ctx); err != nil {
		return nil, err
	}
	if err := pl.drainInto(journal); err != nil {
		return nil, err
	}
	if err := ship(); err != nil {
		return nil, err
	}
	if _, err := sender.Heartbeat(epoch, "primary", failoverTTL, journal.Seq()); err != nil {
		return nil, err
	}
	out.Before = pl.rows()
	out.WALSeq = journal.Seq()
	out.FollowerApplied = fol.Applied()

	// --- hard kill: the primary stops mid-flight; no snapshot, no
	// goodbye. The standby only notices through lease silence. ---
	if err := journal.Close(); err != nil {
		return nil, err
	}

	// --- lease countdown in virtual time ---
	ticks := 0
	for !fol.LeaseExpired() {
		vc.advance(failoverTick)
		if ticks++; ticks > 100 {
			return nil, fmt.Errorf("lease never expired after %d virtual ticks", ticks)
		}
	}
	out.PromoteMillis = float64(time.Duration(ticks) * failoverTick / time.Millisecond)

	newEpoch, err := fol.Promote("standby")
	if err != nil {
		return nil, err
	}
	out.EpochAfter = newEpoch

	// --- fencing: the old primary resumes and tries to ship its next
	// record at the dead epoch; the wire must refuse it with the typed
	// stale-epoch error ---
	_, staleErr := sender.Append(epoch, []store.Record{{Seq: out.WALSeq + 1, Kind: store.KindEpoch, Data: []byte(`{}`)}})
	out.StaleRejected = errors.Is(staleErr, store.ErrStaleEpoch)

	// --- promotion recovery: the exact boot path against the replica
	// journal, which journals on as the new primary's ---
	pl2, err := newRestartPlane(p)
	if err != nil {
		return nil, err
	}
	defer pl2.unsub()
	journal2 := fol.Journal()
	if out.RecoveredLive, err = pl2.recoverFrom(ctx, journal2.State()); err != nil {
		return nil, err
	}
	if err := pl2.drainInto(journal2); err != nil {
		return nil, err
	}
	if err := journal2.Snapshot(); err != nil {
		return nil, err
	}
	out.After = pl2.rows()

	// --- determinism: a ghost plane rebooted from the dead primary's own
	// directory must compute byte-identical plans ---
	pl3, err := newRestartPlane(p)
	if err != nil {
		return nil, err
	}
	defer pl3.unsub()
	st3, state3, err := store.Open(pdir)
	if err != nil {
		return nil, err
	}
	defer st3.Close()
	if _, err := pl3.recoverFrom(ctx, state3); err != nil {
		return nil, fmt.Errorf("ghost: %w", err)
	}
	promoted, err := json.Marshal(pl2.orch.Plans())
	if err != nil {
		return nil, err
	}
	ghost, err := json.Marshal(pl3.orch.Plans())
	if err != nil {
		return nil, err
	}
	out.PlansIdentical = bytes.Equal(promoted, ghost)
	return out, nil
}

// ShapeCheck verifies the failover claims: zero replication lag at
// death, promotion within one poll tick of the lease TTL, a durable
// epoch bump, the stale primary fenced, every live task re-admitted with
// its SNR restored, and plans byte-identical to a primary reboot.
// Returns "" when all hold.
func (r *FailoverResult) ShapeCheck() string {
	var probs []string
	if r.FollowerApplied != r.WALSeq {
		probs = append(probs, fmt.Sprintf("follower applied seq %d at kill, primary was at %d", r.FollowerApplied, r.WALSeq))
	}
	if r.PromoteMillis < r.LeaseTTLMillis {
		probs = append(probs, fmt.Sprintf("promoted %.0fms after last heartbeat, before the %.0fms lease expired", r.PromoteMillis, r.LeaseTTLMillis))
	}
	tick := float64(failoverTick / time.Millisecond)
	if r.PromoteMillis > r.LeaseTTLMillis+tick {
		probs = append(probs, fmt.Sprintf("promoted %.0fms after last heartbeat, want within %.0fms lease + %.0fms poll tick", r.PromoteMillis, r.LeaseTTLMillis, tick))
	}
	if r.EpochAfter != r.EpochBefore+1 {
		probs = append(probs, fmt.Sprintf("promotion moved epoch %d -> %d, want +1", r.EpochBefore, r.EpochAfter))
	}
	if !r.StaleRejected {
		probs = append(probs, "resumed stale primary's append was not rejected")
	}
	if !r.PlansIdentical {
		probs = append(probs, "promoted plans differ from the dead primary's reboot")
	}
	before := map[int]RestartRow{}
	liveBefore := 0
	for _, row := range r.Before {
		before[row.ID] = row
		if row.State != "done" && row.State != "failed" {
			liveBefore++
		}
	}
	if r.RecoveredLive != liveBefore {
		probs = append(probs, fmt.Sprintf("replica handed promotion %d live task(s), want %d", r.RecoveredLive, liveBefore))
	}
	after := map[int]RestartRow{}
	for _, row := range r.After {
		after[row.ID] = row
	}
	if _, ok := after[r.EndedID]; ok {
		probs = append(probs, fmt.Sprintf("ended task %d was resurrected", r.EndedID))
	}
	if row, ok := after[r.IdleID]; !ok {
		probs = append(probs, fmt.Sprintf("idled task %d was not restored", r.IdleID))
	} else if row.State != "idle" {
		probs = append(probs, fmt.Sprintf("idled task %d restored as %q, want idle", r.IdleID, row.State))
	}
	for id, b := range before {
		if id == r.EndedID || id == r.IdleID || b.State != "running" {
			continue
		}
		a, ok := after[id]
		if !ok {
			probs = append(probs, fmt.Sprintf("running task %d was lost in failover", id))
			continue
		}
		if a.State != "running" {
			probs = append(probs, fmt.Sprintf("task %d restored as %q, want running", id, a.State))
			continue
		}
		if d := a.Metric - b.Metric; d > 0.01 || d < -0.01 {
			probs = append(probs, fmt.Sprintf("task %d %s %.2f after failover, was %.2f", id, a.Name, a.Metric, b.Metric))
		}
	}
	return strings.Join(probs, "; ")
}

// Render prints the failover timeline and before/after tables.
func (r *FailoverResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Failover: a warm standby promotes and loses nothing (%s profile)\n\n", r.Profile)
	table := func(title string, rows []RestartRow) {
		fmt.Fprintf(&b, "%s\n", title)
		t := &Table{Header: []string{"task", "kind", "state", "metric", "surfaces"}}
		for _, row := range rows {
			metric := "-"
			if row.Name != "" {
				metric = fmt.Sprintf("%s=%.2f", row.Name, row.Metric)
			}
			t.Add(fmt.Sprintf("%d", row.ID), row.Kind, row.State, metric, strings.Join(row.Surfaces, "+"))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	table(fmt.Sprintf("primary at death (epoch %d, %d WAL record(s) shipped, follower applied %d):",
		r.EpochBefore, r.WALSeq, r.FollowerApplied), r.Before)
	fmt.Fprintf(&b, "hard kill; lease silent; standby promoted %.0fms after last heartbeat (ttl %.0fms) at epoch %d\n",
		r.PromoteMillis, r.LeaseTTLMillis, r.EpochAfter)
	if r.StaleRejected {
		fmt.Fprintf(&b, "resumed stale primary (epoch %d) fenced: append rejected with stale-epoch\n\n", r.EpochBefore)
	} else {
		b.WriteString("FENCING FAILED: stale primary's append was accepted\n\n")
	}
	table(fmt.Sprintf("promoted standby (%d live task(s) re-admitted):", r.RecoveredLive), r.After)
	if r.PlansIdentical {
		b.WriteString("plans: byte-identical to the dead primary's own reboot\n")
	} else {
		b.WriteString("PLANS DIVERGED from the dead primary's reboot\n")
	}
	if s := r.ShapeCheck(); s != "" {
		fmt.Fprintf(&b, "SHAPE CHECK FAILED: %s\n", s)
	} else {
		b.WriteString("shape check: zero lag at death, promotion within ttl+tick, epoch +1, stale primary fenced, SNR restored\n")
	}
	return b.String()
}
