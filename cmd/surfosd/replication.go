// Control-plane replication (DESIGN.md §14): a primary daemon ships its
// durability journal to standby followers over the ctrlproto replication
// channel, heartbeats a lease, and a follower promotes itself — re-using
// boot recovery's exact re-admission path — when the lease expires.
//
//	primary:  surfosd -state-dir p/ -listen 127.0.0.1:7101 -replicate-to 127.0.0.1:7201 -lease-ttl 3s
//	standby:  surfosd -state-dir s/ -listen 127.0.0.1:7201 -follow -lease-ttl 3s
//
// Epoch fencing: the primary takes leadership by journaling a KindEpoch
// record; every shipped batch and heartbeat carries that epoch. A
// promoted follower bumps it, so an old primary that pauses and resumes
// gets StatusStaleEpoch on its next send and steps down to standby.
//
// The lease cuts both ways. A follower promotes after ttl of silence,
// so a primary that has not gotten a single follower ack within the
// same ttl can no longer know it is alone: leaseWatch steps it into
// standby (mutations rejected) before the follower's takeover, not
// after — renewal is timed from the request send, so the primary's
// deadline always lapses first. The step-down reverses only if a
// follower acks again without having promoted; a promoted follower's
// next contact fences this daemon permanently instead.
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"surfos/internal/ctrlproto"
	"surfos/internal/metrics"
	"surfos/internal/store"
	"surfos/internal/telemetry"
)

// defaultLeaseTTL is the leadership lease: a standby promotes itself this
// long after the primary's last heartbeat (or boot, whichever is later).
const defaultLeaseTTL = 3 * time.Second

// shipBatchMax bounds records per MsgReplAppend frame.
const shipBatchMax = 256

// splitList parses a comma-separated address list, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// heartbeatEvery derives the renewal cadence from the TTL: three beats
// per lease, so two may be lost before a false promotion.
func heartbeatEvery(ttl time.Duration) time.Duration {
	every := ttl / 3
	if every < 10*time.Millisecond {
		every = 10 * time.Millisecond
	}
	return every
}

// --- primary side: WAL shipping ---

// startReplication takes leadership (journaling the epoch record),
// starts one shipping loop per follower address, and arms the primary's
// own lease watch. Call after openState.
func (d *daemon) startReplication(addrs []string, ttl time.Duration) error {
	if d.journal == nil {
		return errors.New("-replicate-to requires -state-dir")
	}
	epoch, err := d.journal.BecomeLeader(d.holder, ttl)
	if err != nil {
		return err
	}
	log.Printf("replication: leading as %q at epoch %d (lease ttl %s, %d follower(s))",
		d.holder, epoch, ttl, len(addrs))
	// Arm the lease from boot, mirroring the follower's StartLease: a
	// follower that never acks is as gone as one that stops acking, and
	// this grace period is all the time the shippers get to reach one.
	d.lastRenew.Store(time.Now().UnixNano())
	for _, addr := range addrs {
		go d.shipTo(addr, ttl)
	}
	go d.leaseWatch(ttl)
	return nil
}

// shipTo maintains one follower's replication session, reconnecting with
// a short pause on any failure. A stale-epoch rejection is terminal: this
// daemon has been deposed, so it fences itself into standby instead of
// fighting the new primary.
func (d *daemon) shipTo(addr string, ttl time.Duration) {
	for d.ctx.Err() == nil {
		err := d.shipSession(addr, ttl)
		if err == nil {
			return // daemon shutting down
		}
		if errors.Is(err, store.ErrStaleEpoch) {
			d.fence(addr, err)
			return
		}
		log.Printf("replication: %s: %v (reconnecting)", addr, err)
		select {
		case <-d.ctx.Done():
			return
		case <-time.After(heartbeatEvery(ttl)):
		}
	}
}

// shipSession runs one connected session: attach to the journal (a
// consistent snapshot plus an observer for every later record, captured
// atomically under the journal lock), transfer the snapshot, then stream
// append batches and heartbeats until something breaks.
func (d *daemon) shipSession(addr string, ttl time.Duration) error {
	sender, err := ctrlproto.DialRepl(addr)
	if err != nil {
		return err
	}
	defer sender.Close()
	j := d.journal
	// The observer runs under the journal lock: hand off to a buffered
	// channel and never block. An overflow shows up as a sequence gap,
	// which tears the session down and resyncs via a fresh snapshot.
	recCh := make(chan store.Record, store.JournalBuffer)
	epoch, seq, snap, detach, err := j.AttachReplica(func(rec store.Record) {
		select {
		case recCh <- rec:
		default:
		}
	})
	if err != nil {
		return err
	}
	defer detach()
	sent := time.Now()
	ack, err := sender.Snapshot(epoch, seq, snap)
	if err != nil {
		return err
	}
	if err := d.ackRenew(addr, ack, epoch, sent); err != nil {
		return err
	}
	log.Printf("replication: %s attached at seq %d (epoch %d)", addr, seq, epoch)
	last := seq
	hb := time.NewTicker(heartbeatEvery(ttl))
	defer hb.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return nil
		case rec := <-recCh:
			batch := append(make([]store.Record, 0, shipBatchMax), rec)
		fill:
			for len(batch) < shipBatchMax {
				select {
				case r := <-recCh:
					batch = append(batch, r)
				default:
					break fill
				}
			}
			if batch[0].Seq > last+1 {
				return errors.New("shipper buffer overflowed; resyncing from snapshot")
			}
			sent := time.Now()
			ack, err := sender.Append(epoch, batch)
			if err != nil {
				return err
			}
			last = batch[len(batch)-1].Seq
			if err := d.ackRenew(addr, ack, epoch, sent); err != nil {
				return err
			}
		case <-hb.C:
			sent := time.Now()
			ack, err := sender.Heartbeat(epoch, d.holder, ttl, j.Seq())
			if err != nil {
				return err
			}
			if err := d.ackRenew(addr, ack, epoch, sent); err != nil {
				return err
			}
		}
	}
}

// ackRenew folds one follower ack into the primary's books: the acked
// sequence (lag accounting) and the lease renewal, timed from the
// request's send so the primary's view of its lease is strictly more
// conservative than the follower's. An ack reporting a higher epoch is
// the fencing signal the status code alone cannot carry — a standby
// promoted past this daemon — so it surfaces as ErrStaleEpoch.
func (d *daemon) ackRenew(addr string, ack ctrlproto.ReplAckMsg, epoch uint64, sent time.Time) error {
	if ack.Epoch > epoch {
		return fmt.Errorf("follower acked at epoch %d, ours is %d: %w", ack.Epoch, epoch, store.ErrStaleEpoch)
	}
	d.setAcked(addr, ack.Applied)
	d.renewedAt(sent)
	return nil
}

// renewedAt advances the last-successful-renewal clock to the given
// send time. Monotonic: concurrent sessions only ever move it forward.
func (d *daemon) renewedAt(sent time.Time) {
	ns := sent.UnixNano()
	for {
		cur := d.lastRenew.Load()
		if cur >= ns || d.lastRenew.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// leaseWatch enforces the lease on the primary itself: once no follower
// has acked within the ttl, some follower's lease may already have
// lapsed — and promotion needs no permission from a primary it cannot
// reach — so this daemon must stop accepting mutations rather than run
// split-brained through a partition. The step-down is provisional: a
// follower that acks again without having promoted (it renewed in time)
// restores leadership; contact with a promoted follower instead fences
// this daemon for good (shipTo calls fence, which is sticky).
func (d *daemon) leaseWatch(ttl time.Duration) {
	tick := time.NewTicker(heartbeatEvery(ttl))
	defer tick.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-tick.C:
			if d.fenced.Load() {
				return // fence() already holds the daemon in standby
			}
			if time.Since(time.Unix(0, d.lastRenew.Load())) > ttl {
				if !d.standby.Swap(true) {
					log.Printf("replication: lease LOST: no follower ack within %s; suspending mutations (a standby may be promoting)", ttl)
				}
				continue
			}
			if d.standby.Load() && !d.fenced.Load() {
				d.standby.Store(false)
				if d.fenced.Load() {
					// fence() raced the resume between the two checks:
					// it has precedence, so re-assert standby and stop.
					d.standby.Store(true)
					return
				}
				log.Printf("replication: lease renewed by a follower that never promoted; resuming leadership")
			}
		}
	}
}

// fence steps a deposed primary down: mutations are rejected with
// StatusNotLeader from here on, so clients rotate to the new primary.
// Journaling continues locally (reads stay warm) but nothing ships.
func (d *daemon) fence(addr string, err error) {
	if d.fenced.Swap(true) {
		return
	}
	d.standby.Store(true)
	log.Printf("replication: FENCED by %s (%v): a standby promoted past this epoch; entering standby, mutations rejected", addr, err)
}

func (d *daemon) setAcked(addr string, applied uint64) {
	d.replMu.Lock()
	d.replAcked[addr] = applied
	d.replMu.Unlock()
}

// minAcked returns the slowest follower's acked sequence (0 if none).
func (d *daemon) minAcked() uint64 {
	d.replMu.Lock()
	defer d.replMu.Unlock()
	var min uint64
	first := true
	for _, v := range d.replAcked {
		if first || v < min {
			min, first = v, false
		}
	}
	return min
}

// --- follower side: warm replay and promotion ---

// openFollower opens the standby's replica journal — the daemon's journal
// from boot on — arms the lease, and routes incoming MsgRepl* frames to
// it. The daemon rejects mutations until promotion; reads answer from its
// own (empty) task table, since the replica only feeds the orchestrator
// when a promotion re-admits it.
func (d *daemon) openFollower(dir string, ttl time.Duration) error {
	fol, err := store.OpenFollower(dir)
	if err != nil {
		return err
	}
	d.follower = fol
	d.journal = fol.Journal()
	d.followDir = dir
	d.standby.Store(true)
	d.ctrl.Repl = &ctrlproto.ReplReceiver{F: fol, Logf: log.Printf}
	// Arm the lease from boot: a primary that never connects is as dead
	// as one that stops heartbeating.
	fol.StartLease(ttl)
	go d.followLoop(ttl)
	log.Printf("replication: following at epoch %d, applied seq %d (lease ttl %s)",
		fol.Epoch(), fol.Applied(), ttl)
	return nil
}

// followLoop watches the lease and promotes when it expires. A failed
// promotion attempt is retried on later ticks rather than abandoning the
// loop — otherwise one transient journal error would leave the pair with
// a permanent standby and no primary. ErrLeaseLive is not a failure: the
// primary renewed between the expiry observation and the epoch bump, so
// the daemon simply keeps following.
func (d *daemon) followLoop(ttl time.Duration) {
	tick := time.NewTicker(heartbeatEvery(ttl))
	defer tick.Stop()
	for {
		select {
		case <-d.ctx.Done():
			return
		case <-tick.C:
			if !d.follower.LeaseExpired() {
				continue
			}
			switch err := d.promote(); {
			case err == nil:
				return
			case errors.Is(err, store.ErrLeaseLive):
				// Lost the race to a heartbeat; still a follower.
			default:
				log.Printf("replication: promote: %v (retrying)", err)
			}
		}
	}
}

// promote is the takeover: durably bump the epoch (fencing the old
// primary), then run the exact boot-recovery sequence — rehydrate health,
// re-admit live tasks, reconcile, snapshot — against the replica journal,
// and start accepting mutations. Recovery is deterministic, so the plans
// this daemon computes are byte-identical to what the dead primary's own
// reboot would have produced.
//
// Once the epoch record is durable every replication message is fenced,
// so the journal takes no more shipped records while attachState
// subscribes it. attachState's only failure mode is the initial snapshot
// not persisting; that leaves the daemon exactly as durable as a primary
// whose disk died mid-flight — journal_failed is raised and it serves
// anyway — so it does not block the takeover.
func (d *daemon) promote() error {
	holder := d.holder
	if holder == "" {
		holder = "standby"
	}
	deadHolder := d.follower.Holder() // before Promote overwrites it
	epoch, err := d.follower.Promote(holder)
	if err != nil {
		return err
	}
	log.Printf("replication: lease expired (last holder %q); promoting to epoch %d (applied seq %d, lag %d)",
		deadHolder, epoch, d.follower.Applied(), d.follower.Lag())
	if err := d.attachState(d.followDir); err != nil {
		log.Printf("replication: promote: attach state: %v (serving anyway; durability degraded)", err)
	}
	d.standby.Store(false)
	d.promotions.Add(1)
	d.events.Publish(telemetry.TaskEvent{
		Time: time.Now(), State: telemetry.Promoted, Metric: float64(epoch), MetricName: "epoch",
	})
	log.Printf("replication: promoted; serving as primary at epoch %d", epoch)
	return nil
}

// --- metrics: one role-aware family set, valid before and after the
// daemon's role flips (fencing, promotion) ---

func (d *daemon) registerReplMetrics(reg *metrics.Registry) {
	if d.follower == nil && !d.replicating {
		return
	}
	reg.GaugeFunc("surfos_repl_epoch", "Current leadership term seen by this daemon.",
		func() float64 {
			if d.follower != nil {
				return float64(d.follower.Epoch())
			}
			return float64(d.journal.Epoch())
		})
	reg.GaugeFunc("surfos_repl_lag_records", "Replication lag in records: behind the primary (follower) or the slowest follower's deficit (primary).",
		func() float64 {
			if d.follower != nil && !d.follower.Promoted() {
				return float64(d.follower.Lag())
			}
			if acked := d.minAcked(); acked > 0 && d.journal.Seq() > acked {
				return float64(d.journal.Seq() - acked)
			}
			return 0
		})
	reg.GaugeFunc("surfos_repl_lease_age_seconds", "Seconds since the last lease renewal (follower: received; primary: acked by a follower; -1: none yet).",
		func() float64 {
			if d.follower != nil && !d.follower.Promoted() {
				age := d.follower.LeaseAge()
				if age < 0 {
					return -1
				}
				return age.Seconds()
			}
			if ns := d.lastRenew.Load(); ns > 0 {
				return time.Since(time.Unix(0, ns)).Seconds()
			}
			return -1
		})
	reg.CounterFunc("surfos_repl_promotions_total", "Standby-to-primary promotions performed by this daemon.",
		func() float64 { return float64(d.promotions.Load()) })
	reg.GaugeFunc("surfos_repl_standby", "1 while this daemon rejects mutations (follower before promotion, fenced ex-primary).",
		func() float64 {
			if d.standby.Load() {
				return 1
			}
			return 0
		})
}
