package store

import (
	"context"
	"sync"
	"time"

	"surfos/internal/telemetry"
)

// DefaultSnapshotEvery is how many WAL records accumulate before the
// journal takes an automatic snapshot and compacts the log.
const DefaultSnapshotEvery = 256

// Journal is the one writer of a state directory. On a primary it turns
// the control plane's task-event stream into durable WAL records; on a
// standby it replays the records and snapshots a primary ships (Follower
// drives it). Either way every record reaches its State through the same
// fold replay uses, so the state is current and a snapshot can be cut at
// any moment. All methods are safe for concurrent use.
//
// Writes are group-committed. Run hands Consume every event queued when
// it wakes, and a follower replays a shipped batch; either way the
// journal writes the batch's records, folds each before mapping the next
// event, and fsyncs once. Only then does it hand the records to the
// replication observers, so nothing unsynced is ever acknowledged or
// shipped.
//
// The journal consumes the same drop-on-full telemetry bus every other
// subscriber uses. Durability therefore depends on the subscription
// buffer outrunning reconcile bursts — subscribe with JournalBuffer,
// sized far beyond any burst the reconcile loop can produce. A drop is
// detectable (telemetry.EventBus.Dropped) and surfaced in the daemon's
// shutdown log.
type Journal struct {
	mu    sync.Mutex
	st    *Store
	state *State
	// snapshotEvery compacts after this many records (<=0: never).
	snapshotEvery int
	sinceSnap     int
	err           error // first write error; journaling stops after it
	// logf reports the first write error from Run (nil: discard). Set it
	// before starting Run.
	logf func(format string, args ...any)
	// bus, when set, receives a one-shot JournalFailed event on the first
	// write error so a dying disk is visible on /metrics and watch
	// streams, not only in the health command.
	bus      *telemetry.EventBus
	busFired bool
	// obs are replication observers: each record is handed to every
	// observer under j.mu, in append order, once its batch is synced and
	// before Consume returns.
	obs     map[int]func(Record)
	obsNext int
	// syncs counts the group commits: fsyncs that made records durable.
	syncs uint64
}

// JournalBuffer is the recommended bus subscription buffer for a journal
// consumer: large enough to absorb a full reconcile burst over every task
// without dropping, small enough to be free.
const JournalBuffer = 4096

// NewJournal wraps an open store and its recovered state; the journal
// owns both from here on.
func NewJournal(st *Store, state *State) *Journal {
	if state == nil {
		state = NewState()
	}
	return &Journal{st: st, state: state, snapshotEvery: DefaultSnapshotEvery}
}

// OpenJournal opens (or creates) a state directory and recovers it into a
// journal (see Open).
func OpenJournal(dir string) (*Journal, error) {
	st, state, err := Open(dir)
	if err != nil {
		return nil, err
	}
	return NewJournal(st, state), nil
}

// State returns a copy of the journal's current state: the live tasks a
// boot or a promotion re-admits. The journal's own state never leaves it.
func (j *Journal) State() *State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return decodeState(j.state.encode())
}

// SetSnapshotEvery overrides the automatic compaction cadence (<=0
// disables automatic snapshots).
func (j *Journal) SetSnapshotEvery(n int) {
	j.mu.Lock()
	j.snapshotEvery = n
	j.mu.Unlock()
}

// SetLogf installs the logger Run uses to announce the first write error
// (default: discard). Set it before starting Run.
func (j *Journal) SetLogf(f func(format string, args ...any)) {
	j.mu.Lock()
	j.logf = f
	j.mu.Unlock()
}

// SetEventBus installs the telemetry bus on which the journal announces
// its first write error as a JournalFailed event. Set it before starting
// Run. Publishing is non-blocking (drop-on-full), so firing from the
// journal's own consume path cannot deadlock its subscription.
func (j *Journal) SetEventBus(b *telemetry.EventBus) {
	j.mu.Lock()
	j.bus = b
	j.mu.Unlock()
}

// Err returns the first write error, if journaling has failed.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Seq reports the store's last appended record sequence. The journal is
// the store's single writer, so reading under its lock is exact.
func (j *Journal) Seq() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Seq()
}

// SinceSnapshot reports how many records have been appended since the
// last snapshot — the compaction backlog.
func (j *Journal) SinceSnapshot() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.sinceSnap
}

// Syncs reports how many group commits have made records durable; the
// sequence over it is the records written per fsync.
func (j *Journal) Syncs() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// Consume journals a batch of task/device lifecycle events, each as
// exactly one WAL record or none when it carries nothing durable, and
// makes them durable with one fsync. A batch that crosses the snapshot
// cadence is committed up to the crossing record, snapshotted, and
// continued, so snapshots fall on the same sequence numbers whatever the
// batching. A write error is sticky and fails the rest of the batch.
func (j *Journal) Consume(evs ...telemetry.TaskEvent) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if err := j.consumeLocked(evs); err != nil {
		j.failLocked(err)
		return err
	}
	return nil
}

// consumeLocked is Consume's body. Caller holds j.mu.
func (j *Journal) consumeLocked(evs []telemetry.TaskEvent) error {
	var batch []Record
	for _, ev := range evs {
		p := j.recordFor(ev)
		if p == nil {
			continue
		}
		rec, err := j.writeLocked(p)
		if err != nil {
			return err
		}
		batch = append(batch, rec)
		if j.snapshotEvery > 0 && j.sinceSnap >= j.snapshotEvery {
			if err := j.commitLocked(batch); err != nil {
				return err
			}
			batch = batch[:0]
			if err := j.compactLocked(); err != nil {
				return err
			}
		}
	}
	return j.commitLocked(batch)
}

// recordFor maps an event to its record: device transitions to a device
// record; a task event that carries the spec (a submission, a re-target,
// a re-queue) to a spec record; any other event of a journaled task to a
// state record. Replanned markers (derived: recovery re-plans anyway) and
// events of tasks whose spec was never journaled (no goal codec; a
// transition alone cannot restore them) map to nil. Caller holds j.mu.
func (j *Journal) recordFor(ev telemetry.TaskEvent) payload {
	switch ev.State {
	case telemetry.DeviceDegraded, telemetry.DeviceDead, telemetry.DeviceRecovered:
		return DeviceRecord{DeviceID: ev.DeviceID, State: ev.State, Err: ev.Err}
	case telemetry.Replanned:
		return nil
	}
	switch {
	case ev.TaskID <= 0:
		return nil
	case len(ev.Spec) > 0:
		return TaskSpecRecord{TaskID: ev.TaskID, Spec: ev.Spec}
	case j.state.Tasks[ev.TaskID] == nil:
		return nil
	}
	return TaskStateRecord{TaskID: ev.TaskID, State: ev.State, UnixNanos: ev.Time.UnixNano()}
}

// writeLocked writes one record to the WAL's buffer and folds it into the
// state (see foldLocked); commitLocked makes it durable. Caller holds j.mu.
func (j *Journal) writeLocked(p payload) (Record, error) {
	rec, err := j.st.stage(p.kind(), p)
	if err != nil {
		return Record{}, err
	}
	j.foldLocked(p)
	return rec, nil
}

// foldLocked folds a record written to the WAL into the state and counts
// it toward compaction. It runs before the next record is mapped, which
// may read the state the fold produced. Caller holds j.mu.
func (j *Journal) foldLocked(p payload) {
	j.state.fold(p)
	j.sinceSnap++
}

// commitLocked makes the written records durable with one fsync, then
// hands each to every replication observer, in order. An empty batch
// costs nothing. Caller holds j.mu.
func (j *Journal) commitLocked(batch []Record) error {
	if len(batch) == 0 {
		return nil
	}
	if err := j.st.Sync(); err != nil {
		return err
	}
	j.syncs++
	for _, rec := range batch {
		for _, obs := range j.obs {
			obs(rec)
		}
	}
	return nil
}

// replay writes records a primary shipped verbatim and commits them with
// one fsync — the follower side of WAL shipping, which keeps the
// follower's WAL a byte prefix of the primary's. Records at or below the
// journal's sequence are re-sends and are skipped; a gap is ErrSeqGap and
// a damaged record ErrCorrupt, and the records before it are still
// committed, so the sequence the follower acks is on disk. No error here
// is sticky: a gap or a damaged record tells the shipper to resync from a
// snapshot, and a replica that failed to compact must stay promotable.
func (j *Journal) replay(recs []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	var batch []Record
	var err error
	for _, rec := range recs {
		if rec.Seq <= j.st.Seq() {
			continue
		}
		var p payload
		if p, err = decodeRecord(rec); err != nil {
			break
		}
		if err = j.st.AppendRecord(rec); err != nil {
			break
		}
		j.foldLocked(p)
		batch = append(batch, rec)
	}
	if cerr := j.commitLocked(batch); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if j.snapshotEvery > 0 && j.sinceSnap >= j.snapshotEvery {
		return j.compactLocked()
	}
	return nil
}

// install replaces the journal's state with a snapshot a primary shipped —
// the follower's bootstrap and resync path — and returns the epoch the
// snapshot records.
func (j *Journal) install(data []byte) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	state, seq, err := DecodeSnapshot(data)
	if err != nil {
		return 0, err
	}
	if err := j.st.writeSnapshot(data, seq); err != nil {
		return 0, err
	}
	j.state, j.sinceSnap = state, 0
	return state.Epoch, nil
}

// failLocked records the sticky error and fires the one-shot
// JournalFailed bus event. Caller holds j.mu.
func (j *Journal) failLocked(err error) {
	if j.err == nil {
		j.err = err
	}
	if j.bus != nil && !j.busFired {
		j.busFired = true
		j.bus.Publish(telemetry.TaskEvent{
			Time:  time.Now(),
			State: telemetry.JournalFailed,
			Err:   err.Error(),
		})
	}
}

// Run consumes a bus subscription until ctx is cancelled or the channel
// closes. Each time it wakes it takes one event plus every event already
// queued behind it and consumes them as one batch — one fsync however
// deep the backlog. Cancellation is checked only between batches, so
// every event Run has taken off the channel is journaled before it
// returns. Run it in its own goroutine; errors are sticky and visible via
// Err, and the first one is announced through SetLogf's logger so the
// operator learns of durability loss while the daemon is still running,
// not at the final shutdown snapshot.
func (j *Journal) Run(ctx context.Context, ch <-chan telemetry.TaskEvent) {
	reported := false
	var batch []telemetry.TaskEvent
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			// Run is the channel's only reader, so the len(ch) events
			// queued now are there to take without blocking (a closed
			// channel still yields its buffered events).
			batch = append(batch[:0], ev)
			for n := len(ch); n > 0; n-- {
				batch = append(batch, <-ch)
			}
			if err := j.Consume(batch...); err != nil && !reported {
				reported = true
				j.mu.Lock()
				logf := j.logf
				j.mu.Unlock()
				if logf != nil {
					logf("state: journaling failed, new tasks are NOT durable: %v", err)
				}
			}
		}
	}
}

// Snapshot compacts ended tasks out of the state and atomically persists
// it, resetting the WAL.
func (j *Journal) Snapshot() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Journal) snapshotLocked() error {
	if err := j.compactLocked(); err != nil {
		j.failLocked(err)
		return err
	}
	return nil
}

// compactLocked drops ended tasks and persists the state, resetting the
// WAL. Caller holds j.mu.
func (j *Journal) compactLocked() error {
	j.state.Compact()
	if err := j.st.Snapshot(j.state); err != nil {
		return err
	}
	j.sinceSnap = 0
	return nil
}

// BecomeLeader durably starts a new leadership term: it journals a
// KindEpoch record at the recovered epoch + 1 and returns the new epoch.
// Every replicated append carries this epoch; a standby that later
// promotes bumps it again, fencing this journal's writes.
func (j *Journal) BecomeLeader(holder string, ttl time.Duration) (uint64, error) {
	return j.lead(0, holder, ttl)
}

// lead is BecomeLeader past floor as well: a follower has seen terms on
// the wire that its journal may not record yet, and must lead above them.
func (j *Journal) lead(floor uint64, holder string, ttl time.Duration) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return 0, j.err
	}
	p := EpochRecord{Epoch: max(j.state.Epoch, floor) + 1, Holder: holder, TTLNanos: ttl.Nanoseconds()}
	rec, err := j.writeLocked(p)
	if err == nil {
		err = j.commitLocked([]Record{rec})
	}
	if err != nil {
		j.failLocked(err)
		return 0, err
	}
	return p.Epoch, nil
}

// Epoch reports the journal's current leadership term (0: never led).
func (j *Journal) Epoch() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state.Epoch
}

// AttachReplica atomically captures a replication starting point and
// registers an observer for every subsequent record: because the
// journal's State mirror is always current, the snapshot taken under the
// lock covers exactly the records before the first one the observer sees
// — no tail transfer, no gap, no duplicate. The observer runs under the
// journal lock on the consume path, so it must not block (hand off to a
// buffered channel). The returned detach func unregisters it.
func (j *Journal) AttachReplica(obs func(Record)) (epoch, seq uint64, snapshot []byte, detach func(), err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	snap, err := EncodeSnapshot(j.st.Seq(), j.state)
	if err != nil {
		return 0, 0, nil, nil, err
	}
	if j.obs == nil {
		j.obs = map[int]func(Record){}
	}
	id := j.obsNext
	j.obsNext++
	j.obs[id] = obs
	detach = func() {
		j.mu.Lock()
		delete(j.obs, id)
		j.mu.Unlock()
	}
	return j.state.Epoch, j.st.Seq(), snap, detach, nil
}

// WALSize reports the bytes of acknowledged WAL records on disk.
func (j *Journal) WALSize() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.WALSize()
}

// SnapshotAge reports the time since the last snapshot was persisted, or
// -1 if no snapshot exists yet.
func (j *Journal) SnapshotAge() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	t := j.st.SnapshotTime()
	if t.IsZero() {
		return -1
	}
	return time.Since(t)
}

// Close flushes, fsyncs and closes the store. The journal is unusable
// afterwards.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.st.Close()
}
