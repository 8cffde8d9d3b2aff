package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"surfos/internal/telemetry"
)

// setSync replaces the store's fsync for the rest of the test.
func setSync(t testing.TB, sync func(*os.File) error) {
	t.Helper()
	prev := syncFile
	syncFile = sync
	t.Cleanup(func() { syncFile = prev })
}

// TestJournalGroupCommitsBurst: a burst published faster than the disk
// syncs is journaled whole — nothing dropped, every live task and spec
// recovered — in far fewer fsyncs than records.
func TestJournalGroupCommitsBurst(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var syncs atomic.Int64
	setSync(t, func(f *os.File) error {
		syncs.Add(1)
		time.Sleep(2 * time.Millisecond)
		return f.Sync()
	})
	bus := telemetry.NewEventBus()
	ch, unsub := bus.SubscribeOpts(telemetry.SubOptions[telemetry.TaskEvent]{Name: "journal", Buffer: JournalBuffer})
	done := make(chan struct{})
	go func() {
		defer close(done)
		j.Run(context.Background(), ch)
	}()
	const tasks = 1000
	for id := 1; id <= tasks; id++ {
		bus.Publish(event(id, telemetry.TaskSubmitted, specJSON(id)))
		bus.Publish(event(id, telemetry.TaskRunning, nil))
	}
	unsub() // Run drains what is buffered, then returns
	<-done

	if d := bus.Dropped(); d != 0 {
		t.Fatalf("bus dropped %d event(s)", d)
	}
	records := j.Seq()
	if records != 2*tasks {
		t.Fatalf("journal seq %d, want %d", records, 2*tasks)
	}
	if n := syncs.Load(); n > int64(records/4) {
		t.Errorf("%d fsyncs for %d records: not group-committed", n, records)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live := st.Live()
	if len(live) != tasks {
		t.Fatalf("recovered %d live task(s), want %d", len(live), tasks)
	}
	for i, tr := range live {
		if tr.ID != i+1 || tr.State != telemetry.TaskRunning || !bytes.Equal(tr.Spec, specJSON(tr.ID)) {
			t.Fatalf("recovered task %+v", tr)
		}
	}
}

// TestBatchConsumeMatchesSerial: the same history consumed one event at a
// time and in batches of assorted sizes — several crossing the snapshot
// cadence — leaves byte-identical WAL and snapshot files and ships the
// same records in the same order.
func TestBatchConsumeMatchesSerial(t *testing.T) {
	var history []telemetry.TaskEvent
	for range 3 {
		history = append(history, replHistory()...)
	}
	run := func(sizes []int) (wal, snap []byte, shipped []Record) {
		dir := t.TempDir()
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		j.SetSnapshotEvery(4)
		if _, _, _, _, err := j.AttachReplica(func(r Record) { shipped = append(shipped, r) }); err != nil {
			t.Fatal(err)
		}
		if _, err := j.BecomeLeader("primary", 3*time.Second); err != nil {
			t.Fatal(err)
		}
		for evs, k := history, 0; len(evs) > 0; k++ {
			n := min(sizes[k%len(sizes)], len(evs))
			if err := j.Consume(evs[:n]...); err != nil {
				t.Fatal(err)
			}
			evs = evs[n:]
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if wal, err = os.ReadFile(filepath.Join(dir, walName)); err != nil {
			t.Fatal(err)
		}
		if snap, err = os.ReadFile(filepath.Join(dir, snapshotName)); err != nil {
			t.Fatal(err)
		}
		return wal, snap, shipped
	}
	wal1, snap1, shipped1 := run([]int{1})
	if len(shipped1) != 1+len(history) {
		t.Fatalf("serial run shipped %d records, want %d", len(shipped1), 1+len(history))
	}
	for _, sizes := range [][]int{{3, 5, 2, 7}, {len(history)}, {9, 1}} {
		wal, snap, shipped := run(sizes)
		if !bytes.Equal(wal, wal1) {
			t.Errorf("batches %v: WAL differs from serial\n got %q\nwant %q", sizes, wal, wal1)
		}
		if !bytes.Equal(snap, snap1) {
			t.Errorf("batches %v: snapshot differs from serial\n got %s\nwant %s", sizes, snap, snap1)
		}
		if !reflect.DeepEqual(shipped, shipped1) {
			t.Errorf("batches %v: observers saw %d records, serial %d, or a different order", sizes, len(shipped), len(shipped1))
		}
	}
}

// TestJournalFailedSyncShipsNothing: a batch whose fsync fails is
// reported, ships none of its records, and fails the journal for good
// with exactly one journal_failed event.
func TestJournalFailedSyncShipsNothing(t *testing.T) {
	j, err := OpenJournal(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bus := telemetry.NewEventBus()
	watch, unsub := bus.Subscribe(16)
	defer unsub()
	j.SetEventBus(bus)
	var shipped []Record
	if _, _, _, _, err := j.AttachReplica(func(r Record) { shipped = append(shipped, r) }); err != nil {
		t.Fatal(err)
	}
	if err := j.Consume(event(1, telemetry.TaskSubmitted, specJSON(1))); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	setSync(t, func(*os.File) error { return boom })
	err = j.Consume(
		event(1, telemetry.TaskRunning, nil),
		event(2, telemetry.TaskSubmitted, specJSON(2)),
		event(2, telemetry.TaskRunning, nil),
	)
	if !errors.Is(err, boom) {
		t.Fatalf("consume over a failing fsync: err = %v", err)
	}
	if len(shipped) != 1 {
		t.Errorf("observers saw %d records, want only the 1 synced before the failure", len(shipped))
	}
	if !errors.Is(j.Err(), boom) {
		t.Errorf("Err() = %v, want the sync error", j.Err())
	}
	if err := j.Consume(event(3, telemetry.TaskSubmitted, specJSON(3))); !errors.Is(err, boom) {
		t.Errorf("consume after failure: err = %v, want the sticky sync error", err)
	}
	if j.Syncs() != 1 {
		t.Errorf("syncs = %d, want 1", j.Syncs())
	}
	failed := 0
	for len(watch) > 0 {
		if ev := <-watch; ev.State == telemetry.JournalFailed {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("%d journal_failed event(s), want 1", failed)
	}
	j.Close()
}

// TestRunWritesDrainedBatchOnCancel: cancelling Run mid-batch does not
// abandon the events it already took — each one is in the WAL when Run
// returns, so the journal's sequence plus the channels' backlog counts
// every event exactly. Each round cancels during a commit and publishes
// more events; whether Run then takes them or sees the cancel first is
// the select's coin flip, so the rounds cover both.
func TestRunWritesDrainedBatchOnCancel(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	var onSync func()
	setSync(t, func(f *os.File) error {
		if onSync != nil {
			onSync()
			onSync = nil
		}
		return f.Sync()
	})
	const rounds, queued, late = 8, 10, 5
	published, left := 0, 0 // events published; events left in earlier rounds' channels
	publish := func(ch chan telemetry.TaskEvent) {
		published++
		ch <- event(published, telemetry.TaskSubmitted, specJSON(published))
	}
	for round := range rounds {
		ch := make(chan telemetry.TaskEvent, 64)
		for range queued {
			publish(ch)
		}
		ctx, cancel := context.WithCancel(context.Background())
		onSync = func() {
			cancel()
			for range late {
				publish(ch)
			}
		}
		j.Run(ctx, ch)
		left += len(ch)
		if got := int(j.Seq()) + left; got != published {
			t.Fatalf("round %d: seq %d + backlog %d = %d, want all %d events accounted for", round, j.Seq(), left, got, published)
		}
	}
	seq := j.Seq()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Seq() != seq || len(st.Live()) != int(seq) {
		t.Errorf("reopened at seq %d with %d live task(s), want %d", s.Seq(), len(st.Live()), seq)
	}
}

// TestShippedBatchSyncsOnce: a follower commits a shipped batch with one
// fsync before acking it, and a batch broken by a gap still commits the
// records before the gap, so the ack it returns is on disk.
func TestShippedBatchSyncsOnce(t *testing.T) {
	_, recs := masterWAL(t)
	dir := t.TempDir()
	fol, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	fol.Journal().SetSnapshotEvery(0)
	var syncs atomic.Int64
	setSync(t, func(f *os.File) error {
		syncs.Add(1)
		return f.Sync()
	})
	const epoch = 1
	ack, err := fol.AppendBatch(epoch, recs[:10])
	if err != nil {
		t.Fatal(err)
	}
	if ack != recs[9].Seq || syncs.Load() != 1 {
		t.Errorf("10-record batch: ack %d after %d fsync(s), want ack %d after 1", ack, syncs.Load(), recs[9].Seq)
	}
	// Re-sends only: nothing to commit.
	if _, err := fol.AppendBatch(epoch, recs[:10]); err != nil {
		t.Fatal(err)
	}
	if syncs.Load() != 1 {
		t.Errorf("a batch of re-sends cost %d fsync(s)", syncs.Load()-1)
	}
	gapped := append(append([]Record{}, recs[10:13]...), recs[15])
	ack, err = fol.AppendBatch(epoch, gapped)
	if !errors.Is(err, ErrSeqGap) {
		t.Fatalf("gapped batch: err = %v, want ErrSeqGap", err)
	}
	if ack != recs[12].Seq || syncs.Load() != 2 {
		t.Errorf("gapped batch: ack %d after %d fsync(s), want ack %d after 2", ack, syncs.Load(), recs[12].Seq)
	}
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Seq() != recs[12].Seq {
		t.Errorf("reopened follower at seq %d, want the acked %d", s.Seq(), recs[12].Seq)
	}
}

// BenchmarkJournalConsume measures the journal's cost per record on disk,
// one event per Consume (one fsync each) against batches of 32 (one fsync
// per batch): the store line of a strip-churn op's CPU.
func BenchmarkJournalConsume(b *testing.B) {
	for _, size := range []int{1, 32} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			j, err := OpenJournal(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer j.Close()
			const tasks = 64
			for id := 1; id <= tasks; id++ {
				if err := j.Consume(event(id, telemetry.TaskSubmitted, specJSON(id))); err != nil {
					b.Fatal(err)
				}
			}
			states := [2]string{telemetry.TaskIdle, telemetry.TaskRunning}
			batch := make([]telemetry.TaskEvent, size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k := range batch {
					n := i*size + k
					batch[k] = event(1+n%tasks, states[n/tasks%2], nil)
				}
				if err := j.Consume(batch...); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer() // the deferred Close's fsync is not a record's
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*size), "ns/record")
		})
	}
}
