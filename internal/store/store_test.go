package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"surfos/internal/telemetry"
)

// specJSON builds a minimal opaque task spec payload.
func specJSON(id int) json.RawMessage {
	return json.RawMessage(fmt.Sprintf(`{"id":%d,"kind":"link","priority":1,"goal":{}}`, id))
}

// appendAll writes a standard record mix: specs for tasks 1-3, transitions
// moving 1 to running, 2 to idle, 3 to done, and one device death.
func appendAll(t *testing.T, s *Store) {
	t.Helper()
	for id := 1; id <= 3; id++ {
		if _, err := s.Append(KindTaskSpec, TaskSpecRecord{TaskID: id, Spec: specJSON(id)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tr := range []TaskStateRecord{
		{TaskID: 1, State: "running"},
		{TaskID: 2, State: "idle"},
		{TaskID: 3, State: "done"},
	} {
		if _, err := s.Append(KindTaskState, tr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Append(KindDevice, DeviceRecord{DeviceID: "east", State: "device_dead", Err: "heartbeat lost"}); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Tasks) != 0 || s.Seq() != 0 {
		t.Fatalf("fresh dir not empty: %d tasks, seq %d", len(st.Tasks), s.Seq())
	}
	appendAll(t, s)
	if s.Seq() != 7 {
		t.Fatalf("seq = %d, want 7", s.Seq())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, st2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 7 {
		t.Errorf("recovered seq = %d, want 7", s2.Seq())
	}
	live := st2.Live()
	if len(live) != 2 || live[0].ID != 1 || live[1].ID != 2 {
		t.Fatalf("live = %+v, want tasks 1 and 2", live)
	}
	if live[0].State != "running" || live[1].State != "idle" {
		t.Errorf("live states = %s, %s", live[0].State, live[1].State)
	}
	if ended := st2.Tasks[3]; ended == nil || !ended.Ended() {
		t.Errorf("task 3 should be recovered as ended: %+v", ended)
	}
	devs := st2.DeviceHealth()
	if len(devs) != 1 || devs[0].DeviceID != "east" || devs[0].State != "device_dead" {
		t.Errorf("devices = %+v", devs)
	}
	// Appends continue the recovered sequence.
	seq, err := s2.Append(KindTaskState, TaskStateRecord{TaskID: 1, State: "idle"})
	if err != nil {
		t.Fatal(err)
	}
	if seq != 8 {
		t.Errorf("next seq = %d, want 8", seq)
	}
}

// TestMaxTaskIDSurvivesCompaction: the ID high-water mark outlives the
// ended tasks it came from, across snapshot + reopen, so a restarted
// allocator never reuses a compacted task's ID.
func TestMaxTaskIDSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s)
	// Compact away the ended task 3 and snapshot: task 3's record
	// disappears but its ID stays burned.
	s2, st2, err := reopen(t, s, dir)
	if err != nil {
		t.Fatal(err)
	}
	st2.Compact()
	if err := s2.Snapshot(st2); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	_, st3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st3.Tasks[3]; ok {
		t.Error("ended task 3 survived compaction")
	}
	if st3.MaxTaskID != 3 {
		t.Errorf("MaxTaskID = %d, want 3 after compaction", st3.MaxTaskID)
	}
}

// reopen closes s and reopens the dir.
func reopen(t *testing.T, s *Store, dir string) (*Store, *State, error) {
	t.Helper()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return Open(dir)
}

// TestTruncatedTailRecovers is the crash-mid-write case: a final line with
// no trailing newline is a crash artifact, recovery drops it silently and
// resumes from the last complete record.
func TestTruncatedTailRecovers(t *testing.T) {
	for _, tail := range []string{
		`{"seq":8,"kind":"task_state","da`,     // torn mid-JSON
		`{`,                                    // barely started
		`{"seq":8,"kind":"task_state","data":`, // torn before CRC
	} {
		dir := t.TempDir()
		s, _, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, s)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		wal := filepath.Join(dir, walName)
		f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(tail); err != nil {
			t.Fatal(err)
		}
		f.Close()

		s2, st2, err := Open(dir)
		if err != nil {
			t.Fatalf("tail %q: recovery failed: %v", tail, err)
		}
		if s2.Seq() != 7 {
			t.Errorf("tail %q: seq = %d, want 7", tail, s2.Seq())
		}
		if len(st2.Live()) != 2 {
			t.Errorf("tail %q: live = %d, want 2", tail, len(st2.Live()))
		}
		// The torn bytes must be gone: the next append starts at a line
		// boundary and a further recovery still succeeds.
		if _, err := s2.Append(KindTaskState, TaskStateRecord{TaskID: 1, State: "idle"}); err != nil {
			t.Fatal(err)
		}
		s2.Close()
		s3, st3, err := Open(dir)
		if err != nil {
			t.Fatalf("tail %q: second recovery failed: %v", tail, err)
		}
		if st3.Tasks[1].State != "idle" {
			t.Errorf("tail %q: post-truncation append lost", tail)
		}
		s3.Close()
	}
}

// TestCorruptMidFileRefused: a damaged *complete* record is not a crash
// artifact — it means the file was altered after being written. Recovery
// must refuse loudly, naming the offending sequence number.
func TestCorruptMidFileRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s)
	s.Close()

	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	// Flip task 2's spec payload inside record 2 (mid-file, still
	// newline-terminated): the CRC no longer matches.
	lines[1] = strings.Replace(lines[1], `"kind":"link"`, `"kind":"honk"`, 1)
	if err := os.WriteFile(wal, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt mid-file record: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "seq 2") {
		t.Errorf("error does not name the offending record: %v", err)
	}
}

// TestCorruptTerminatedTailRefused: damage on the *last* line is still
// corruption when the line is newline-terminated — only an unterminated
// tail is a legitimate crash artifact.
func TestCorruptTerminatedTailRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s)
	s.Close()
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("this is not a record\n"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("terminated garbage tail: err = %v, want ErrCorrupt", err)
	}
}

// TestSequenceGapRefused: a missing record (sequence break) is corruption,
// even though every surviving line checksums.
func TestSequenceGapRefused(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s)
	s.Close()
	wal := filepath.Join(dir, walName)
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	pruned := append(append([]string{}, lines[:3]...), lines[4:]...) // drop record 4
	if err := os.WriteFile(wal, []byte(strings.Join(pruned, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Open(dir)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("sequence gap: err = %v, want ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "seq 5") {
		t.Errorf("error does not name the out-of-sequence record: %v", err)
	}
}

// TestDuplicateTransitionsIdempotent: an at-least-once journal writer may
// duplicate a transition; replay must fold duplicates without changing the
// outcome.
func TestDuplicateTransitionsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append(KindTaskSpec, TaskSpecRecord{TaskID: 1, Spec: specJSON(1)}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // duplicated transition
		if _, err := s.Append(KindTaskState, TaskStateRecord{TaskID: 1, State: "running"}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicated spec record too (re-admission after recovery re-emits it).
	if _, err := s.Append(KindTaskSpec, TaskSpecRecord{TaskID: 1, Spec: specJSON(1)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	_, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := st.Live()
	if len(live) != 1 || live[0].ID != 1 || live[0].State != "running" {
		t.Fatalf("replay of duplicates: live = %+v", live)
	}
}

// TestSnapshotTailEqualsPureWAL: recovery from snapshot + WAL tail must
// land on exactly the state a pure record-by-record replay produces, and
// so must the state a journal keeps while it writes: its snapshot is the
// pure replay of its own WAL.
func TestSnapshotTailEqualsPureWAL(t *testing.T) {
	t.Run("store", func(t *testing.T) {
		dir := t.TempDir()
		s, st, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Keep every record for the pure-replay fold.
		var all []Record
		keep := func(kind string, data any) {
			t.Helper()
			raw, _ := json.Marshal(data)
			seq, err := s.Append(kind, data)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, Record{Seq: seq, Kind: kind, Data: raw})
		}
		keep(KindTaskSpec, TaskSpecRecord{TaskID: 1, Spec: specJSON(1)})
		keep(KindTaskSpec, TaskSpecRecord{TaskID: 2, Spec: specJSON(2)})
		keep(KindTaskState, TaskStateRecord{TaskID: 1, State: "running"})
		keep(KindTaskState, TaskStateRecord{TaskID: 2, State: "done"})

		// Snapshot mid-history (with compaction, as the journal does), then
		// keep appending.
		for _, r := range all {
			if err := st.Apply(r); err != nil {
				t.Fatal(err)
			}
		}
		st.Compact()
		if err := s.Snapshot(st); err != nil {
			t.Fatal(err)
		}
		keep(KindTaskSpec, TaskSpecRecord{TaskID: 3, Spec: specJSON(3)})
		keep(KindTaskState, TaskStateRecord{TaskID: 3, State: "idle"})
		keep(KindDevice, DeviceRecord{DeviceID: "north", State: "device_degraded"})
		s.Close()

		_, got, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		pure := NewState()
		for _, r := range all {
			if err := pure.Apply(r); err != nil {
				t.Fatal(err)
			}
		}
		pure.Compact() // the snapshot compacted; align the pure fold
		gotJSON, _ := json.Marshal(got.encode())
		pureJSON, _ := json.Marshal(pure.encode())
		if string(gotJSON) != string(pureJSON) {
			t.Errorf("snapshot+tail recovery diverges from pure replay:\n got %s\npure %s", gotJSON, pureJSON)
		}
	})
	t.Run("journal", func(t *testing.T) {
		dir := t.TempDir()
		j, err := OpenJournal(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		j.SetSnapshotEvery(0)
		if _, err := j.BecomeLeader("primary", time.Second); err != nil {
			t.Fatal(err)
		}
		moved := func(id int, at string) json.RawMessage {
			return json.RawMessage(fmt.Sprintf(`{"id":%d,"kind":"link","priority":1,"goal":{"pos":%q}}`, id, at))
		}
		for _, ev := range []telemetry.TaskEvent{
			event(1, telemetry.TaskSubmitted, specJSON(1)),
			event(1, telemetry.TaskScheduled, nil),
			event(1, telemetry.TaskRunning, nil),
			event(2, telemetry.TaskSubmitted, specJSON(2)),
			event(2, telemetry.TaskRunning, nil),
			// Moved within its domain: the re-plan's scheduled event
			// carries the new spec, and the task stays running.
			event(1, telemetry.TaskScheduled, moved(1, "b")),
			event(1, telemetry.TaskRunning, nil),
			// Handed off to another domain, then parked; a re-admission
			// (spec on a live id) keeps it parked.
			event(2, telemetry.TaskHandoff, moved(2, "c")),
			event(2, telemetry.TaskIdle, nil),
			event(2, telemetry.TaskSubmitted, moved(2, "c")),
			// Starved, then re-queued: the spec revives the failed task.
			event(3, telemetry.TaskSubmitted, specJSON(3)),
			event(3, telemetry.TaskFailed, nil),
			{State: telemetry.DeviceDead, DeviceID: "east", Err: "heartbeat lost"},
			event(3, telemetry.TaskResumed, specJSON(3)),
			event(3, telemetry.TaskRunning, nil),
			{State: telemetry.DeviceRecovered, DeviceID: "east"},
			event(4, telemetry.TaskSubmitted, specJSON(4)),
			event(4, telemetry.TaskDone, nil),
		} {
			if err := j.Consume(ev); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := j.BecomeLeader("primary", time.Second); err != nil {
			t.Fatal(err)
		}

		// The pure replay: a second directory holding only the WAL.
		pureDir := t.TempDir()
		walBytes, err := os.ReadFile(filepath.Join(dir, walName))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(pureDir, walName), walBytes, 0o644); err != nil {
			t.Fatal(err)
		}
		ps, pure, err := Open(pureDir)
		if err != nil {
			t.Fatal(err)
		}
		ps.Close()
		pure.Compact() // the snapshot compacts; align the pure fold

		if err := j.Snapshot(); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(filepath.Join(dir, snapshotName))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeSnapshot(bytes.TrimSpace(snap))
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, _ := json.Marshal(got.encode())
		pureJSON, _ := json.Marshal(pure.encode())
		if string(gotJSON) != string(pureJSON) {
			t.Errorf("journal snapshot diverges from the pure replay of its WAL:\n got %s\npure %s", gotJSON, pureJSON)
		}
		if live := got.Live(); len(live) != 3 || live[0].State != "running" || live[1].State != "idle" || live[2].State != "running" {
			t.Errorf("live = %+v, want 1 running, 2 idle, 3 running", live)
		}
	})
}

// TestSnapshotCrashBeforeTruncate: a crash between the snapshot rename and
// the WAL truncate leaves records the snapshot already covers; replay must
// skip them by sequence instead of reporting corruption. A WAL starting
// *beyond* the snapshot's reach, though, means lost records.
func TestSnapshotCrashBeforeTruncate(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s)
	// Capture the pre-snapshot WAL: these are the "covered" records.
	walBytes, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := readWAL(filepath.Join(dir, walName), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := st.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate the crash: put the covered records back into the WAL.
	if err := os.WriteFile(filepath.Join(dir, walName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, st2, err := Open(dir)
	if err != nil {
		t.Fatalf("covered WAL records after snapshot: %v", err)
	}
	if s2.Seq() != 7 {
		t.Errorf("seq = %d, want 7", s2.Seq())
	}
	if len(st2.Live()) != 2 {
		t.Errorf("live = %d, want 2", len(st2.Live()))
	}
	s2.Close()

	// Now a WAL whose first record is *beyond* snapSeq+1: lost records.
	lines := strings.Split(strings.TrimRight(string(walBytes), "\n"), "\n")
	if err := os.WriteFile(filepath.Join(dir, walName), []byte(lines[len(lines)-1]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Rewrite the snapshot to cover only through seq 3 so record 7 gaps it.
	s3, st3, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs[:3] {
		st3.Apply(r)
	}
	s3.seq = 3
	if err := s3.Snapshot(st3); err != nil {
		t.Fatal(err)
	}
	s3.Close()
	if err := os.Rename(filepath.Join(s3.dir, snapshotName), filepath.Join(dir, snapshotName)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gapped WAL start: err = %v, want ErrCorrupt", err)
	}
}

// TestCorruptSnapshotRefused: snapshots are written atomically, so any
// damage is corruption, never a crash artifact.
func TestCorruptSnapshotRefused(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, s)
	if err := s.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	s.Close()
	path := filepath.Join(dir, snapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(strings.Replace(string(data), `"seq":7`, `"seq":8`, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered snapshot: err = %v, want ErrCorrupt", err)
	}
}

// event builds a minimal task event for journal tests.
func event(id int, state string, spec json.RawMessage) telemetry.TaskEvent {
	return telemetry.TaskEvent{Time: time.Unix(0, int64(id)), TaskID: id, State: state, Spec: spec}
}

func TestJournalConsume(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(s, st)
	steps := []telemetry.TaskEvent{
		event(1, telemetry.TaskSubmitted, specJSON(1)),
		event(1, telemetry.TaskScheduled, nil),
		event(1, telemetry.TaskRunning, nil),
		event(2, telemetry.TaskSubmitted, specJSON(2)),
		event(2, telemetry.TaskFailed, nil),
		// Unpersistable submission (no spec): skipped entirely, as are its
		// later transitions.
		event(9, telemetry.TaskSubmitted, nil),
		event(9, telemetry.TaskRunning, nil),
		// Device health and the derived replanned marker.
		{State: telemetry.DeviceDead, DeviceID: "east", Err: "gone"},
		{State: telemetry.Replanned, DeviceID: "east"},
	}
	for _, ev := range steps {
		if err := j.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := got.Live()
	if len(live) != 1 || live[0].ID != 1 || live[0].State != telemetry.TaskRunning {
		t.Fatalf("live = %+v", live)
	}
	if tk := got.Tasks[2]; tk == nil || !tk.Ended() {
		t.Errorf("task 2 should be journaled as failed: %+v", tk)
	}
	if got.Tasks[9] != nil {
		t.Error("unpersistable task 9 journaled")
	}
	devs := got.DeviceHealth()
	if len(devs) != 1 || devs[0].State != telemetry.DeviceDead || devs[0].Err != "gone" {
		t.Errorf("devices = %+v", devs)
	}
}

// TestJournalAutoSnapshot: crossing the snapshot threshold compacts the
// WAL and drops ended tasks from the snapshot.
func TestJournalAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(s, st)
	j.SetSnapshotEvery(4)
	if err := j.Consume(event(1, telemetry.TaskSubmitted, specJSON(1))); err != nil {
		t.Fatal(err)
	}
	if err := j.Consume(event(1, telemetry.TaskDone, nil)); err != nil {
		t.Fatal(err)
	}
	if err := j.Consume(event(2, telemetry.TaskSubmitted, specJSON(2))); err != nil {
		t.Fatal(err)
	}
	if err := j.Consume(event(2, telemetry.TaskRunning, nil)); err != nil {
		t.Fatal(err)
	}
	// Threshold crossed: the WAL must be compacted down.
	fi, err := os.Stat(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != 0 {
		t.Errorf("WAL not compacted after auto-snapshot: %d bytes", fi.Size())
	}
	j.Close()

	s2, got, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Seq() != 4 {
		t.Errorf("seq = %d, want 4 (from snapshot)", s2.Seq())
	}
	if got.Tasks[1] != nil {
		t.Error("ended task 1 survived compaction")
	}
	live := got.Live()
	if len(live) != 1 || live[0].ID != 2 || live[0].State != telemetry.TaskRunning {
		t.Fatalf("live = %+v", live)
	}
}
