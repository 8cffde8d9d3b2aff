package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"surfos/internal/telemetry"
)

// replHistory is the crash test's scripted control-plane history, reused
// so the replicated stream is exercised against the same event shapes.
func replHistory() []telemetry.TaskEvent {
	return []telemetry.TaskEvent{
		event(1, telemetry.TaskSubmitted, specJSON(1)),
		event(1, telemetry.TaskScheduled, nil),
		event(1, telemetry.TaskRunning, nil),
		event(2, telemetry.TaskSubmitted, specJSON(2)),
		{State: telemetry.DeviceDegraded, DeviceID: "east", Err: "3 stuck elements"},
		event(2, telemetry.TaskRunning, nil),
		event(3, telemetry.TaskSubmitted, specJSON(3)),
		event(3, telemetry.TaskFailed, nil),
		event(1, telemetry.TaskIdle, nil),
		{State: telemetry.DeviceDead, DeviceID: "east", Err: "heartbeat lost"},
		event(4, telemetry.TaskSubmitted, specJSON(4)),
		event(4, telemetry.TaskRunning, nil),
		event(2, telemetry.TaskDone, nil),
		event(1, telemetry.TaskResumed, nil),
		event(1, telemetry.TaskRunning, nil),
		{State: telemetry.DeviceRecovered, DeviceID: "east"},
		event(4, telemetry.TaskDone, nil),
	}
}

// masterWAL journals the scripted history (under a leadership epoch, as
// a replicating primary would) and returns the WAL bytes and decoded
// records.
func masterWAL(t *testing.T) ([]byte, []Record) {
	t.Helper()
	master := t.TempDir()
	s, st, err := Open(master)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(s, st)
	j.SetSnapshotEvery(0)
	if _, err := j.BecomeLeader("primary", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, ev := range replHistory() {
		if err := j.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(master, walName))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(walBytes, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	recs := make([]Record, len(lines))
	for i, ln := range lines {
		if err := json.Unmarshal(bytes.TrimSuffix(ln, []byte("\n")), &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return walBytes, recs
}

// TestFollowerCrashReplayAtEveryBoundary is the crash matrix run against
// the replicated stream: a follower's WAL is truncated at every record
// boundary (a follower crash after that many replicated records reached
// disk, plus a torn half-record variant for a crash mid-replay), the
// follower reopens, and the primary resumes shipping its full stream.
// Records at or below the follower's recovered sequence must be skipped
// idempotently, the rest applied — and because records replicate
// verbatim, the recovered follower's WAL must end up byte-identical to
// the primary's.
func TestFollowerCrashReplayAtEveryBoundary(t *testing.T) {
	walBytes, recs := masterWAL(t)
	lines := bytes.SplitAfter(walBytes, []byte("\n"))
	if len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	// The full-history fold is what every recovery must converge to.
	want := NewState()
	for _, r := range recs {
		if err := want.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	wantLive := want.Live()

	for boundary := 0; boundary <= len(lines); boundary++ {
		for _, tear := range []string{"", "torn"} {
			name := fmt.Sprintf("boundary=%d", boundary)
			if tear != "" {
				name += "+" + tear
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				prefix := bytes.Join(lines[:boundary], nil)
				if tear == "torn" {
					next := []byte(`{"seq":99999,"kind":"task_state","da`)
					if boundary < len(lines) {
						next = bytes.TrimSuffix(lines[boundary][:len(lines[boundary])/2], []byte("\n"))
					}
					prefix = append(append([]byte{}, prefix...), next...)
				}
				if err := os.WriteFile(filepath.Join(dir, walName), prefix, 0o644); err != nil {
					t.Fatal(err)
				}

				fol, err := OpenFollower(dir)
				if err != nil {
					t.Fatalf("follower recovery at boundary %d (%s): %v", boundary, tear, err)
				}
				defer fol.Close()
				fol.Journal().SetSnapshotEvery(0)
				if got, want := fol.Applied(), uint64(boundary); got != want {
					t.Errorf("recovered applied = %d, want %d", got, want)
				}

				// The primary resumes its stream from the top; everything the
				// follower already has must be skipped, the rest applied.
				applied, err := fol.AppendBatch(1, recs)
				if err != nil {
					t.Fatalf("resume replay: %v", err)
				}
				if want := uint64(len(recs)); applied != want {
					t.Errorf("applied = %d, want %d", applied, want)
				}

				gotLive := fol.Journal().State().Live()
				if len(gotLive) != len(wantLive) {
					t.Fatalf("replayed %d live task(s), want %d", len(gotLive), len(wantLive))
				}
				for i := range wantLive {
					if gotLive[i].ID != wantLive[i].ID || gotLive[i].State != wantLive[i].State {
						t.Errorf("live[%d] = %d/%s, want %d/%s",
							i, gotLive[i].ID, gotLive[i].State, wantLive[i].ID, wantLive[i].State)
					}
				}
				if got := fol.Epoch(); got != 1 {
					t.Errorf("follower epoch = %d, want 1 (adopted from the replicated epoch record)", got)
				}

				// Verbatim replication: the follower's recovered-and-resumed
				// WAL is byte-identical to the primary's.
				folBytes, err := os.ReadFile(filepath.Join(dir, walName))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(folBytes, walBytes) {
					t.Errorf("follower WAL diverged from primary's after boundary %d (%s):\nfollower %d byte(s), primary %d byte(s)",
						boundary, tear, len(folBytes), len(walBytes))
				}
			})
		}
	}
}

// TestStaleEpochFencingRejectsResumedPrimary pins the fencing invariant:
// after a follower promotes past a primary's epoch, every message the
// resumed stale primary sends — appends and heartbeats — is rejected
// with ErrStaleEpoch, while its journal leads on as the new primary's.
func TestStaleEpochFencingRejectsResumedPrimary(t *testing.T) {
	_, recs := masterWAL(t)
	dir := t.TempDir()
	fol, err := OpenFollower(dir)
	if err != nil {
		t.Fatal(err)
	}
	fol.Journal().SetSnapshotEvery(0)
	if _, err := fol.AppendBatch(1, recs); err != nil {
		t.Fatal(err)
	}

	// The primary pauses; the follower promotes, bumping the epoch durably.
	epoch, err := fol.Promote("standby")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}
	if !fol.Promoted() {
		t.Error("follower does not report promoted")
	}

	// The stale primary resumes and tries to keep shipping at epoch 1.
	next := Record{Seq: fol.Applied() + 1, Kind: KindDevice, Data: []byte(`{"device_id":"x","state":"device_recovered"}`)}
	next.CRC = checksum(next.Seq, next.Kind, next.Data)
	if _, err := fol.AppendBatch(1, []Record{next}); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("stale append err = %v, want ErrStaleEpoch", err)
	}
	if err := fol.Heartbeat(1, "primary", time.Second, 99); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("stale heartbeat err = %v, want ErrStaleEpoch", err)
	}
	if err := fol.InstallSnapshot(1, nil); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("stale snapshot err = %v, want ErrStaleEpoch", err)
	}

	// The promoted follower's journal leads at the new term. Traffic at
	// or below that term is still a deposed primary and must hear the
	// fencing signal; only a genuinely newer term gets ErrReleased (the
	// follower cannot apply it, but the sender is not stale).
	state := fol.Journal().State()
	if state.Epoch != 2 {
		t.Errorf("handed-off state epoch = %d, want 2", state.Epoch)
	}
	if _, err := fol.AppendBatch(epoch, []Record{next}); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("post-handoff equal-epoch append err = %v, want ErrStaleEpoch", err)
	}
	if _, err := fol.AppendBatch(epoch+1, []Record{next}); !errors.Is(err, ErrReleased) {
		t.Errorf("post-handoff newer-epoch append err = %v, want ErrReleased", err)
	}

	// The promotion epoch record is durable: a reopen of the directory
	// recovers epoch 2, so even a follower restart cannot regress the term.
	if err := fol.Close(); err != nil {
		t.Fatal(err)
	}
	_, reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Epoch != 2 {
		t.Errorf("reopened epoch = %d, want 2", reopened.Epoch)
	}
}

// TestStaleEpochTieFencesRebootedPrimary pins the epoch-tie corner of the
// fence: a primary that dies at epoch N and reboots recovers N from its
// own journal and mints N+1 with BecomeLeader — the very term the
// promoted follower took over at. Both daemons now claim epoch N+1, and
// the epoch alone cannot arbitrate; the promoted side must still fence
// the doppelgänger (epoch <= its own term is stale once it leads), both
// before and after Handoff, or the pair runs two leaders forever.
func TestStaleEpochTieFencesRebootedPrimary(t *testing.T) {
	// Primary at epoch 1 journals the scripted history in its own dir.
	pdir := t.TempDir()
	s, st0, err := Open(pdir)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(s, st0)
	j.SetSnapshotEvery(0)
	if _, err := j.BecomeLeader("primary", 3*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, ev := range replHistory() {
		if err := j.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	walBytes, err := os.ReadFile(filepath.Join(pdir, walName))
	if err != nil {
		t.Fatal(err)
	}

	// The follower has replicated everything; the primary dies; the
	// follower promotes to epoch 2.
	fdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(fdir, walName), walBytes, 0o644); err != nil {
		t.Fatal(err)
	}
	fol, err := OpenFollower(fdir)
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Journal().SetSnapshotEvery(0)
	epoch, err := fol.Promote("standby")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("promoted epoch = %d, want 2", epoch)
	}

	// The dead primary reboots: recovery reads epoch 1 from its journal,
	// BecomeLeader mints 2 — a tie with the promoted follower's term.
	s2, st2, err := Open(pdir)
	if err != nil {
		t.Fatal(err)
	}
	j2 := NewJournal(s2, st2)
	j2.SetSnapshotEvery(0)
	rebootEpoch, err := j2.BecomeLeader("primary", 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if rebootEpoch != epoch {
		t.Fatalf("reboot epoch = %d, want the tie at %d", rebootEpoch, epoch)
	}

	// Everything the rebooted primary ships at the tied epoch is fenced.
	next := Record{Seq: fol.Applied() + 1, Kind: KindDevice, Data: []byte(`{"device_id":"x","state":"device_recovered"}`)}
	next.CRC = checksum(next.Seq, next.Kind, next.Data)
	if _, err := fol.AppendBatch(rebootEpoch, []Record{next}); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("tied-epoch append err = %v, want ErrStaleEpoch", err)
	}
	if err := fol.Heartbeat(rebootEpoch, "primary", time.Second, 99); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("tied-epoch heartbeat err = %v, want ErrStaleEpoch", err)
	}
	if err := fol.InstallSnapshot(rebootEpoch, nil); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("tied-epoch snapshot err = %v, want ErrStaleEpoch", err)
	}

	// The fence survives the promoted journal journaling on its own.
	if err := fol.Journal().Consume(event(5, telemetry.TaskSubmitted, specJSON(5))); err != nil {
		t.Fatal(err)
	}
	if _, err := fol.AppendBatch(rebootEpoch, []Record{next}); !errors.Is(err, ErrStaleEpoch) {
		t.Errorf("post-handoff tied-epoch append err = %v, want ErrStaleEpoch", err)
	}
}

// TestPromoteAbortsWhenLeaseRenewed pins the promotion race: a heartbeat
// that lands between the lease-expiry observation and the epoch bump
// aborts the takeover with ErrLeaseLive — the epoch bump and the renewal
// serialize on the follower's lock, so two live leaders cannot both come
// out of that window.
func TestPromoteAbortsWhenLeaseRenewed(t *testing.T) {
	fol, err := OpenFollower(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	now := time.Unix(1_700_000_000, 0)
	fol.SetClock(func() time.Time { return now })

	ttl := 3 * time.Second
	fol.StartLease(ttl)
	now = now.Add(ttl + time.Second)
	if !fol.LeaseExpired() {
		t.Fatal("lease did not expire")
	}

	// The primary's heartbeat races in just before the epoch bump.
	if err := fol.Heartbeat(1, "primary", ttl, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := fol.Promote("standby"); !errors.Is(err, ErrLeaseLive) {
		t.Fatalf("promote after renewal err = %v, want ErrLeaseLive", err)
	}
	if fol.Promoted() {
		t.Fatal("aborted promotion still marked the follower promoted")
	}

	// Silence past the TTL re-expires the lease; promotion then commits.
	now = now.Add(ttl + time.Second)
	if !fol.LeaseExpired() {
		t.Fatal("lease did not re-expire")
	}
	if epoch, err := fol.Promote("standby"); err != nil {
		t.Fatal(err)
	} else if epoch != 2 {
		t.Errorf("promoted epoch = %d, want 2", epoch)
	}
}

// TestReplicationSnapshotAttachAndGap covers the attach bootstrap and the
// stream-integrity errors: a snapshot captured under the journal lock
// installs wholesale and positions the follower at the primary's
// sequence; a shipped record that skips ahead is rejected as a sequence
// gap; a corrupted record is rejected by its CRC before touching disk.
func TestReplicationSnapshotAttachAndGap(t *testing.T) {
	pdir := t.TempDir()
	s, st, err := Open(pdir)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJournal(s, st)
	j.SetSnapshotEvery(0)
	if _, err := j.BecomeLeader("primary", time.Second); err != nil {
		t.Fatal(err)
	}
	history := replHistory()
	for _, ev := range history[:8] {
		if err := j.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}

	var streamed []Record
	epoch, seq, snap, detach, err := j.AttachReplica(func(rec Record) { streamed = append(streamed, rec) })
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	if epoch != 1 {
		t.Errorf("attach epoch = %d, want 1", epoch)
	}
	if seq != j.Seq() {
		t.Errorf("attach seq = %d, want %d", seq, j.Seq())
	}

	fol, err := OpenFollower(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	fol.Journal().SetSnapshotEvery(0)
	if err := fol.InstallSnapshot(epoch, snap); err != nil {
		t.Fatal(err)
	}
	if fol.Applied() != seq {
		t.Errorf("applied after snapshot = %d, want %d", fol.Applied(), seq)
	}

	// Records journaled after the attach reach the observer and replay.
	for _, ev := range history[8:] {
		if err := j.Consume(ev); err != nil {
			t.Fatal(err)
		}
	}
	if len(streamed) != len(history)-8 {
		t.Fatalf("observer saw %d record(s), want %d", len(streamed), len(history)-8)
	}
	if _, err := fol.AppendBatch(epoch, streamed); err != nil {
		t.Fatal(err)
	}
	if fol.Applied() != j.Seq() {
		t.Errorf("applied = %d, want %d", fol.Applied(), j.Seq())
	}
	if fol.Lag() != 0 {
		t.Errorf("lag = %d, want 0", fol.Lag())
	}

	// A record that skips ahead means the shipper lost data: reject it so
	// the session resyncs from a snapshot instead of silently diverging.
	gap := Record{Seq: fol.Applied() + 2, Kind: KindDevice, Data: []byte(`{}`)}
	gap.CRC = checksum(gap.Seq, gap.Kind, gap.Data)
	if _, err := fol.AppendBatch(epoch, []Record{gap}); !errors.Is(err, ErrSeqGap) {
		t.Errorf("gap append err = %v, want ErrSeqGap", err)
	}

	// A record damaged in flight fails its CRC re-check.
	bad := Record{Seq: fol.Applied() + 1, Kind: KindDevice, Data: []byte(`{}`), CRC: 0xdeadbeef}
	if _, err := fol.AppendBatch(epoch, []Record{bad}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("corrupt append err = %v, want ErrCorrupt", err)
	}
}

// TestFollowerLeaseExpiryAndPromotionIdempotence drives the lease on a
// virtual clock: traffic renews it, silence expires it, promotion is
// idempotent, and an unarmed lease never expires.
func TestFollowerLeaseExpiryAndPromotionIdempotence(t *testing.T) {
	fol, err := OpenFollower(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	now := time.Unix(1_700_000_000, 0)
	fol.SetClock(func() time.Time { return now })

	// Unarmed: silence forever, still no promotion trigger.
	now = now.Add(time.Hour)
	if fol.LeaseExpired() {
		t.Fatal("unarmed lease reported expired")
	}

	ttl := 3 * time.Second
	fol.StartLease(ttl)
	if fol.LeaseExpired() {
		t.Fatal("fresh lease reported expired")
	}
	if err := fol.Heartbeat(1, "primary", ttl, 0); err != nil {
		t.Fatal(err)
	}
	if age := fol.LeaseAge(); age != 0 {
		t.Errorf("lease age right after heartbeat = %v, want 0", age)
	}

	// Traffic within the TTL keeps renewing.
	now = now.Add(2 * time.Second)
	if fol.LeaseExpired() {
		t.Fatal("lease expired before ttl")
	}
	if err := fol.Heartbeat(1, "primary", ttl, 0); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second)
	if fol.LeaseExpired() {
		t.Fatal("renewed lease expired early")
	}

	// Silence past the TTL expires it.
	now = now.Add(ttl)
	if !fol.LeaseExpired() {
		t.Fatal("silent lease did not expire")
	}

	epoch, err := fol.Promote("standby")
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Errorf("promoted epoch = %d, want 2 (one past the heartbeat's term)", epoch)
	}
	// Promotion is idempotent: a second call reports the same epoch.
	again, err := fol.Promote("standby")
	if err != nil {
		t.Fatal(err)
	}
	if again != epoch {
		t.Errorf("re-promotion epoch = %d, want %d", again, epoch)
	}
	if fol.LeaseExpired() {
		t.Error("promoted follower still reports lease expiry")
	}
}
