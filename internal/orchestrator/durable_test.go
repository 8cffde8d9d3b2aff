package orchestrator

import (
	"context"
	"testing"

	"surfos/internal/driver"
	"surfos/internal/geom"
	"surfos/internal/scene"
	"surfos/internal/store"
	"surfos/internal/telemetry"
)

// journalBus journals everything published on bus into a fresh state
// directory. drain consumes what is buffered so far, synchronously, so a
// test decides exactly which events are durable before it snapshots or
// closes.
func journalBus(t *testing.T, bus *telemetry.EventBus) (dir string, j *store.Journal, drain func()) {
	t.Helper()
	dir = t.TempDir()
	j, err := store.OpenJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	ch, cancel := bus.Subscribe(store.JournalBuffer)
	t.Cleanup(cancel)
	drain = func() {
		t.Helper()
		for {
			select {
			case ev := <-ch:
				if err := j.Consume(ev); err != nil {
					t.Fatal(err)
				}
			default:
				return
			}
		}
	}
	return dir, j, drain
}

// recoverLive opens dir as a restarted daemon would and returns its live
// task records by ID.
func recoverLive(t *testing.T, dir string) map[int]*store.TaskRecord {
	t.Helper()
	st, state, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	live := map[int]*store.TaskRecord{}
	for _, tr := range state.Live() {
		live[tr.ID] = tr
	}
	return live
}

// TestDurableMoveSurvivesRecovery: a task moved within its domain and one
// handed off to another domain both recover at their new positions, not
// at the ones they were submitted with.
func TestDurableMoveSurvivesRecovery(t *testing.T) {
	r := newStripRig(t, 2, fastOpts())
	ctx := context.Background()
	bus := telemetry.NewEventBus()
	r.o.SetEventBus(bus)
	dir, j, drain := journalBus(t, bus)

	stay, err := r.o.EnhanceLink(ctx, roomLink(0, "stay"), 1)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := r.o.EnhanceLink(ctx, roomLink(0, "walk"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	within := scene.RoomCenter(0).Add(geom.V(1, 0.5, 0))
	across := scene.RoomCenter(1)
	if res, err := r.o.MoveTask(stay.ID, within); err != nil || res.HandedOff {
		t.Fatalf("within-domain move = %+v, %v", res, err)
	}
	if res, err := r.o.MoveTask(walk.ID, across); err != nil || !res.HandedOff {
		t.Fatalf("cross-domain move = %+v, %v", res, err)
	}
	// The re-plan a move verb runs before it replies.
	if err := r.o.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	drain()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	live := recoverLive(t, dir)
	r2 := newStripRig(t, 2, fastOpts())
	var specs []RestoreSpec
	for _, id := range []int{stay.ID, walk.ID} {
		tr, ok := live[id]
		if !ok {
			t.Fatalf("task %d not recovered live: %v", id, live)
		}
		specs = append(specs, RestoreSpec{ID: tr.ID, Spec: tr.Spec, LastState: tr.State})
	}
	if res := r2.o.Readmit(specs, 0, nil); len(res.Dropped) > 0 {
		t.Fatalf("dropped %v", res.Dropped)
	}
	for id, want := range map[int]geom.Vec3{stay.ID: within, walk.ID: across} {
		got, err := r2.o.Task(id)
		if err != nil {
			t.Fatal(err)
		}
		if pos := got.Goal.(LinkGoal).Pos; pos != want {
			t.Errorf("task %d recovered at %v, want the moved position %v", id, pos, want)
		}
	}
}

// TestDurableRequeueSurvivesSnapshot: a task starved by a dead panel is
// journaled failed and compacted away by a snapshot; when the panel
// recovers and the task is re-queued and runs again, recovery must find
// it live.
func TestDurableRequeueSurvivesSnapshot(t *testing.T) {
	r := newHealRig(t, fastOpts(), driver.ModelNRSurface)
	ctx := context.Background()
	dir, j, drain := journalBus(t, r.o.events)

	task, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: "a", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	r.fm.SetDead(true)
	r.hw.ProbeAll()
	if err := r.o.HandleDeviceEvent(ctx, nextEvent(t, r.events, telemetry.DeviceDead)); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.o.Task(task.ID); got.State != TaskFailed {
		t.Fatalf("starved task: %v (%v)", got.State, got.Err)
	}
	drain()
	if err := j.Snapshot(); err != nil {
		t.Fatal(err)
	}

	r.fm.SetDead(false)
	r.hw.ProbeAll()
	if err := r.o.HandleDeviceEvent(ctx, nextEvent(t, r.events, telemetry.DeviceRecovered)); err != nil {
		t.Fatal(err)
	}
	if got, _ := r.o.Task(task.ID); got.State != TaskRunning {
		t.Fatalf("re-queued task: %v (%v)", got.State, got.Err)
	}
	drain()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	live := recoverLive(t, dir)
	if len(live) != 1 || live[task.ID] == nil {
		t.Fatalf("recovered %d live task(s) %v, want task %d", len(live), live, task.ID)
	}
}
