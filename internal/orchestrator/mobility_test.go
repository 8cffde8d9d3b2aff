package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/scene"
	"surfos/internal/telemetry"
)

// screenQuad is a drywall screen standing in the middle of room i — a
// churn edit confined to one interference domain.
func screenQuad(room int, off float64) *geom.Quad {
	x := float64(room)*scene.RoomW + 1.5 + off
	return geom.RectXY(geom.V(x, 1.5, 0), geom.V(0, 1, 0), geom.V(0, 0, 1), 2, 2.2)
}

func TestMoveTaskWithinDomain(t *testing.T) {
	r := newStripRig(t, 2, fastOpts())
	ctx := context.Background()

	task, err := r.o.EnhanceLink(ctx, roomLink(0, "ue"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}

	dest := scene.RoomCenter(0).Add(geom.V(1, 0.5, 0))
	res, err := r.o.MoveTask(task.ID, dest)
	if err != nil {
		t.Fatal(err)
	}
	if res.HandedOff || res.From != 0 || res.To != 0 {
		t.Fatalf("within-domain move = %+v, want from=to=0 no handoff", res)
	}
	got, err := r.o.Task(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != TaskRunning {
		t.Fatalf("state after within-domain move = %v, want running (plan stays live)", got.State)
	}
	if g := got.Goal.(LinkGoal); g.Pos != dest {
		t.Fatalf("goal pos = %v, want %v", g.Pos, dest)
	}
}

func TestMoveTaskHandsOffAcrossDomains(t *testing.T) {
	r := newStripRig(t, 2, fastOpts())
	ctx := context.Background()

	bus := telemetry.NewEventBus()
	events, cancel := bus.Subscribe(64)
	defer cancel()
	r.o.SetEventBus(bus)

	task, err := r.o.EnhanceLink(ctx, roomLink(0, "walker"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}

	res, err := r.o.MoveTask(task.ID, scene.RoomCenter(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.HandedOff || res.From != 0 || res.To != 1 {
		t.Fatalf("cross-domain move = %+v, want handoff 0→1", res)
	}
	got, err := r.o.Task(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != TaskPending || got.Domain != 1 {
		t.Fatalf("after handoff state=%v domain=%d, want pending in domain 1", got.State, got.Domain)
	}
	// The old shard's plan entries are gone before the next re-plan.
	for _, p := range r.o.Plans() {
		for _, e := range p.Entries {
			for _, id := range e.TaskIDs {
				if id == task.ID {
					t.Fatalf("handed-off task %d still holds plan entry %q", id, e.Label)
				}
			}
		}
	}
	// The new domain schedules it back to running — the task survived.
	if err := r.o.ReconcileDomain(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if got, _ = r.o.Task(task.ID); got.State != TaskRunning || got.Domain != 1 {
		t.Fatalf("after re-plan state=%v domain=%d, want running in domain 1", got.State, got.Domain)
	}

	cancel()
	want := []string{
		telemetry.TaskSubmitted,
		telemetry.TaskScheduled, telemetry.TaskRunning,
		telemetry.TaskHandoff,
		telemetry.TaskScheduled, telemetry.TaskRunning,
	}
	var trail []string
	for ev := range events {
		if ev.TaskID == task.ID {
			trail = append(trail, ev.State)
		}
	}
	if len(trail) != len(want) {
		t.Fatalf("trail = %v, want %v", trail, want)
	}
	for i := range want {
		if trail[i] != want[i] {
			t.Fatalf("trail = %v, want %v", trail, want)
		}
	}
}

func TestMoveTaskRejections(t *testing.T) {
	r := newStripRig(t, 2, fastOpts())
	ctx := context.Background()

	if _, err := r.o.MoveTask(9999, scene.RoomCenter(0)); !errors.Is(err, ErrUnknownTask) {
		t.Fatalf("unknown task: %v, want ErrUnknownTask", err)
	}

	// A coverage goal has no point target to relocate.
	cov, err := r.o.Submit(ctx, ServiceCoverage, CoverageGoal{Region: "room_0", MedianSNRdB: 5, FreqHz: 24e9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.o.MoveTask(cov.ID, scene.RoomCenter(1)); !errors.Is(err, ErrNotMovable) {
		t.Fatalf("coverage goal: %v, want ErrNotMovable", err)
	}

	// Terminal tasks are not movable.
	task, err := r.o.EnhanceLink(ctx, roomLink(0, "ue"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.EndTask(task.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := r.o.MoveTask(task.ID, scene.RoomCenter(1)); !errors.Is(err, ErrNotMovable) {
		t.Fatalf("ended task: %v, want ErrNotMovable", err)
	}
}

// TestWallThrashKeepsUntouchedDomainsHot is the partition-cache-thrash
// pin: rapid wall toggling in one room, with live tasks everywhere, must
// neither migrate tasks in untouched domains nor evict their ray traces
// (they carry to each new revision instead of re-tracing).
func TestWallThrashKeepsUntouchedDomainsHot(t *testing.T) {
	eng := engine.New(engine.Options{})
	opts := Options{OptIters: 6, GridStep: 2.0, SensingGridStep: 2.5, SensingBins: 9, SensingSubcarriers: 2, Engine: eng}
	r := newStripRig(t, 3, opts)
	ctx := context.Background()

	bus := telemetry.NewEventBus()
	events, cancel := bus.Subscribe(2048)
	defer cancel()
	r.o.SetEventBus(bus)

	anchors := make([]*Task, 3)
	for i := range anchors {
		task, err := r.o.EnhanceLink(ctx, roomLink(i, fmt.Sprintf("anchor%d", i)), 2)
		if err != nil {
			t.Fatal(err)
		}
		anchors[i] = task
	}
	if err := r.o.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}

	// Deterministic phase: one screen toggle in room 1, then re-plan every
	// domain. Only room 1 re-traces; rooms 0 and 2 carry their contexts to
	// the new scene revision.
	base := eng.CacheStats()
	if err := r.o.EditScene(func(s *scene.Scene) error {
		s.AddWall("screen_1", screenQuad(1, 0), em.Drywall)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for d := 0; d < 3; d++ {
		if err := r.o.ReconcileDomain(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.CacheStats()
	if miss := st.TxMisses - base.TxMisses; miss != 1 {
		t.Fatalf("room-1 edit caused %d re-traces, want 1 (room 1 only); stats %+v base %+v", miss, st, base)
	}
	if carried := st.TxCarried - base.TxCarried; carried != 2 {
		t.Fatalf("rooms 0/2 carried %d traces, want 2; stats %+v base %+v", carried, st, base)
	}

	// Thrash phase under the race detector: wall toggles + room-1
	// re-plans vs. task churn in the untouched rooms vs. a walker handing
	// off between rooms 0 and 1.
	walker, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: "walker", Pos: scene.RoomCenter(0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	const toggles = 12
	preRace := eng.CacheStats()
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // room-1 churn: move the screen back and forth
		defer wg.Done()
		for i := 0; i < toggles; i++ {
			if err := r.o.EditScene(func(s *scene.Scene) error {
				return s.MoveWall("screen_1", screenQuad(1, float64(i%4)*0.3))
			}); err != nil {
				t.Errorf("toggle %d: %v", i, err)
				return
			}
			if err := r.o.ReconcileDomain(ctx, 1); err != nil {
				t.Errorf("reconcile %d: %v", i, err)
				return
			}
		}
	}()
	go func() { // task churn confined to the untouched rooms
		defer wg.Done()
		for i := 0; i < 10; i++ {
			room := 2 * (i % 2) // rooms 0 and 2
			task, err := r.o.EnhanceLink(ctx, roomLink(room, fmt.Sprintf("churn%d", i)), 1)
			if err != nil {
				t.Errorf("churn submit: %v", err)
				return
			}
			if err := r.o.ReconcileDomain(ctx, room); err != nil {
				t.Errorf("churn reconcile: %v", err)
				return
			}
			if err := r.o.EndTask(task.ID); err != nil {
				t.Errorf("churn end: %v", err)
				return
			}
		}
	}()
	go func() { // walker bouncing across the 0/1 domain boundary
		defer wg.Done()
		for i := 1; i <= 6; i++ {
			if _, err := r.o.MoveTask(walker.ID, scene.RoomCenter(i%2)); err != nil {
				t.Errorf("walk %d: %v", i, err)
				return
			}
			if err := r.o.ReconcileTask(ctx, walker.ID); err != nil {
				t.Errorf("walker reconcile: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	if err := r.o.Reconcile(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	// Untouched-domain traces stayed hot: every new revision can cost at
	// most one re-trace (room 1's own), never rooms 0/2's.
	post := eng.CacheStats()
	if miss := post.TxMisses - preRace.TxMisses; miss > toggles+1 {
		t.Fatalf("thrash caused %d re-traces for %d toggles — untouched domains re-traced; %+v", miss, toggles, post)
	}
	if post.TxCarried <= preRace.TxCarried {
		t.Fatalf("no traces carried during thrash: %+v (pre %+v)", post, preRace)
	}

	// Zero loss, zero spurious migration.
	handoffs := 0
	for ev := range events {
		switch ev.State {
		case telemetry.TaskMigrated:
			if ev.TaskID == anchors[0].ID || ev.TaskID == anchors[2].ID {
				t.Fatalf("untouched-domain anchor %d migrated", ev.TaskID)
			}
		case telemetry.TaskHandoff:
			handoffs++
		case telemetry.TaskFailed:
			t.Fatalf("task %d failed during thrash: %s", ev.TaskID, ev.Err)
		}
	}
	if handoffs == 0 {
		t.Fatal("walker crossed domains without a handoff event")
	}
	for i, a := range []*Task{anchors[0], anchors[2]} {
		got, err := r.o.Task(a.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got.State != TaskRunning || got.Domain != 2*i {
			t.Fatalf("anchor in room %d: state=%v domain=%d, want running in %d", 2*i, got.State, got.Domain, 2*i)
		}
	}
	if got, _ := r.o.Task(walker.ID); got.State == TaskFailed {
		t.Fatal("walker lost during thrash")
	}
}
