package orchestrator

import (
	"context"
	"sync"
	"testing"
	"time"

	"surfos/internal/driver"
	"surfos/internal/engine"
	"surfos/internal/scene"
	"surfos/internal/telemetry"
)

// TestSnapshotReadersRaceReconcile hammers the snapshot accessors while
// Reconcile and Tick mutate live task state. Run with -race: the defensive
// copies in Task/Tasks/Plans are the system under test — a reader must
// never observe a live task mid-write.
func TestSnapshotReadersRaceReconcile(t *testing.T) {
	opts := fastOpts()
	opts.OptIters = 10 // keep each Reconcile short so many interleave
	// A 4-wide engine builds the TDM plan's cells concurrently, so the
	// readers race a fanned-out build.
	opts.Policy = PolicyTDM
	opts.Engine = engine.New(engine.Options{Workers: 4})
	r := newRig(t, opts, driver.ModelNRSurface, driver.ModelNRSurface)
	bus := telemetry.NewEventBus()
	_, cancel := bus.Subscribe(16) // exercise emission concurrently too
	defer cancel()
	r.o.SetEventBus(bus)

	ids := make([]int, 0, 3)
	for _, ep := range []string{"laptop", "phone", "tv"} {
		task, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: ep, Pos: bedroomPoint()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, task.ID)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	reader := func(f func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	reader(func() {
		for _, task := range r.o.Tasks() {
			if task.Result != nil {
				_ = task.Result.Surfaces // deep-copied slice
			}
		}
	})
	reader(func() {
		for _, id := range ids {
			if task, err := r.o.Task(id); err == nil && task.Result != nil {
				_ = task.Result.Metric
			}
		}
	})
	reader(func() { _ = r.o.Plans() })
	reader(func() { _ = r.o.Now() })

	for i := 0; i < 4; i++ {
		if err := r.o.Reconcile(context.Background()); err != nil {
			t.Errorf("reconcile %d: %v", i, err)
		}
		if err := r.o.Tick(context.Background(), 50*time.Millisecond); err != nil {
			t.Errorf("tick %d: %v", i, err)
		}
	}
	// Mutate the task set while readers run, then reconcile again.
	if err := r.o.SetIdle(ids[0], true); err != nil {
		t.Fatal(err)
	}
	if err := r.o.EndTask(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Errorf("final reconcile: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestEndTaskRacesHandoffOnSharedPlan: EndTask and a hand-off MoveTask
// both release an entry of the same TDM plan and then re-apply the
// shrunken codebook outside o.mu. Run with -race: the re-apply must work
// from the snapshot taken under the lock, never from the live plan the
// other verb is rewriting.
func TestEndTaskRacesHandoffOnSharedPlan(t *testing.T) {
	opts := fastOpts()
	opts.OptIters = 2 // the plans' quality is irrelevant; their entry sets are the subject
	// A 4-wide engine builds the plan's cells concurrently.
	opts.Engine = engine.New(engine.Options{Workers: 4})
	r := newStripRig(t, 2, opts)
	ctx := context.Background()

	const rounds, perSide = 40, 4 // 40 × (4 ends ‖ 4 hand-offs) = 320 racing releases
	for round := 0; round < rounds; round++ {
		var ids []int
		for i := 0; i < 2*perSide; i++ {
			task, err := r.o.EnhanceLink(ctx, roomLink(0, "ue"), 1)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, task.ID)
		}
		if err := r.o.ReconcileDomain(ctx, 0); err != nil {
			t.Fatal(err)
		}
		if ps := r.o.Plans(); len(ps) != 1 || ps[0].Strategy != StrategyTDM || len(ps[0].Entries) != len(ids) {
			t.Fatalf("round %d: want one TDM plan with %d entries, got %+v", round, len(ids), ps)
		}

		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, id := range ids[:perSide] {
				if err := r.o.EndTask(id); err != nil {
					t.Errorf("end %d: %v", id, err)
				}
			}
		}()
		go func() {
			defer wg.Done()
			for _, id := range ids[perSide:] {
				if res, err := r.o.MoveTask(id, scene.RoomCenter(1)); err != nil || !res.HandedOff {
					t.Errorf("move %d: %+v, %v (want a hand-off)", id, res, err)
				}
			}
		}()
		wg.Wait()

		if ps := r.o.Plans(); len(ps) != 0 {
			t.Fatalf("round %d: every entry was released, yet %d plan(s) remain", round, len(ps))
		}
		for _, id := range ids[perSide:] { // clear room 1's pending walkers
			if err := r.o.EndTask(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}
