package orchestrator

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"surfos/internal/driver"
	"surfos/internal/engine"
	"surfos/internal/optimize"
	"surfos/internal/telemetry"
)

// holdService is a stub service that holds the reconcile pass planning it:
// its BuildObjective reports that it was entered and waits for the release
// of the armed hold (once), then builds the echo objective. A test uses it
// to act while a pass is in flight.
const holdKind = ServiceKind(46)

type holdService struct{ echoService }

// hold is one armed hold: entered closes when a pass reaches it, and
// released when the test lets the pass go on.
type hold struct {
	entered, released chan struct{}
	once              sync.Once
}

func (h *hold) release() { h.once.Do(func() { close(h.released) }) }

var armedHold atomic.Pointer[hold]

func (holdService) Kind() ServiceKind { return holdKind }
func (holdService) Name() string      { return "hold" }

func (holdService) BuildObjective(ctx context.Context, o *Orchestrator, t *Task, band Band, spec engine.Spec) (optimize.Objective, Evaluator, error) {
	if h := armedHold.Swap(nil); h != nil {
		close(h.entered)
		<-h.released
	}
	return echoService{}.BuildObjective(ctx, o, t, band, spec)
}

var registerHoldOnce sync.Once

func registerHold(t *testing.T) {
	t.Helper()
	registerHoldOnce.Do(func() {
		if err := RegisterService(holdService{echoService{weight: 1}}); err != nil {
			t.Fatal(err)
		}
	})
}

// armHold arms a hold for the next holdService objective to be built. The
// test's cleanup releases it, so a failing test never leaves a pass stuck.
func armHold(t *testing.T) *hold {
	t.Helper()
	h := &hold{entered: make(chan struct{}), released: make(chan struct{})}
	t.Cleanup(h.release)
	t.Cleanup(func() { armedHold.Store(nil) })
	armedHold.Store(h)
	return h
}

// submitHeld submits a holdService task at the bedroom point.
func submitHeld(t *testing.T, o *Orchestrator, endpoint string) *Task {
	t.Helper()
	task, err := o.Submit(context.Background(), holdKind, echoGoal{Endpoint: endpoint, Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return task
}

// goReconcile runs fn on its own goroutine and returns where its error
// arrives.
func goReconcile(fn func() error) <-chan error {
	done := make(chan error, 1)
	go func() { done <- fn() }()
	return done
}

// waitQueued waits until n re-plan requests are queued for the next pass.
func waitQueued(t *testing.T, o *Orchestrator, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		o.mu.Lock()
		queued := 0
		if o.batch != nil {
			queued = o.batch.requests
		}
		o.mu.Unlock()
		if queued >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d re-plan request(s) queued after 10s, want %d", queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// raceReconcile holds a reconcile pass inside the objective of a task A
// that shares a TDM plan with a link task B, runs mutate on A while the
// pass is in flight, then lets the pass commit. It checks what the commit
// must leave behind: A keeps the state mutate gave it, emits no scheduled
// or running event after it, and is in no committed entry, while B runs in
// exactly one; and the panel holds the committed codebook, not the one the
// pass wrote with A's entry in it.
func raceReconcile(t *testing.T, mutate func(o *Orchestrator, id int) error, want TaskState, transition string) {
	registerHold(t)
	opts := fastOpts()
	opts.Policy = PolicyTDM
	r := newRig(t, opts, driver.ModelNRSurface)
	bus := telemetry.NewEventBus()
	events, unsub := bus.Subscribe(64)
	defer unsub()
	r.o.SetEventBus(bus)
	ctx := context.Background()

	a := submitHeld(t, r.o, "held")
	b, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: "laptop", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := armHold(t)
	done := goReconcile(func() error { return r.o.Reconcile(ctx) })
	<-h.entered
	if err := mutate(r.o, a.ID); err != nil {
		t.Fatal(err)
	}
	h.release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	if got, err := r.o.Task(a.ID); err != nil || got.State != want {
		t.Fatalf("task A after the pass: %+v, %v; want %s", got, err, want)
	}
	if got, _ := r.o.Task(b.ID); got.State != TaskRunning {
		t.Errorf("task B after the pass: %s, want running", got.State)
	}
	if entries := checkPlannedOnce(t, r.o); entries[a.ID] != 0 {
		t.Errorf("task A is in %d committed plan entries, want 0", entries[a.ID])
	}
	for _, p := range r.o.Plans() {
		for _, id := range p.Surfaces {
			dev, err := r.hw.Surface(id)
			if err != nil {
				t.Fatal(err)
			}
			if n := dev.Drv.CodebookLen(); n != len(p.Entries) {
				t.Errorf("%s holds %d codebook entries, its plan %d", id, n, len(p.Entries))
			}
		}
	}
	unsub()
	after := false
	for ev := range events {
		if ev.TaskID != a.ID {
			continue
		}
		if after && (ev.State == telemetry.TaskScheduled || ev.State == telemetry.TaskRunning) {
			t.Errorf("task A emitted %q after %q", ev.State, transition)
		}
		after = after || ev.State == transition
	}
	if !after {
		t.Errorf("task A never emitted %q", transition)
	}
}

// TestEndTaskRacesReconcile: a task ended while a pass plans it stays done.
// The pass neither marks it running again nor commits it into a plan.
func TestEndTaskRacesReconcile(t *testing.T) {
	raceReconcile(t, func(o *Orchestrator, id int) error { return o.EndTask(id) }, TaskDone, telemetry.TaskDone)
}

// TestSetIdleRacesReconcile: a task parked while a pass plans it stays idle
// and out of the committed plans.
func TestSetIdleRacesReconcile(t *testing.T) {
	raceReconcile(t, func(o *Orchestrator, id int) error { return o.SetIdle(id, true) }, TaskIdle, telemetry.TaskIdle)
}

// TestOverlappingReconcilesRaceCommitInOrder: a re-plan requested while an
// older pass is in flight runs after that pass commits, so the older
// pass's snapshot can never overwrite the newer plan. Pass 1 plans {A};
// task B arrives mid-pass and its re-plan must leave both running, each in
// exactly one committed entry.
func TestOverlappingReconcilesRaceCommitInOrder(t *testing.T) {
	registerHold(t)
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	ctx := context.Background()

	a := submitHeld(t, r.o, "held")
	h := armHold(t)
	pass1 := goReconcile(func() error { return r.o.ReconcileTask(ctx, a.ID) })
	<-h.entered
	b, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: "laptop", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	pass2 := goReconcile(func() error { return r.o.ReconcileTask(ctx, b.ID) })
	waitQueued(t, r.o, 1)
	h.release()
	for i, done := range []<-chan error{pass1, pass2} {
		if err := <-done; err != nil {
			t.Fatalf("pass %d: %v", i+1, err)
		}
	}

	entries := checkPlannedOnce(t, r.o)
	for _, id := range []int{a.ID, b.ID} {
		if got, _ := r.o.Task(id); got.State != TaskRunning || entries[id] != 1 {
			t.Errorf("task %d: %s in %d committed entries, want running in 1", id, got.State, entries[id])
		}
	}
}

// TestReconcileRequestsCoalesce: requests that arrive while a pass is in
// flight are folded into one next pass. Eight re-plans of one domain queued
// behind a held pass cost that shard exactly two reconciles, and every
// caller gets the folded pass's result.
func TestReconcileRequestsCoalesce(t *testing.T) {
	registerHold(t)
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	ctx := context.Background()
	submitHeld(t, r.o, "held")
	dom := r.o.ShardStats()[0].Domain
	before := r.o.ShardStats()[0].Reconciles

	h := armHold(t)
	pass1 := goReconcile(func() error { return r.o.ReconcileDomain(ctx, dom) })
	<-h.entered
	const requests = 8
	queued := make([]<-chan error, requests)
	for i := range queued {
		queued[i] = goReconcile(func() error { return r.o.ReconcileDomain(ctx, dom) })
	}
	waitQueued(t, r.o, requests)
	h.release()
	for i, done := range append([]<-chan error{pass1}, queued...) {
		if err := <-done; err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if got := r.o.ShardStats()[0].Reconciles - before; got != 2 {
		t.Errorf("%d requests behind a held pass cost %d reconciles, want 2 (the held pass and one folded pass)", requests, got)
	}
}

// TestCoalescedRequestOutlivesCancelledCaller: a queued caller that gives
// up before its pass starts does not take the other requests of its batch
// down with it. Whichever of the two queued callers takes the pass lock
// first, the one that stayed gets its re-plan.
func TestCoalescedRequestOutlivesCancelledCaller(t *testing.T) {
	registerHold(t)
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	bg := context.Background()
	submitHeld(t, r.o, "held")
	dom := r.o.ShardStats()[0].Domain
	before := r.o.ShardStats()[0].Reconciles

	h := armHold(t)
	pass1 := goReconcile(func() error { return r.o.ReconcileDomain(bg, dom) })
	<-h.entered
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	quitter := goReconcile(func() error { return r.o.ReconcileDomain(ctx, dom) })
	waitQueued(t, r.o, 1)
	cancel()
	stayer := goReconcile(func() error { return r.o.ReconcileDomain(bg, dom) })
	waitQueued(t, r.o, 2)
	h.release()

	if err := <-pass1; err != nil {
		t.Errorf("held pass: %v", err)
	}
	if err := <-stayer; err != nil {
		t.Errorf("the caller that stayed: %v", err)
	}
	if err := <-quitter; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("the caller that gave up: %v, want nil or context.Canceled", err)
	}
	if got := r.o.ShardStats()[0].Reconciles - before; got != 2 {
		t.Errorf("reconciles rose by %d, want 2 (the held pass and the folded one)", got)
	}
}
