package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"surfos/internal/driver"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
)

// cancelService is a stub service that cancels the reconcile planning it:
// its BuildObjective fires the armed cancel function (once), then builds
// the echo objective. Its goal names a band, so a test can place it in the
// first frequency group of a shard.
const cancelKind = ServiceKind(45)

type cancelGoal struct {
	echoGoal
	FreqHz float64
}

type cancelService struct{ echoService }

// armedCancel is fired and disarmed by the next cancelService objective.
var armedCancel atomic.Pointer[context.CancelFunc]

func (cancelService) Kind() ServiceKind { return cancelKind }
func (cancelService) Name() string      { return "cancel" }

func (cancelService) Validate(_ *Orchestrator, goal any) error {
	if _, ok := goal.(cancelGoal); !ok {
		return fmt.Errorf("%w: cancel wants a cancelGoal, got %T", ErrGoalInvalid, goal)
	}
	return nil
}

func (cancelService) Freq(goal any) float64 {
	g, _ := goal.(cancelGoal)
	return g.FreqHz
}

func (cancelService) Target(_ *Orchestrator, goal any) geom.Vec3 {
	g, _ := goal.(cancelGoal)
	return g.Pos
}

func (cancelService) BuildObjective(ctx context.Context, o *Orchestrator, t *Task, band Band, spec engine.Spec) (optimize.Objective, Evaluator, error) {
	if c := armedCancel.Swap(nil); c != nil {
		(*c)()
	}
	g, ok := t.Goal.(cancelGoal)
	if !ok {
		return nil, nil, fmt.Errorf("%w: task %d: cancel wants a cancelGoal", ErrGoalInvalid, t.ID)
	}
	return echoObjective(ctx, o, g.Pos, band, spec)
}

var cancelRegistered = false

func registerCancelOnce(t *testing.T) {
	t.Helper()
	if cancelRegistered {
		return
	}
	if err := RegisterService(cancelService{}); err != nil {
		t.Fatal(err)
	}
	cancelRegistered = true
}

// armCancel returns a context that the next cancelService objective to be
// built cancels.
func armCancel(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	t.Cleanup(func() { armedCancel.Store(nil) })
	armedCancel.Store(&cancel)
	return ctx
}

// checkCancelledReconcile asserts what a reconcile cancelled mid-plan must
// leave behind: the stop is reported, no task failed because of it, and
// every running task is served by exactly one entry of the committed plans.
func checkCancelledReconcile(t *testing.T, o *Orchestrator, err error) {
	t.Helper()
	if !errors.Is(err, ErrOptimizeStopped) {
		t.Errorf("reconcile err = %v, want ErrOptimizeStopped", err)
	}
	for _, task := range o.Tasks() {
		if task.State == TaskFailed {
			t.Errorf("task %d failed: %v", task.ID, task.Err)
		}
	}
	checkPlannedOnce(t, o)
}

// checkPlannedOnce asserts that every running task is served by exactly one
// entry of the committed plans, and returns how many entries serve each
// task ID.
func checkPlannedOnce(t *testing.T, o *Orchestrator) map[int]int {
	t.Helper()
	entries := map[int]int{}
	for _, p := range o.Plans() {
		for _, e := range p.Entries {
			for _, id := range e.TaskIDs {
				entries[id]++
			}
		}
	}
	for _, task := range o.Tasks() {
		if task.State == TaskRunning && entries[task.ID] != 1 {
			t.Errorf("running task %d is in %d committed plan entries, want 1", task.ID, entries[task.ID])
		}
	}
	return entries
}

// TestCancelledReconcileFailsNoTask: a cancel that lands while a TDM plan's
// first cell is being built stops optimizer runs at their best-so-far; it
// must not fail the tasks of the cells built after it.
func TestCancelledReconcileFailsNoTask(t *testing.T) {
	registerCancelOnce(t)
	opts := fastOpts()
	opts.Policy = PolicyTDM
	r := newRig(t, opts, driver.ModelNRSurface)
	bg := context.Background()
	if _, err := r.o.Submit(bg, cancelKind, cancelGoal{echoGoal: echoGoal{Endpoint: "trip", Pos: bedroomPoint()}}, 1); err != nil {
		t.Fatal(err)
	}
	for i, pos := range []geom.Vec3{geom.V(5.0, 6.0, 1.0), geom.V(3.5, 4.5, 1.2), geom.V(1.5, 6.0, 1.0)} {
		if _, err := r.o.EnhanceLink(bg, LinkGoal{Endpoint: fmt.Sprintf("ep%d", i), Pos: pos}, 1); err != nil {
			t.Fatal(err)
		}
	}
	checkCancelledReconcile(t, r.o, r.o.Reconcile(armCancel(t)))
	if ps := r.o.Plans(); len(ps) != 1 || len(ps[0].Entries) != 4 {
		t.Errorf("plans = %+v, want one TDM plan with 4 entries", ps)
	}
}

// TestCancelledReconcileKeepsEveryGroupPlanned: a cancel in a shard's first
// frequency group must not commit the shard without its later groups —
// their tasks stay running, so they must stay in the plans.
func TestCancelledReconcileKeepsEveryGroupPlanned(t *testing.T) {
	registerCancelOnce(t)
	r := newRig(t, fastOpts(), driver.ModelNRSurface) // 24 GHz on the east wall
	addSurface(t, r.apt, r.hw, "wifi5", driver.ModelScatterMIMO, scene.MountNorthWall, 12, 12)
	if err := r.hw.AddAP(&hwmgr.AccessPoint{
		ID: "ap5", Pos: geom.V(1.0, 1.0, 2.2), FreqHz: 5.5e9,
		Budget: rfsim.LinkBudget{TxPowerDBm: 15, AntennaGainDB: 6, NoiseFigureDB: 6, BandwidthHz: 80e6},
	}); err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	if _, err := r.o.EnhanceLink(bg, LinkGoal{Endpoint: "mm", Pos: bedroomPoint(), FreqHz: 24e9}, 1); err != nil {
		t.Fatal(err)
	}
	// 5.5 GHz sorts first: the cancel lands before the 24 GHz group starts.
	if _, err := r.o.Submit(bg, cancelKind, cancelGoal{echoGoal: echoGoal{Endpoint: "wifi", Pos: geom.V(4.5, 6.0, 1.2)}, FreqHz: 5.5e9}, 1); err != nil {
		t.Fatal(err)
	}
	reconcile(t, r)
	if ps := r.o.Plans(); len(ps) != 2 {
		t.Fatalf("want one plan per band, got %+v", ps)
	}
	checkCancelledReconcile(t, r.o, r.o.Reconcile(armCancel(t)))
	if ps := r.o.Plans(); len(ps) != 2 {
		t.Errorf("after the cancelled reconcile: want one plan per band, got %+v", ps)
	}
}
