package orchestrator

import (
	"errors"
	"fmt"

	"surfos/internal/geom"
	"surfos/internal/scene"
	"surfos/internal/telemetry"
)

// Mobility: endpoints move and geometry changes while tasks run. MoveTask
// re-targets a live task's goal and hands it off between interference
// domains when its best-serving surfaces change; EditScene serializes
// scene mutations against in-flight planning so a scripted wall toggle
// can never race a reconcile's ray traces.

// ErrNotMovable rejects MoveTask on goals without a spatial target or on
// tasks that already went terminal.
var ErrNotMovable = errors.New("orchestrator: task is not movable")

// RelocatableGoal is implemented by goal types whose spatial target can
// move at runtime (a user walking with their device). Relocated returns
// a copy of the goal re-targeted at pos; the original is never mutated,
// so snapshots handed out before the move stay consistent.
type RelocatableGoal interface {
	Relocated(pos geom.Vec3) any
}

// Relocated implements RelocatableGoal for link goals (value receiver:
// the returned goal is an independent copy).
func (g LinkGoal) Relocated(pos geom.Vec3) any { g.Pos = pos; return g }

// Relocated implements RelocatableGoal for powering goals.
func (g PowerGoal) Relocated(pos geom.Vec3) any { g.Pos = pos; return g }

// Relocated implements RelocatableGoal for security goals (the protected
// user moves; the eavesdropper estimate stays).
func (g SecurityGoal) Relocated(pos geom.Vec3) any { g.UserPos = pos; return g }

// MoveResult reports what a MoveTask did.
type MoveResult struct {
	TaskID int
	// From and To are the owning interference domains before and after
	// the move.
	From, To int
	// HandedOff is true when the task crossed a domain boundary: its old
	// shard's plan entries were released and a handoff event was emitted.
	HandedOff bool
}

// MoveTask re-targets a live task at a new position. When the new
// position is best served by a different interference domain, the task
// is handed off: its plan entries in the old shard are released (and the
// shrunken codebooks re-applied), the task re-homes to the new domain in
// the pending state, and a "handoff" lifecycle event carrying the new spec
// fires — the task is never dropped. Within-domain moves just update the
// goal, and the task's next scheduled event carries the new spec; either
// way the serving plan is stale until the next re-plan, which the caller
// requests (ReconcileTask).
func (o *Orchestrator) MoveTask(id int, pos geom.Vec3) (MoveResult, error) {
	res, shrunk, err := o.moveTask(id, pos)
	if err != nil {
		return MoveResult{}, err
	}
	o.reapply(shrunk)
	return res, nil
}

// moveTask does MoveTask's bookkeeping under the geometry *write* lock:
// an in-flight reconcile reads task goals while optimizing — outside
// o.mu, under the geometry read lock — so re-targeting a goal must
// exclude planning for its (brief) duration exactly like a scene edit.
// The southbound re-apply of shrunken plans happens in the caller, after
// both locks drop.
func (o *Orchestrator) moveTask(id int, pos geom.Vec3) (MoveResult, []*Plan, error) {
	o.geoMu.Lock()
	defer o.geoMu.Unlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.tasks[id]
	if !ok {
		return MoveResult{}, nil, fmt.Errorf("%w %d", ErrUnknownTask, id)
	}
	if t.State == TaskDone || t.State == TaskFailed {
		return MoveResult{}, nil, fmt.Errorf("%w: task %d is %s", ErrNotMovable, id, t.State)
	}
	rg, ok := t.Goal.(RelocatableGoal)
	if !ok {
		return MoveResult{}, nil, fmt.Errorf("%w: task %d goal %T has no relocatable target", ErrNotMovable, id, t.Goal)
	}
	o.ensureShardsLocked()
	t.Goal = rg.Relocated(pos)
	from := t.Domain
	to := o.routeLocked(t, o.apFreqs())
	res := MoveResult{TaskID: id, From: from, To: to, HandedOff: to != from}
	var shrunk []*Plan
	if res.HandedOff {
		// Release the old shard's entries while the task still belongs
		// to it (entry release never crosses shards), then re-home. A
		// running task drops to pending: its configurations live on the
		// old domain's surfaces and the new domain must schedule it.
		shrunk = o.releaseTaskLocked(t)
		t.Domain = to
		if t.State == TaskRunning {
			t.State = TaskPending
		}
		o.emitSpecLocked(t, telemetry.TaskHandoff)
	} else {
		t.respec = true
	}
	return res, shrunk, nil
}

// EditScene runs fn against the orchestrator's scene with every
// orchestrator-driven scene reader excluded: reconciles, routing, and
// partition rebuilds hold the geometry read-lock for their duration, so
// a wall toggled mid-optimization cannot tear a ray trace. fn runs
// inside scene.Edit, so however many walls it touches commit as one
// revision bump. Callers that share the scene with readers outside this
// orchestrator must still synchronize those separately.
func (o *Orchestrator) EditScene(fn func(*scene.Scene) error) error {
	o.geoMu.Lock()
	defer o.geoMu.Unlock()
	return o.Scene.Edit(fn)
}
