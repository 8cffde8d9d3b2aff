package scenario

import (
	"context"
	"fmt"
	"time"

	"surfos/internal/geom"
	"surfos/internal/orchestrator"
	"surfos/internal/scene"
)

// Driver binds an Engine to a live orchestrator stack: it wires the
// virtual-clock hook (orchestrator tick) and provides the canned churn
// actions — task arrival and departure, a user walking their task across
// the floor, and scene edits — each of which re-plans the interference
// domains it touched before it returns. Tasks are addressed by
// scenario-local names, since orchestrator IDs do not exist until the
// arrival event actually runs.
type Driver struct {
	Eng  *Engine
	Orch *orchestrator.Orchestrator

	tasks    map[string]int
	handoffs int
}

// NewDriver wires a driver and installs the engine's clock hook.
func NewDriver(eng *Engine, orch *orchestrator.Orchestrator) *Driver {
	d := &Driver{Eng: eng, Orch: orch, tasks: make(map[string]int)}
	eng.OnAdvance = func(ctx context.Context, dt time.Duration) error {
		return orch.Tick(ctx, dt)
	}
	return d
}

// replan re-plans each listed domain.
func (d *Driver) replan(ctx context.Context, domains ...int) error {
	for _, dom := range domains {
		if err := d.Orch.ReconcileDomain(ctx, dom); err != nil {
			return err
		}
	}
	return nil
}

// TaskID resolves a scenario task name, once its arrival has run.
func (d *Driver) TaskID(name string) (int, bool) {
	id, ok := d.tasks[name]
	return id, ok
}

// Handoffs counts the domain-boundary crossings walks have caused.
func (d *Driver) Handoffs() int { return d.handoffs }

// Arrive schedules a task submission under a scenario-local name.
func (d *Driver) Arrive(at time.Duration, name string, kind orchestrator.ServiceKind, goal any, priority int) {
	d.Eng.At(at, "arrive "+name, func(ctx context.Context) (string, error) {
		t, err := d.Orch.Submit(ctx, kind, goal, priority)
		if err != nil {
			return "", err
		}
		d.tasks[name] = t.ID
		return fmt.Sprintf("task %d in domain %d", t.ID, t.Domain), d.replan(ctx, t.Domain)
	})
}

// Depart schedules the end of a named task.
func (d *Driver) Depart(at time.Duration, name string) {
	d.Eng.At(at, "depart "+name, func(ctx context.Context) (string, error) {
		id, ok := d.tasks[name]
		if !ok {
			return "", fmt.Errorf("scenario: depart %q before its arrival", name)
		}
		t, err := d.Orch.Task(id)
		if err != nil {
			return "", err
		}
		if err := d.Orch.EndTask(id); err != nil {
			return "", err
		}
		return fmt.Sprintf("task %d from domain %d", id, t.Domain), d.replan(ctx, t.Domain)
	})
}

// Walk schedules a step of a named task's user to a new position,
// handing the task off between shards when it crosses a domain boundary.
func (d *Driver) Walk(at time.Duration, name string, pos geom.Vec3) {
	d.Eng.At(at, "walk "+name, func(ctx context.Context) (string, error) {
		id, ok := d.tasks[name]
		if !ok {
			return "", fmt.Errorf("scenario: walk %q before its arrival", name)
		}
		res, err := d.Orch.MoveTask(id, pos)
		if err != nil {
			return "", err
		}
		if res.HandedOff {
			d.handoffs++
			return fmt.Sprintf("task %d handoff domain %d -> %d", id, res.From, res.To), d.replan(ctx, res.From, res.To)
		}
		return fmt.Sprintf("task %d within domain %d", id, res.To), d.replan(ctx, res.To)
	})
}

// Edit schedules a batched scene mutation (wall/door toggles, screens
// moving) and re-plans exactly the listed interference domains — the
// per-region invalidation contract: domains the edit cannot reach keep
// serving their current plans and their cached traces stay hot.
func (d *Driver) Edit(at time.Duration, name string, domains []int, fn func(*scene.Scene) error) {
	d.Eng.At(at, name, func(ctx context.Context) (string, error) {
		if err := d.Orch.EditScene(fn); err != nil {
			return "", err
		}
		return fmt.Sprintf("re-planned domains %v", domains), d.replan(ctx, domains...)
	})
}

// Reconcile schedules a full re-plan of every domain — the scenario
// epilogue, so final assertions see a settled plant.
func (d *Driver) Reconcile(at time.Duration) {
	d.Eng.At(at, "reconcile", func(ctx context.Context) (string, error) {
		return "", d.Orch.Reconcile(ctx)
	})
}
