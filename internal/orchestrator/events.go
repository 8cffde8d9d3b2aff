package orchestrator

import (
	"surfos/internal/telemetry"
)

// SetEventBus attaches a task lifecycle event bus; nil detaches it. Events
// are stamped with the orchestrator's virtual clock and carry the task's
// placement and result metrics, so monitors can key expectations and CLIs
// can stream progress without polling the task table.
func (o *Orchestrator) SetEventBus(b *telemetry.EventBus) {
	o.mu.Lock()
	o.events = b
	o.mu.Unlock()
}

// emitLocked publishes one lifecycle transition; the caller holds o.mu.
// Publishing under the lock is safe — the bus never blocks (drop-on-full)
// and never calls back into the orchestrator. The first scheduled event
// after a within-domain move carries the task's spec (see emitSpecLocked):
// the move itself emits nothing, and the re-plan that follows it is where
// a journal learns the new target.
func (o *Orchestrator) emitLocked(t *Task, state string) {
	o.emit(t, state, t.respec && state == telemetry.TaskScheduled)
}

// emitSpecLocked is emitLocked for a transition that (re)defines the task
// — a submission, a handoff, a failed task re-queued: the event carries
// the durable spec, so a journal subscriber records "this task is live
// with this spec" without reaching into the orchestrator. A journal keeps
// a live task's state when it folds a spec, so a transition that changes
// what recovery restores (idle, resumed from idle, done, failed) must not
// carry one.
func (o *Orchestrator) emitSpecLocked(t *Task, state string) { o.emit(t, state, true) }

func (o *Orchestrator) emit(t *Task, state string, withSpec bool) {
	if o.events == nil {
		return
	}
	ev := telemetry.TaskEvent{
		Time:     o.now,
		TaskID:   t.ID,
		Kind:     t.Kind.String(),
		State:    state,
		FreqHz:   t.FreqHz,
		Endpoint: t.endpoint(),
		Tenant:   t.Tenant,
		Domain:   t.Domain,
	}
	if r := t.Result; r != nil {
		ev.Strategy = r.Strategy
		ev.Surfaces = append([]string(nil), r.Surfaces...)
		ev.Share = r.Share
		if state == telemetry.TaskRunning {
			ev.Metric = r.Metric
			ev.MetricName = r.MetricName
		}
	}
	if t.Err != nil {
		ev.Err = t.Err.Error()
	}
	if withSpec {
		if spec, ok := o.specLocked(t); ok {
			ev.Spec = spec
		}
		t.respec = false
	}
	o.events.Publish(ev)
}
