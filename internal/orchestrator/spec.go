package orchestrator

import (
	"encoding/json"
	"fmt"
	"time"

	"surfos/internal/telemetry"
)

// Task persistence: a TaskSpec is the durable form of one submission —
// everything needed to re-admit the task after a control-plane restart.
// Plans, optimizer state and results are deliberately *not* part of it:
// they are derived state, recomputed from scratch at recovery time
// against the then-current surface and health inventory.

// TaskSpec is the JSON-stable encoding of a task submission.
type TaskSpec struct {
	ID       int    `json:"id"`
	Kind     string `json:"kind"` // service registry name
	Priority int    `json:"priority"`
	// CreatedUnixNanos/DeadlineUnixNanos are virtual-clock times
	// (orchestrators start their clock at the Unix epoch).
	CreatedUnixNanos  int64 `json:"created,omitempty"`
	DeadlineUnixNanos int64 `json:"deadline,omitempty"`
	// Goal is the service-specific goal, encoded by the service's
	// GoalCodec.
	Goal json.RawMessage `json:"goal"`
	// Tenant is the submitting tenant; omitted for DefaultTenant so
	// single-tenant journals keep their pre-multi-tenant byte layout.
	Tenant string `json:"tenant,omitempty"`
}

// GoalCodec is optionally implemented by services whose goals can be
// persisted and restored. Services without it still schedule normally;
// their tasks are simply not journaled (and die with the daemon).
type GoalCodec interface {
	// EncodeGoal marshals a validated goal to its durable JSON form.
	EncodeGoal(goal any) ([]byte, error)
	// DecodeGoal reverses EncodeGoal.
	DecodeGoal(data []byte) (any, error)
}

// jsonGoal implements GoalCodec for a plain-JSON goal struct; the
// built-in services embed it (e.g. jsonGoal[LinkGoal]).
type jsonGoal[T any] struct{}

func (jsonGoal[T]) EncodeGoal(goal any) ([]byte, error) {
	g, ok := goal.(T)
	if !ok {
		var want T
		return nil, fmt.Errorf("%w: cannot persist %T as %T", ErrGoalInvalid, goal, want)
	}
	return json.Marshal(g)
}

func (jsonGoal[T]) DecodeGoal(data []byte) (any, error) {
	var g T
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%w: goal: %v", ErrGoalInvalid, err)
	}
	return g, nil
}

// specLocked encodes the task's durable spec, ok=false when the service
// has no goal codec. Caller holds o.mu.
func (o *Orchestrator) specLocked(t *Task) ([]byte, bool) {
	svc, err := t.service()
	if err != nil {
		return nil, false
	}
	codec, ok := svc.(GoalCodec)
	if !ok {
		return nil, false
	}
	goal, err := codec.EncodeGoal(t.Goal)
	if err != nil {
		return nil, false
	}
	spec := TaskSpec{
		ID:               t.ID,
		Kind:             svc.Name(),
		Priority:         t.Priority,
		CreatedUnixNanos: t.Created.UnixNano(),
		Goal:             goal,
	}
	if !t.Deadline.IsZero() {
		spec.DeadlineUnixNanos = t.Deadline.UnixNano()
	}
	if t.Tenant != "" && t.Tenant != DefaultTenant {
		spec.Tenant = t.Tenant
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, false
	}
	return data, true
}

// RestoreTask re-admits a journaled task under its original ID: the spec
// is decoded through the service registry, re-validated against the
// current scene, and inserted pending (or idle, when lastState says the
// task was parked at crash time). The ID allocator is bumped past the
// restored ID so new submissions never collide. The restored task emits a
// fresh submitted event — with its spec attached — so an attached journal
// re-records it and watchers see the re-admission.
func (o *Orchestrator) RestoreTask(specJSON []byte, lastState string) (*Task, error) {
	var spec TaskSpec
	if err := json.Unmarshal(specJSON, &spec); err != nil {
		return nil, fmt.Errorf("%w: spec: %v", ErrGoalInvalid, err)
	}
	if spec.ID <= 0 {
		return nil, fmt.Errorf("%w: spec has no task id", ErrGoalInvalid)
	}
	kind, err := KindByName(spec.Kind)
	if err != nil {
		return nil, err
	}
	svc, err := serviceFor(kind)
	if err != nil {
		return nil, err
	}
	codec, ok := svc.(GoalCodec)
	if !ok {
		return nil, fmt.Errorf("%w: service %q has no goal codec", ErrGoalInvalid, spec.Kind)
	}
	goal, err := codec.DecodeGoal(spec.Goal)
	if err != nil {
		return nil, err
	}
	if err := svc.Validate(o, goal); err != nil {
		return nil, err
	}
	priority := spec.Priority
	if priority <= 0 {
		priority = 1
	}

	tenant := spec.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}

	o.geoMu.RLock()
	defer o.geoMu.RUnlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, exists := o.tasks[spec.ID]; exists {
		return nil, fmt.Errorf("%w: task %d already exists", ErrGoalInvalid, spec.ID)
	}
	// Restoration bypasses admission control — the task was admitted
	// before the crash; shrinking quotas must not drop journaled work —
	// but is still routed to its owning interference-domain shard.
	o.ensureShardsLocked()
	t := &Task{
		ID:       spec.ID,
		Kind:     kind,
		Priority: priority,
		State:    TaskPending,
		Created:  time.Unix(0, spec.CreatedUnixNanos),
		Goal:     goal,
		Tenant:   tenant,
		svc:      svc,
	}
	if spec.DeadlineUnixNanos != 0 {
		t.Deadline = time.Unix(0, spec.DeadlineUnixNanos)
	}
	t.Domain = o.routeLocked(t, o.apFreqs())
	if spec.ID >= o.nextID {
		o.nextID = spec.ID + 1
	}
	o.tasks[t.ID] = t
	o.emitSpecLocked(t, telemetry.TaskSubmitted)
	if lastState == telemetry.TaskIdle {
		t.State = TaskIdle
		o.emitLocked(t, telemetry.TaskIdle)
	}
	return t.clone(), nil
}

// ReserveIDs advances the task ID allocator past maxSeen, so IDs of tasks
// that ended (and were compacted out of the journal) before a restart are
// never handed out again.
func (o *Orchestrator) ReserveIDs(maxSeen int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if maxSeen >= o.nextID {
		o.nextID = maxSeen + 1
	}
}
