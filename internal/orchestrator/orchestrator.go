package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"surfos/internal/engine"
	"surfos/internal/hwmgr"
	"surfos/internal/metrics"
	"surfos/internal/scene"
	"surfos/internal/telemetry"
)

// Options tunes the orchestrator. Zero values select defaults.
type Options struct {
	// Policy selects the multiplexing strategy (default PolicyAuto).
	Policy MultiplexPolicy
	// OptIters bounds the configuration optimizer, Adam (default 150);
	// an objective solved in closed form ignores it.
	OptIters int
	// GridStep is the default coverage evaluation spacing in meters (0.5).
	GridStep float64
	// SensingGridStep is the sensing training grid spacing (1.0).
	SensingGridStep float64
	// SensingBins is the AoA grid size (default 61).
	SensingBins int
	// SensingSubcarriers is the wideband sounding tone count (default 8).
	SensingSubcarriers int
	// Cascade enables surface-to-surface interaction modeling when a group
	// has multiple surfaces.
	Cascade bool
	// Engine is the shared channel-evaluation engine. Nil selects the
	// process-wide engine.Default(), maximizing ray-trace cache reuse with
	// the deployment planner and experiment rigs.
	Engine *engine.Engine
}

func (o Options) withDefaults() Options {
	if o.OptIters == 0 {
		o.OptIters = 150
	}
	if o.GridStep == 0 {
		o.GridStep = 0.5
	}
	if o.SensingGridStep == 0 {
		o.SensingGridStep = 1.0
	}
	if o.SensingBins == 0 {
		o.SensingBins = 61
	}
	if o.SensingSubcarriers == 0 {
		o.SensingSubcarriers = 8
	}
	return o
}

// Orchestrator is the central control plane instance for one environment.
type Orchestrator struct {
	Scene *scene.Scene
	HW    *hwmgr.Manager
	Opts  Options

	eng *engine.Engine

	// passMu lets one reconcile pass run at a time (reconcileDomains).
	// Lock order: passMu → geoMu → mu.
	passMu sync.Mutex

	// geoMu serializes scene geometry edits (EditScene, write lock)
	// against the orchestrator's scene readers (reconciles, routing,
	// partition rebuilds — read lock). It is always acquired before mu
	// and never while holding it.
	geoMu sync.RWMutex

	mu     sync.Mutex
	tasks  map[int]*Task
	nextID int
	now    time.Time
	events *telemetry.EventBus
	// batch collects the re-plan requests the next pass will serve.
	batch *replanBatch

	// Interference-domain sharding (shard.go). shards is rebuilt lazily
	// whenever the scene revision or the device set changes; partRev and
	// partSig record what the current build was computed against.
	shards  []*shard
	shardOf map[string]int // device ID -> domain index
	partRev uint64
	partSig string

	// Admission control (admission.go).
	quotas   map[string]TenantQuota
	admitMax int
	rejected map[string]uint64

	// latHist, when set via RegisterMetrics, observes every per-shard
	// reconcile duration (metrics.go).
	latHist *metrics.Histogram
	// sweepHist observes every optimizer run's wall-clock duration;
	// optRuns/optEvals accumulate run and evaluation counts. Shards
	// optimize concurrently, so the counters are atomic.
	sweepHist *metrics.Histogram
	optRuns   atomic.Uint64
	optEvals  atomic.Uint64
}

// New builds an orchestrator over a scene and hardware inventory.
func New(sc *scene.Scene, hw *hwmgr.Manager, opts Options) (*Orchestrator, error) {
	if sc == nil || hw == nil {
		return nil, errors.New("orchestrator: needs a scene and a hardware manager")
	}
	opts = opts.withDefaults()
	eng := opts.Engine
	if eng == nil {
		eng = engine.Default()
	}
	return &Orchestrator{
		Scene:  sc,
		HW:     hw,
		Opts:   opts,
		eng:    eng,
		tasks:  make(map[int]*Task),
		nextID: 1,
		now:    time.Unix(0, 0),
	}, nil
}

// Engine returns the channel-evaluation engine this orchestrator computes
// through.
func (o *Orchestrator) Engine() *engine.Engine { return o.eng }

// --- service request APIs (paper §3.2, Figure 6) ---
//
// Every service call takes a context: submission itself is cheap, but the
// ctx is checked up front so callers with expired deadlines fail fast, and
// the same ctx convention carries through Reconcile into the optimizer
// loops. Each convenience API delegates to the generic Submit, which
// dispatches through the service registry.

// ctxErr tolerates nil contexts from legacy callers.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// EnhanceLink requests connectivity enhancement for one endpoint.
func (o *Orchestrator) EnhanceLink(ctx context.Context, g LinkGoal, priority int) (*Task, error) {
	return o.Submit(ctx, ServiceLink, g, priority)
}

// OptimizeCoverage requests region-wide coverage.
func (o *Orchestrator) OptimizeCoverage(ctx context.Context, g CoverageGoal, priority int) (*Task, error) {
	return o.Submit(ctx, ServiceCoverage, g, priority)
}

// EnableSensing requests localization service over a region.
func (o *Orchestrator) EnableSensing(ctx context.Context, g SensingGoal, priority int) (*Task, error) {
	return o.Submit(ctx, ServiceSensing, g, priority)
}

// InitPowering requests wireless power delivery.
func (o *Orchestrator) InitPowering(ctx context.Context, g PowerGoal, priority int) (*Task, error) {
	return o.Submit(ctx, ServicePowering, g, priority)
}

// SecureLink requests eavesdropper suppression for an endpoint.
func (o *Orchestrator) SecureLink(ctx context.Context, g SecurityGoal, priority int) (*Task, error) {
	return o.Submit(ctx, ServiceSecurity, g, priority)
}

// submit files a validated goal into the task table and emits the
// Submitted lifecycle event. The returned task is a snapshot. Admission
// control runs first — a rejected submission never enters the table —
// and the accepted task is routed to its interference-domain shard
// before the event fires, so the submitted event carries the domain.
func (o *Orchestrator) submit(svc Service, tenant string, goal any, priority int, duration time.Duration) (*Task, error) {
	if priority <= 0 {
		priority = 1
	}
	if tenant == "" {
		tenant = DefaultTenant
	}
	o.geoMu.RLock()
	defer o.geoMu.RUnlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	if err := o.admitLocked(tenant, priority); err != nil {
		return nil, err
	}
	o.ensureShardsLocked()
	t := &Task{
		ID:       o.nextID,
		Kind:     svc.Kind(),
		Priority: priority,
		State:    TaskPending,
		Created:  o.now,
		Goal:     goal,
		Tenant:   tenant,
		svc:      svc,
	}
	if duration > 0 {
		t.Deadline = o.now.Add(duration)
	}
	t.Domain = o.routeLocked(t, o.apFreqs())
	o.nextID++
	o.tasks[t.ID] = t
	o.emitSpecLocked(t, telemetry.TaskSubmitted)
	return t.clone(), nil
}

// Task returns a snapshot of a task by ID. Live task fields mutate under
// the orchestrator lock during Tick/Reconcile, so accessors always copy.
func (o *Orchestrator) Task(id int) (*Task, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.tasks[id]
	if !ok {
		return nil, fmt.Errorf("%w %d", ErrUnknownTask, id)
	}
	return t.clone(), nil
}

// Tasks returns snapshots of all tasks sorted by ID.
func (o *Orchestrator) Tasks() []*Task {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := make([]*Task, 0, len(o.tasks))
	for _, t := range o.tasks {
		out = append(out, t.clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// EndTask terminates a task, emits the lifecycle event at the transition,
// and eagerly releases its plan entries and codebook claims; remaining
// co-scheduled entries are re-applied to the devices immediately rather
// than waiting for the next Reconcile.
func (o *Orchestrator) EndTask(id int) error {
	o.mu.Lock()
	t, ok := o.tasks[id]
	if !ok {
		o.mu.Unlock()
		return fmt.Errorf("%w %d", ErrUnknownTask, id)
	}
	if t.State == TaskDone || t.State == TaskFailed {
		o.mu.Unlock()
		return nil
	}
	t.State = TaskDone
	o.emitLocked(t, telemetry.TaskDone)
	shrunk := o.releaseTaskLocked(t)
	o.mu.Unlock()
	o.reapply(shrunk)
	return nil
}

// reapply pushes the shrunken codebooks releaseTaskLocked reported to
// their devices. It runs outside o.mu — device drivers have their own
// locking and the writes may be slow (remote agents) — which is why it
// takes snapshots, not the live plans a concurrent release or commit
// rewrites under the lock.
func (o *Orchestrator) reapply(shrunk []*Plan) {
	for _, p := range shrunk {
		devs := make([]*hwmgr.Device, 0, len(p.Surfaces))
		for _, sid := range p.Surfaces {
			if d, err := o.HW.Surface(sid); err == nil {
				devs = append(devs, d)
			}
		}
		_ = o.applyEntries(devs, p.Entries)
	}
}

// releaseTaskLocked drops a task from the committed plans of its own
// shard — plan-entry release never crosses shards — and returns the
// snapshots reapply needs; the caller holds o.mu.
func (o *Orchestrator) releaseTaskLocked(t *Task) []*Plan {
	sh := o.shardByDomainLocked(t.Domain)
	if sh == nil {
		// No shard structure yet (task never reconciled): nothing to prune.
		return nil
	}
	return sh.dropTasks(func(tid int) bool { return tid == t.ID })
}

// SetIdle parks a running task without destroying it; idle tasks release
// hardware until resumed.
func (o *Orchestrator) SetIdle(id int, idle bool) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	t, ok := o.tasks[id]
	if !ok {
		return fmt.Errorf("%w %d", ErrUnknownTask, id)
	}
	switch {
	case idle && (t.State == TaskRunning || t.State == TaskPending):
		t.State = TaskIdle
		o.emitLocked(t, telemetry.TaskIdle)
	case !idle && t.State == TaskIdle:
		t.State = TaskPending
		o.emitLocked(t, telemetry.TaskResumed)
	}
	return nil
}

// Plans returns the current scheduling plans, concatenated across shards
// in domain order (deterministic merge).
func (o *Orchestrator) Plans() []*Plan {
	o.mu.Lock()
	defer o.mu.Unlock()
	var out []*Plan
	for _, sh := range o.shards {
		out = append(out, sh.plans...)
	}
	return out
}

// Now returns the orchestrator's virtual clock.
func (o *Orchestrator) Now() time.Time {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.now
}

// Tick advances the virtual clock: deadline-expired tasks complete, TDM
// frames rotate device codebook selections, and the hardware plan is
// re-reconciled (under ctx) when the active task set changed.
func (o *Orchestrator) Tick(ctx context.Context, dt time.Duration) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	o.mu.Lock()
	o.now = o.now.Add(dt)
	// Deadline expiry is routed to the owning shards: an expired task in
	// one room re-plans that room, not the building.
	expired := make(map[int]struct{})
	for _, t := range o.tasks {
		if t.active() && !t.Deadline.IsZero() && !o.now.Before(t.Deadline) {
			t.State = TaskDone
			o.emitLocked(t, telemetry.TaskDone)
			expired[t.Domain] = struct{}{}
		}
	}
	changed := len(expired) > 0
	// Rotate TDM selections while still holding the lock: plan rotation
	// state is shared, and Tick may be called from concurrent northbound
	// sessions. Device selection uses the drivers' own locks.
	type sel struct {
		id  string
		idx int
	}
	var sels []sel
	if !changed {
		for _, sh := range o.shards {
			for _, p := range sh.plans {
				if len(p.Entries) < 2 {
					continue
				}
				if idx := p.nextSlot(); idx >= 0 {
					for _, id := range p.Surfaces {
						sels = append(sels, sel{id: id, idx: idx})
					}
				}
			}
		}
	}
	o.mu.Unlock()

	if changed {
		domains := make([]int, 0, len(expired))
		for d := range expired {
			domains = append(domains, d)
		}
		sort.Ints(domains)
		return o.reconcileDomains(ctx, domains)
	}
	for _, sl := range sels {
		dev, err := o.HW.Surface(sl.id)
		if err != nil {
			continue
		}
		if dev.Drv.CodebookLen() > sl.idx {
			// TDM rotation doubles as a cheap heartbeat: selection
			// failures feed the health tracker, whose transitions drive
			// the self-healing re-plan.
			if err := dev.Drv.Select(sl.idx); err != nil {
				o.HW.RecordFailure(dev.ID, err)
			} else {
				o.HW.RecordSuccess(dev.ID)
			}
		}
	}
	return nil
}
