package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"surfos/internal/driver"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/optimize"
	"surfos/internal/surface"
	"surfos/internal/telemetry"
)

// This file is the service-agnostic scheduler core: grouping, strategy
// selection, plan building, optimization, and commit. It consumes
// tasks purely through the Service interface — per-service objective
// construction and result extraction live in the service_*.go modules, so
// registering a new service never requires edits here.

// group is one frequency-band scheduling domain.
type group struct {
	band  Band
	tasks []*Task
	devs  []*hwmgr.Device
}

// Reconcile runs the scheduler over every interference-domain shard:
// each shard groups its active tasks by frequency, chooses a
// multiplexing strategy per group, optimizes configurations, pushes them
// to devices, and fills in task results. Shards are independent
// scheduling problems, so they run concurrently on the engine's worker
// pool; results commit in domain order, so the merged plan set is
// deterministic. Single-domain scenes (and 1-worker engines) take the
// exact serial path the monolithic scheduler did.
//
// Cancellation semantics: the ctx is checked before each shard starts and
// inside the optimizer loop, and nowhere else. A shard that has started is
// planned whole: every group and every cell is built, each optimizer run
// the cancel reaches applies its best-so-far configuration (bounded
// degradation, not half-written state), and the shard's plans are
// committed, so a cancel neither fails a task nor drops a running task
// from the plans. Shards that had not started keep their previous plans.
// The ctx error is returned wrapped in ErrOptimizeStopped.
//
// Passes never overlap: a request that arrives while one runs is folded,
// with every other such request, into the next pass (reconcileDomains).
func (o *Orchestrator) Reconcile(ctx context.Context) error {
	return o.reconcileDomains(ctx, nil)
}

// ReconcileDomain re-plans a single interference domain, leaving every
// other shard's plans untouched — the locality win behind event-routed
// self-healing and admission.
func (o *Orchestrator) ReconcileDomain(ctx context.Context, domain int) error {
	return o.reconcileDomains(ctx, []int{domain})
}

// ReconcileTask re-plans only the shard owning the given task (a full
// Reconcile for unknown tasks, preserving the legacy contract).
func (o *Orchestrator) ReconcileTask(ctx context.Context, taskID int) error {
	o.mu.Lock()
	t, ok := o.tasks[taskID]
	var domain int
	if ok {
		domain = t.Domain
	}
	o.mu.Unlock()
	if !ok {
		return o.Reconcile(ctx)
	}
	return o.ReconcileDomain(ctx, domain)
}

// replanBatch is the re-plan requests one pass serves: the domains they
// named, or all of them once a request named none. The fields that
// requests fill in are guarded by o.mu until the pass takes the batch;
// done and err are written and read under o.passMu.
type replanBatch struct {
	all      bool
	domains  map[int]bool
	requests int // callers folded into the batch
	done     bool
	err      error
}

// selection is the batch's domains in ascending order, nil for all.
func (b *replanBatch) selection() []int {
	if b.all {
		return nil
	}
	out := make([]int, 0, len(b.domains))
	for d := range b.domains {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// reconcileDomains is the one entry behind every re-plan: Reconcile,
// ReconcileDomain, ReconcileTask, Tick expiry and self-healing. It re-plans
// the selected shards (nil = all), one pass at a time. A request joins the
// pending batch and then waits for the pass lock; the caller that takes it
// runs the whole batch — every request queued so far — as one pass, and a
// caller whose batch a finished pass already served returns that pass's
// error (one whose ctx ended while it waited runs nothing). So a burst of requests costs one pass, and no caller returns
// before a pass that started after its request has committed.
func (o *Orchestrator) reconcileDomains(ctx context.Context, domains []int) error {
	if err := ctxErr(ctx); err != nil {
		return err
	}
	o.mu.Lock()
	b := o.batch
	if b == nil {
		b = &replanBatch{domains: map[int]bool{}}
		o.batch = b
	}
	b.requests++
	b.all = b.all || domains == nil
	for _, d := range domains {
		b.domains[d] = true
	}
	o.mu.Unlock()

	o.passMu.Lock()
	defer o.passMu.Unlock()
	if b.done {
		return b.err
	}
	if err := ctxErr(ctx); err != nil {
		// A caller that gave up while queued leaves the batch to the next
		// one: the other requests in it are not its to cancel.
		return err
	}
	o.mu.Lock()
	o.batch = nil // later requests wait for the next pass
	o.mu.Unlock()
	b.err = o.pass(ctx, b.selection())
	b.done = true
	return b.err
}

// pass schedules the selected shards (nil = all); the caller holds passMu.
// Shards run concurrently via the engine's worker pool, writing results by
// index; commit happens under the lock in domain order.
func (o *Orchestrator) pass(ctx context.Context, domains []int) error {
	// Exclude geometry edits for the whole pass: the ray traces and
	// partition below read the scene, and EditScene writers wait until
	// the plan commits.
	o.geoMu.RLock()
	defer o.geoMu.RUnlock()
	o.mu.Lock()
	o.ensureShardsLocked()
	var sel []*shard
	if domains == nil {
		sel = append(sel, o.shards...)
	} else {
		for _, d := range domains {
			if sh := o.shardByDomainLocked(d); sh != nil {
				sel = append(sel, sh)
			}
		}
		if len(sel) == 0 {
			// Stale domain IDs (topology changed underfoot): fall back to
			// a full pass rather than silently planning nothing.
			sel = append(sel, o.shards...)
		}
	}
	work := make([][]*Task, len(sel))
	for i, sh := range sel {
		var act []*Task
		for _, t := range o.tasks {
			if t.Domain == sh.id && (t.State == TaskPending || t.State == TaskRunning) {
				act = append(act, t)
			}
		}
		sort.Slice(act, func(a, b int) bool { return act[a].ID < act[b].ID })
		work[i] = act
	}
	o.mu.Unlock()

	results := make([][]*Plan, len(sel))
	errs := make([]error, len(sel))
	commit := make([]bool, len(sel))
	durs := make([]time.Duration, len(sel))
	ferr := o.eng.ForEach(ctx, len(sel), func(i int) {
		start := time.Now()
		results[i], commit[i], errs[i] = o.scheduleShard(ctx, sel[i], work[i])
		durs[i] = time.Since(start)
	})

	o.mu.Lock()
	var shrunk []*Plan
	for i, sh := range sel {
		if !commit[i] {
			continue
		}
		// A task that was ended or parked between the reconcile snapshot
		// and this commit (a concurrent EndTask or SetIdle) leaves the
		// plans it was just given, so committed plans only ever reference
		// tasks that are still pending or running.
		sh.plans = results[i]
		shrunk = append(shrunk, sh.dropTasks(func(tid int) bool {
			t, ok := o.tasks[tid]
			return ok && !t.active()
		})...)
		sh.lastReconcile = durs[i]
		sh.reconciles++
		if o.latHist != nil {
			o.latHist.Observe(durs[i].Seconds())
		}
	}
	o.mu.Unlock()
	// The devices were written with the dropped tasks' entries; give them
	// the committed codebooks.
	o.reapply(shrunk)

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil && ferr != nil {
		firstErr = fmt.Errorf("%w: %w", ErrOptimizeStopped, ferr)
	}
	return firstErr
}

// scheduleShard plans one shard's active task set. The returned commit
// flag mirrors the monolithic scheduler's contract: grouping failures
// (no AP registered) leave the previous plans standing, while scheduling
// failures commit whatever was planned. A cancel does not cut the shard
// short: every group is planned (buildPlan), so the committed plans never
// lose a group whose tasks stay running.
func (o *Orchestrator) scheduleShard(ctx context.Context, sh *shard, act []*Task) ([]*Plan, bool, error) {
	groups, err := o.groupTasksIn(act, sh)
	if err != nil {
		return nil, false, err
	}
	var plans []*Plan
	var firstErr error
	for _, g := range groups {
		p, err := o.scheduleGroup(ctx, g)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		plans = append(plans, p...)
	}
	return plans, true, firstErr
}

// groupTasksIn resolves each task's AP and frequency and buckets tasks
// within one shard: band device sets are intersected with the shard's
// member surfaces, so a group never schedules across domains. Task
// mutations (frequency resolution, failure marking) happen under the
// orchestrator lock so concurrent snapshot readers never observe them
// mid-write.
func (o *Orchestrator) groupTasksIn(act []*Task, sh *shard) ([]*group, error) {
	aps := o.HW.APs()
	if len(aps) == 0 && len(act) > 0 {
		return nil, fmt.Errorf("%w registered", ErrNoAccessPoint)
	}
	byFreq := make(map[float64]*group)
	var order []float64
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, t := range act {
		svc, err := t.service()
		if err != nil {
			o.failLocked(t, err)
			continue
		}
		f := svc.Freq(t.Goal)
		var ap *hwmgr.AccessPoint
		if f == 0 {
			ap = aps[0]
			f = ap.FreqHz
		} else {
			for _, a := range aps {
				if a.FreqHz == f {
					ap = a
					break
				}
			}
			if ap == nil {
				o.failLocked(t, fmt.Errorf("%w serves %g Hz", ErrNoAccessPoint, f))
				continue
			}
		}
		g, ok := byFreq[f]
		if !ok {
			devs := o.HW.SurfacesForBand(f)
			if sh != nil {
				in := devs[:0:0]
				for _, d := range devs {
					if sh.owns(d.ID) {
						in = append(in, d)
					}
				}
				devs = in
			}
			g = &group{band: Band{AP: ap, FreqHz: f}, devs: devs}
			byFreq[f] = g
			order = append(order, f)
		}
		if len(g.devs) == 0 {
			o.failLocked(t, fmt.Errorf("%w support %g Hz", ErrNoActiveSurfaces, f))
			continue
		}
		t.FreqHz = f
		g.tasks = append(g.tasks, t)
	}
	sort.Float64s(order)
	out := make([]*group, 0, len(order))
	for _, f := range order {
		if len(byFreq[f].tasks) > 0 {
			out = append(out, byFreq[f])
		}
	}
	return out, nil
}

func (o *Orchestrator) failTask(t *Task, err error) {
	o.mu.Lock()
	o.failLocked(t, err)
	o.mu.Unlock()
}

// failLocked marks a task failed and emits the lifecycle event; the caller
// holds o.mu. A task ended or parked since the pass took its snapshot keeps
// its state.
func (o *Orchestrator) failLocked(t *Task, err error) {
	if !t.active() {
		return
	}
	t.State = TaskFailed
	t.Err = err
	o.emitLocked(t, telemetry.TaskFailed)
}

// pickStrategy implements the policy decision.
func (o *Orchestrator) pickStrategy(g *group) string {
	if len(g.tasks) == 1 {
		return StrategySolo
	}
	switch o.Opts.Policy {
	case PolicyTDM:
		return StrategyTDM
	case PolicyJoint:
		return StrategyJoint
	case PolicySDM:
		return StrategySDM
	}
	// Auto.
	for _, d := range g.devs {
		if !d.Drv.Spec().Reconfigurable {
			// A passive surface holds exactly one configuration: joint
			// configuration multiplexing is its only sharing mechanism.
			return StrategyJoint
		}
	}
	if len(g.devs) >= len(g.tasks) {
		return StrategySDM
	}
	if len(g.tasks) <= 3 {
		return StrategyJoint
	}
	return StrategyTDM
}

// scheduleGroup plans one frequency group.
func (o *Orchestrator) scheduleGroup(ctx context.Context, g *group) ([]*Plan, error) {
	strategy := o.pickStrategy(g)
	if strategy == StrategySDM {
		return o.scheduleSDM(ctx, g)
	}
	p, err := o.buildPlan(ctx, g, strategy)
	if err != nil {
		return nil, err
	}
	return []*Plan{p}, nil
}

// reflOrder is the environment reflection order every plan is traced at.
const reflOrder = 1

// specFor describes the engine simulator configuration for a device
// subset. Identical device subsets (the common case across successive
// Reconciles) share the engine's cached simulator and ray traces.
func (o *Orchestrator) specFor(freq float64, devs []*hwmgr.Device) engine.Spec {
	surfs := make([]*surface.Surface, len(devs))
	eff := 1.0
	for i, d := range devs {
		surfs[i] = d.Drv.Surface()
		if e := d.Drv.Spec().ElementEfficiency; e > 0 && e < eff {
			eff = e
		}
	}
	return engine.Spec{
		Scene:             o.Scene,
		FreqHz:            freq,
		Surfaces:          surfs,
		ReflOrder:         reflOrder,
		Cascade:           o.Opts.Cascade && len(devs) > 1,
		ElementEfficiency: eff,
	}
}

// taskTerm dispatches to the task's service module for its loss term: the
// objective, its weight inside a joint sum, and the result evaluator.
func (o *Orchestrator) taskTerm(ctx context.Context, t *Task, g *group, spec engine.Spec) (optimize.Objective, float64, Evaluator, error) {
	svc, err := t.service()
	if err != nil {
		return nil, 0, nil, err
	}
	obj, eval, err := svc.BuildObjective(ctx, o, t, g.band, spec)
	if err != nil {
		return nil, 0, nil, err
	}
	return obj, svc.Weight(o, t, obj), eval, nil
}

// optimizeConfigs plans an objective over a device set through
// optimize.Plan and records the run on the optimize metrics. Each task's
// evaluator scores the realized phases.
func (o *Orchestrator) optimizeConfigs(ctx context.Context, obj optimize.Objective, devs []*hwmgr.Device) optimize.Result {
	start := time.Now()
	drvs := make([]*driver.Driver, len(devs))
	for i, d := range devs {
		drvs[i] = d.Drv
	}
	res := optimize.Plan(ctx, obj, drvs, o.Opts.OptIters)
	o.observeOptimize(time.Since(start), res)
	return res
}

// observeOptimize feeds one optimizer run into the observability surface:
// the sweep-latency histogram and the per-run eval counters exported by
// RegisterMetrics. Safe from concurrent shard reconciles.
func (o *Orchestrator) observeOptimize(d time.Duration, res optimize.Result) {
	o.mu.Lock()
	h := o.sweepHist
	o.mu.Unlock()
	if h != nil {
		h.Observe(d.Seconds())
	}
	o.optRuns.Add(1)
	o.optEvals.Add(uint64(res.Evals))
}

// applyEntries pushes each entry's configs to the devices as a codebook
// write. Passive devices that are already fabricated are left untouched.
func (o *Orchestrator) applyEntries(devs []*hwmgr.Device, entries []PlanEntry) error {
	var firstErr error
	for _, d := range devs {
		labels := make([]string, 0, len(entries))
		cfgs := make([]surface.Config, 0, len(entries))
		for _, e := range entries {
			cfg, ok := e.Configs[d.ID]
			if !ok {
				continue
			}
			labels = append(labels, e.Label)
			cfgs = append(cfgs, cfg)
		}
		if len(cfgs) == 0 {
			continue
		}
		err := d.Drv.StoreCodebook(labels, cfgs)
		if errors.Is(err, driver.ErrFixed) {
			continue // passive device keeps its burned-in pattern
		}
		if err != nil {
			o.HW.RecordFailure(d.ID, err)
			if errors.Is(err, driver.ErrDeviceDead) {
				// A device that died between planning and apply is a
				// health event, not a plan failure: the transition just
				// recorded triggers a re-plan around it, and failing the
				// whole group here would take down tasks the surviving
				// surfaces can still serve.
				continue
			}
			if firstErr == nil {
				firstErr = fmt.Errorf("orchestrator: device %s: %w", d.ID, err)
			}
			continue
		}
		o.HW.RecordSuccess(d.ID)
	}
	return firstErr
}

// markRunning finalizes task state and results, emitting the scheduled and
// running lifecycle events. A task ended or parked since the pass took its
// snapshot keeps its state, and the commit drops it from the plan.
func (o *Orchestrator) markRunning(t *Task, res *Result) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if !t.active() {
		return
	}
	t.State = TaskRunning
	t.Result = res
	o.emitLocked(t, telemetry.TaskScheduled)
	o.emitLocked(t, telemetry.TaskRunning)
}

// cell is one plan entry in the making: the tasks that will share one
// configuration, and the entry's label and time share.
type cell struct {
	label string
	share float64
	tasks []*Task
}

// builtCell is what planning one cell produced: its entry, the tasks it
// serves with their results (Share, Surfaces and Strategy are filled in at
// assembly), and the tasks whose objective failed to build.
type builtCell struct {
	entry   PlanEntry
	served  []*Task
	results []*Result
	failed  []*Task
	errs    []error // errs[i] is why failed[i] failed
	err     error   // the cell's terms could not be summed
}

// partition is all a multiplexing strategy decides. TDM gives each task its
// own configuration, rotated as time slices weighted by priority; every
// other strategy shares one configuration among the (sub)group — the
// paper's §4 "surface multitasking" when it holds more than one task.
func partition(strategy string, tasks []*Task) []cell {
	if strategy != StrategyTDM {
		return []cell{{label: strategy, share: 1, tasks: tasks}}
	}
	cells := make([]cell, len(tasks))
	for i, t := range tasks {
		cells[i] = cell{label: fmt.Sprintf("task-%d", t.ID), share: float64(t.Priority), tasks: []*Task{t}}
	}
	return cells
}

// buildPlan is the one path from a group to a live plan, whatever the
// strategy. The cells are independent problems, so they are planned
// concurrently on the engine's worker pool (buildCell; a one-cell plan runs
// inline). Assembly is serial and in cell order: fail the tasks whose
// objective failed to build, collect the entries, frame them, push them to
// the devices and mark every served task running with its cell's result.
// Every cell's optimizer run is deterministic and independent of the
// others, so the plan and its events are those of a serial build.
//
// A started build is finished whole: only the optimizer sees ctx, and a
// run it cancels applies its best-so-far configuration. Every other step
// runs uncancelled, so a cancel never fails a task.
func (o *Orchestrator) buildPlan(ctx context.Context, g *group, strategy string) (*Plan, error) {
	spec := o.specFor(g.band.FreqHz, g.devs)
	p := &Plan{FreqHz: g.band.FreqHz, APID: g.band.AP.ID, Strategy: strategy}
	for _, d := range g.devs {
		p.Surfaces = append(p.Surfaces, d.ID)
	}
	whole := context.WithoutCancel(ctx)
	cells := partition(strategy, g.tasks)
	built := make([]builtCell, len(cells))
	// whole is never cancelled, so ForEach runs every cell and returns nil.
	_ = o.eng.ForEach(whole, len(cells), func(i int) {
		built[i] = o.buildCell(ctx, whole, cells[i], g, spec)
	})
	var live []builtCell
	for _, b := range built {
		for i, t := range b.failed {
			o.failTask(t, b.errs[i])
		}
		if b.err != nil {
			return nil, b.err
		}
		if len(b.served) > 0 {
			p.Entries = append(p.Entries, b.entry)
			live = append(live, b)
		}
	}
	if len(p.Entries) == 0 {
		return nil, fmt.Errorf("%w at %g Hz", ErrNoSchedulableTasks, g.band.FreqHz)
	}
	p.buildFrame()
	if err := o.applyEntries(g.devs, p.Entries); err != nil {
		return nil, err
	}
	for e, b := range live {
		for i, t := range b.served {
			r := b.results[i]
			r.Share = p.shareOf(e)
			r.Surfaces = p.Surfaces
			r.Strategy = strategy
			o.markRunning(t, r)
		}
	}
	return p, nil
}

// buildCell plans one cell: build each task's objective (a task whose
// objective fails to build fails alone), optimize their weighted sum into
// the cell's entry, and evaluate each served task on the result. It writes
// nothing shared, so cells may be built concurrently. Only the optimizer
// runs under ctx; everything else runs under whole, which is not cancelled.
func (o *Orchestrator) buildCell(ctx, whole context.Context, c cell, g *group, spec engine.Spec) builtCell {
	b := builtCell{entry: PlanEntry{Label: c.label, Share: c.share, Configs: map[string]surface.Config{}}}
	var terms []optimize.Objective
	var weights []float64
	var evals []Evaluator
	for _, t := range c.tasks {
		obj, weight, eval, err := o.taskTerm(whole, t, g, spec)
		if err != nil {
			b.failed = append(b.failed, t)
			b.errs = append(b.errs, err)
			continue
		}
		terms = append(terms, obj)
		weights = append(weights, weight)
		evals = append(evals, eval)
		b.served = append(b.served, t)
		b.entry.TaskIDs = append(b.entry.TaskIDs, t.ID)
	}
	if len(terms) == 0 {
		return b
	}
	obj := terms[0]
	if len(terms) > 1 {
		ws, err := optimize.NewWeightedSum(terms, weights)
		if err != nil {
			b.err = err
			return b
		}
		obj = ws
	}
	res := o.optimizeConfigs(ctx, obj, g.devs)
	for i, cfg := range optimize.PhasesToConfigs(res.Phases) {
		b.entry.Configs[g.devs[i].ID] = cfg
	}
	for _, eval := range evals {
		b.results = append(b.results, eval(res.Phases))
	}
	return b
}

// scheduleSDM partitions surfaces among tasks by proximity to the task's
// spatial target and optimizes each partition independently.
func (o *Orchestrator) scheduleSDM(ctx context.Context, g *group) ([]*Plan, error) {
	assign := o.assignSurfaces(g)
	var plans []*Plan
	var firstErr error
	for ti, t := range g.tasks {
		devs := assign[ti]
		if len(devs) == 0 {
			o.failTask(t, fmt.Errorf("%w for task %d under SDM", ErrNoActiveSurfaces, t.ID))
			continue
		}
		sub := &group{band: g.band, tasks: []*Task{t}, devs: devs}
		p, err := o.buildPlan(ctx, sub, StrategySDM)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			o.failTask(t, err)
			continue
		}
		plans = append(plans, p)
	}
	if len(plans) == 0 && firstErr != nil {
		return nil, firstErr
	}
	return plans, nil
}

// assignSurfaces greedily gives each task its nearest unassigned surface
// (by target centroid), then distributes leftovers to the nearest task.
func (o *Orchestrator) assignSurfaces(g *group) [][]*hwmgr.Device {
	target := make([]geom.Vec3, len(g.tasks))
	for i, t := range g.tasks {
		target[i] = o.taskTarget(t)
	}
	assign := make([][]*hwmgr.Device, len(g.tasks))
	used := make([]bool, len(g.devs))
	// Tasks in priority order pick their nearest free surface.
	order := make([]int, len(g.tasks))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := g.tasks[order[a]], g.tasks[order[b]]
		if ta.Priority != tb.Priority {
			return ta.Priority > tb.Priority
		}
		return ta.ID < tb.ID
	})
	for _, ti := range order {
		best, bestD := -1, math.Inf(1)
		for di, d := range g.devs {
			if used[di] {
				continue
			}
			if dist := d.Drv.Surface().Panel.Center().Dist(target[ti]); dist < bestD {
				best, bestD = di, dist
			}
		}
		if best >= 0 {
			assign[ti] = append(assign[ti], g.devs[best])
			used[best] = true
		}
	}
	// Leftover surfaces reinforce their nearest task.
	for di, d := range g.devs {
		if used[di] {
			continue
		}
		best, bestD := 0, math.Inf(1)
		for ti := range g.tasks {
			if dist := d.Drv.Surface().Panel.Center().Dist(target[ti]); dist < bestD {
				best, bestD = ti, dist
			}
		}
		assign[best] = append(assign[best], d)
	}
	return assign
}

// taskTarget returns a task's spatial focus for SDM assignment via its
// service module.
func (o *Orchestrator) taskTarget(t *Task) geom.Vec3 {
	svc, err := t.service()
	if err != nil {
		return geom.Vec3{}
	}
	return svc.Target(o, t.Goal)
}
