package orchestrator

import (
	"math"
	"sort"
	"strings"
	"time"

	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/surface"
	"surfos/internal/telemetry"
)

// Sharding: the orchestrator splits its task table and committed plans
// into one shard per interference domain (engine.Partition over the
// scene). Shards reconcile concurrently and independently — a dead
// device or an expired deadline re-plans its domain, not the building.
// Single-domain scenes degenerate to exactly the old monolithic path:
// one shard holding every device, reconciled serially.

// shard is one interference domain's scheduling state. All fields are
// guarded by the orchestrator's mutex except during a reconcile, which
// snapshots what it needs and commits results back under the lock.
type shard struct {
	id      int
	devices []string // member device IDs, sorted
	devSet  map[string]struct{}
	centers []geom.Vec3 // panel centers parallel to devices, for routing
	plans   []*Plan

	lastReconcile time.Duration // wall-clock cost of the last reconcile
	reconciles    uint64
}

func (sh *shard) owns(deviceID string) bool {
	_, ok := sh.devSet[deviceID]
	return ok
}

// dropTasks shrinks every committed plan by the tasks drop names: plans
// left without entries dissolve, freeing their surfaces. It returns, for
// each surviving plan that lost an entry (and so a codebook slot), a
// detached snapshot of its surfaces and entries for reapply. The caller
// holds the orchestrator lock.
func (sh *shard) dropTasks(drop func(taskID int) bool) []*Plan {
	var keep, shrunk []*Plan
	for _, p := range sh.plans {
		n := len(p.Entries)
		p.dropTasks(drop)
		if len(p.Entries) == 0 {
			continue
		}
		if len(p.Entries) < n {
			shrunk = append(shrunk, &Plan{Surfaces: p.Surfaces, Entries: p.Entries})
		}
		keep = append(keep, p)
	}
	sh.plans = keep
	return shrunk
}

// sameDevices reports whether two shards serve the identical device set.
func (sh *shard) sameDevices(other *shard) bool {
	if other == nil || len(sh.devices) != len(other.devices) {
		return false
	}
	for i, id := range sh.devices {
		if other.devices[i] != id {
			return false
		}
	}
	return true
}

// ShardStat is one shard's observable state for health reporting.
type ShardStat struct {
	// Domain is the shard's interference-domain index.
	Domain int
	// Surfaces lists the member device IDs.
	Surfaces []string
	// Tasks counts live (pending/running/idle) tasks routed to the shard.
	Tasks int
	// Running counts tasks currently holding resources.
	Running int
	// Reconciles counts completed per-shard reconciles.
	Reconciles uint64
	// LastReconcile is the wall-clock duration of the most recent
	// reconcile of this shard (0 before the first).
	LastReconcile time.Duration
}

// ShardStats returns per-shard task counts and reconcile latency, sorted
// by domain — the operator's view behind `surfctl health`.
func (o *Orchestrator) ShardStats() []ShardStat {
	o.geoMu.RLock()
	defer o.geoMu.RUnlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ensureShardsLocked()
	out := make([]ShardStat, len(o.shards))
	for i, sh := range o.shards {
		out[i] = ShardStat{
			Domain:        sh.id,
			Surfaces:      append([]string(nil), sh.devices...),
			Reconciles:    sh.reconciles,
			LastReconcile: sh.lastReconcile,
		}
	}
	for _, t := range o.tasks {
		if t.State == TaskDone || t.State == TaskFailed {
			continue
		}
		if t.Domain >= 0 && t.Domain < len(out) {
			out[t.Domain].Tasks++
			if t.State == TaskRunning {
				out[t.Domain].Running++
			}
		}
	}
	return out
}

// DomainForDevice returns the interference domain owning a device ID
// (ok=false for unknown devices).
func (o *Orchestrator) DomainForDevice(deviceID string) (int, bool) {
	o.geoMu.RLock()
	defer o.geoMu.RUnlock()
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ensureShardsLocked()
	d, ok := o.shardOf[deviceID]
	return d, ok
}

// apFreqs lists the registered AP carrier frequencies, ascending.
func (o *Orchestrator) apFreqs() []float64 {
	aps := o.HW.APs()
	out := make([]float64, 0, len(aps))
	for _, ap := range aps {
		out = append(out, ap.FreqHz)
	}
	sort.Float64s(out)
	return out
}

// couplingToDB is the best-case (max over bands) wall attenuation from
// any of the shard's panel centers to a point, in power dB.
func (o *Orchestrator) couplingToDB(sh *shard, p geom.Vec3, freqs []float64) float64 {
	best := math.Inf(-1)
	for _, c := range sh.centers {
		for _, f := range freqs {
			g := o.Scene.SegmentGain(c, p, f)
			if g <= 0 {
				continue
			}
			if db := 20 * math.Log10(g); db > best {
				best = db
			}
		}
	}
	return best
}

// routeLocked picks the owning shard for a task: the domain whose
// surfaces couple most strongly to the goal's spatial target, falling
// back to plain distance when every domain is fully blocked (the task
// will fail to schedule either way, but routing stays deterministic).
// Caller holds o.mu with shards built.
func (o *Orchestrator) routeLocked(t *Task, freqs []float64) int {
	if len(o.shards) <= 1 {
		return 0
	}
	var target geom.Vec3
	if svc, err := t.service(); err == nil {
		target = svc.Target(o, t.Goal)
	}
	best, bestDB := 0, math.Inf(-1)
	for _, sh := range o.shards {
		if len(sh.centers) == 0 {
			continue
		}
		if db := o.couplingToDB(sh, target, freqs); db > bestDB {
			best, bestDB = sh.id, db
		}
	}
	if !math.IsInf(bestDB, -1) {
		return best
	}
	best, bestDist := 0, math.Inf(1)
	for _, sh := range o.shards {
		for _, c := range sh.centers {
			if d := c.Dist(target); d < bestDist {
				best, bestDist = sh.id, d
			}
		}
	}
	return best
}

// ensureShardsLocked (re)builds the shard set when the scene geometry
// revision or the registered device set changed, re-routing every live
// task to its owning domain. Tasks whose serving surface set actually
// changed (a wall removal merging two domains, or a split) emit a
// TaskMigrated event — pure renumbering does not. Caller holds o.mu.
func (o *Orchestrator) ensureShardsLocked() {
	devs := o.HW.Surfaces()
	ids := make([]string, len(devs))
	for i, d := range devs {
		ids[i] = d.ID
	}
	sig := strings.Join(ids, "\x00")
	rev := o.Scene.Revision()
	if o.shards != nil && o.partRev == rev && o.partSig == sig {
		return
	}

	var domains [][]int
	if len(devs) <= 1 {
		all := make([]int, len(devs))
		for i := range all {
			all[i] = i
		}
		domains = [][]int{all}
	} else {
		surfs := make([]*surface.Surface, len(devs))
		for i, d := range devs {
			surfs[i] = d.Drv.Surface()
		}
		part, err := o.eng.Partition(engine.DomainSpec{
			Scene:    o.Scene,
			Surfaces: surfs,
			FreqsHz:  o.apFreqs(),
		})
		if err != nil || len(part.Domains) == 0 {
			all := make([]int, len(devs))
			for i := range all {
				all[i] = i
			}
			domains = [][]int{all}
		} else {
			domains = part.Domains
		}
	}

	prev := o.shards
	shards := make([]*shard, len(domains))
	shardOf := make(map[string]int, len(devs))
	for di, members := range domains {
		sh := &shard{
			id:      di,
			devices: make([]string, 0, len(members)),
			devSet:  make(map[string]struct{}, len(members)),
			centers: make([]geom.Vec3, 0, len(members)),
		}
		for _, mi := range members {
			d := devs[mi]
			sh.devices = append(sh.devices, d.ID)
			sh.devSet[d.ID] = struct{}{}
			sh.centers = append(sh.centers, d.Drv.Surface().Panel.Center())
			shardOf[d.ID] = di
		}
		shards[di] = sh
	}

	// Carry committed plans across the rebuild so Plans() stays complete
	// between the topology change and the reconcile it triggers: each old
	// plan lands in the new shard owning its first surface.
	for _, old := range prev {
		for _, p := range old.plans {
			target := shards[0]
			if len(p.Surfaces) > 0 {
				if di, ok := shardOf[p.Surfaces[0]]; ok {
					target = shards[di]
				}
			}
			target.plans = append(target.plans, p)
		}
	}
	// Reconcile counters survive for shards whose device set is unchanged
	// (the common single-domain case), so health history is not reset by
	// unrelated device registrations.
	for _, sh := range shards {
		for _, old := range prev {
			if sh.sameDevices(old) {
				sh.reconciles = old.reconciles
				sh.lastReconcile = old.lastReconcile
				break
			}
		}
	}

	o.shards = shards
	o.shardOf = shardOf
	o.partRev = rev
	o.partSig = sig

	// Re-route every non-terminal task, in ID order so migration events
	// are deterministic.
	taskIDs := make([]int, 0, len(o.tasks))
	for id := range o.tasks {
		taskIDs = append(taskIDs, id)
	}
	sort.Ints(taskIDs)
	freqs := o.apFreqs()
	for _, id := range taskIDs {
		t := o.tasks[id]
		if t.State == TaskDone || t.State == TaskFailed {
			continue
		}
		var oldShard *shard
		if prev != nil && t.Domain >= 0 && t.Domain < len(prev) {
			oldShard = prev[t.Domain]
		}
		t.Domain = o.routeLocked(t, freqs)
		if prev == nil {
			continue // first build: nothing to migrate from
		}
		if !shards[t.Domain].sameDevices(oldShard) {
			o.emitLocked(t, telemetry.TaskMigrated)
		}
	}
}

// shardByDomainLocked resolves a domain index; nil when out of range.
// Caller holds o.mu.
func (o *Orchestrator) shardByDomainLocked(domain int) *shard {
	if domain < 0 || domain >= len(o.shards) {
		return nil
	}
	return o.shards[domain]
}
