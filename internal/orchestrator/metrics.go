package orchestrator

import (
	"strconv"

	"surfos/internal/metrics"
)

// RegisterMetrics exposes the orchestrator's scheduling and admission
// state on a metrics registry: a reconcile-latency histogram fed from
// every per-shard reconcile, and scrape-time collectors over the dynamic
// shard and tenant sets.
func (o *Orchestrator) RegisterMetrics(r *metrics.Registry) {
	h := r.Histogram("surfos_reconcile_duration_seconds",
		"Wall-clock duration of one interference-domain shard reconcile.",
		metrics.DurationBuckets)
	sw := r.Histogram("surfos_optimize_sweep_duration_seconds",
		"Wall-clock duration of one configuration-optimizer run. The cells of a plan run concurrently, so the sum can exceed the reconcile's wall time.",
		metrics.DurationBuckets)
	o.mu.Lock()
	o.latHist = h
	o.sweepHist = sw
	o.mu.Unlock()

	r.CounterFunc("surfos_optimize_runs_total",
		"Configuration-optimizer runs completed across all reconciles.",
		func() float64 { return float64(o.optRuns.Load()) })
	r.CounterFunc("surfos_optimize_evals_total",
		"Objective evaluations performed by the optimizer.",
		func() float64 { return float64(o.optEvals.Load()) })

	r.RegisterCollector(func() []metrics.Family {
		shards := o.ShardStats()
		tasksF := metrics.Family{Name: "surfos_shard_tasks", Help: "Live tasks routed to the shard.", Type: "gauge"}
		runningF := metrics.Family{Name: "surfos_shard_running", Help: "Tasks currently holding resources in the shard.", Type: "gauge"}
		surfacesF := metrics.Family{Name: "surfos_shard_surfaces", Help: "Member surfaces of the shard.", Type: "gauge"}
		reconcilesF := metrics.Family{Name: "surfos_shard_reconciles_total", Help: "Completed reconciles of the shard.", Type: "counter"}
		for _, sh := range shards {
			lbl := []metrics.Label{{Name: "domain", Value: strconv.Itoa(sh.Domain)}}
			tasksF.Samples = append(tasksF.Samples, metrics.Sample{Labels: lbl, Value: float64(sh.Tasks)})
			runningF.Samples = append(runningF.Samples, metrics.Sample{Labels: lbl, Value: float64(sh.Running)})
			surfacesF.Samples = append(surfacesF.Samples, metrics.Sample{Labels: lbl, Value: float64(len(sh.Surfaces))})
			reconcilesF.Samples = append(reconcilesF.Samples, metrics.Sample{Labels: lbl, Value: float64(sh.Reconciles)})
		}

		tenants := o.TenantStats()
		activeF := metrics.Family{Name: "surfos_tenant_active_tasks", Help: "Live tasks admitted for the tenant.", Type: "gauge"}
		rejectedF := metrics.Family{Name: "surfos_admission_rejected_total", Help: "Task submissions rejected by admission control.", Type: "counter"}
		for _, tn := range tenants {
			lbl := []metrics.Label{{Name: "tenant", Value: tn.Tenant}}
			activeF.Samples = append(activeF.Samples, metrics.Sample{Labels: lbl, Value: float64(tn.Active)})
			rejectedF.Samples = append(rejectedF.Samples, metrics.Sample{Labels: lbl, Value: float64(tn.Rejected)})
		}
		return []metrics.Family{tasksF, runningF, surfacesF, reconcilesF, activeF, rejectedF}
	})
}
