package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"surfos/internal/broker"
)

// The bucket-ceiling bug of BENCH_northbound.json (a p50 of exactly
// 1000 ms) cannot happen with exact samples: every quantile is a sample.
func TestQuantileNearestRank(t *testing.T) {
	samples := []float64{40, 10, 30, 20, 50} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0.5, 30}, {0.2, 10}, {0.21, 20}, {0.95, 50}, {0.99, 50}, {1, 50}, {0, 10},
	} {
		if got := quantile(samples, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{1, 2, 3, 4}, 0.5); got != 2 {
		t.Errorf("even-count median = %v, want the lower middle sample 2", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if samples[0] != 40 {
		t.Error("quantile sorted its input in place")
	}
}

func TestSpanSelfTime(t *testing.T) {
	// op(0..100) > reconcile(10..70) > optimize(20..50); op > submit(80..90).
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "reconcile", StartNs: 10, EndNs: 70},
		{ID: 2, Parent: 1, Name: "optimize", StartNs: 20, EndNs: 50},
		{ID: 3, Parent: 0, Name: "submit", StartNs: 80, EndNs: 90},
	}
	want := map[string][2]time.Duration{ // total, self
		"op": {100, 30}, "reconcile": {60, 30}, "optimize": {30, 30}, "submit": {10, 10},
	}
	var self time.Duration
	for _, lt := range selfTimes(spans) {
		if w := want[lt.Name]; lt.Total != w[0] || lt.Self != w[1] {
			t.Errorf("%s: total %d self %d, want %d %d", lt.Name, lt.Total, lt.Self, w[0], w[1])
		}
		self += lt.Self
	}
	if self != 100 {
		t.Errorf("self times sum to %d, want the root's duration 100", self)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer(8)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	if tr.spans[inner].Parent != outer || tr.spans[sibling].Parent != outer || tr.spans[outer].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	var none *tracer
	none.end(none.begin("ignored")) // the untraced run's nil tracer is inert
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := scheduleHash(w, 1, 200), scheduleHash(w, 1, 200)
		if a != b {
			t.Errorf("%s: seed 1 generated two different schedules", w.name)
		}
		// Two workloads have no choice to make: every toggle and every boot
		// is the same op (the seed picks the boot image's contents instead).
		seeded := w.name == "apt-demand" || w.name == "strip-churn"
		if c := scheduleHash(w, reference.Seeds.HeldOut, 200); seeded && c == a {
			t.Errorf("%s: seeds 1 and 7 generated the same schedule", w.name)
		}
	}
}

// Every demand must expand to exactly one service call and never to
// sensing, which takes minutes per task on this stack.
func TestDemandsAvoidSensing(t *testing.T) {
	tr := broker.NewTranslator()
	for _, d := range demands {
		calls, err := tr.Translate(d.utterance)
		if err != nil || len(calls) != 1 {
			t.Errorf("%q: calls %v, err %v; want exactly one call", d.utterance, calls, err)
			continue
		}
		if calls[0].Function == broker.FuncEnableSensing {
			t.Errorf("%q expands to sensing", d.utterance)
		}
	}
}

// shortOps is about how many ops a tier-1 run measures (whole blocks). A
// boot is the same op every time and costs ten of the others.
func shortOps(w *workload) int {
	if w.name == "strip-boot" {
		return 6
	}
	return 20
}

// shortRun is a run small enough for tier-1, on the path every run takes:
// -seconds short enough that the workload's op count comes to about
// shortOps and its warm-up to one block.
func shortRun(t *testing.T, w *workload, setups int, traceFile string) *result {
	t.Helper()
	seconds := float64(shortOps(w)) / reference.Workloads[w.name].OpsPerSecond
	res := run(w, config{seed: 1, seconds: seconds, setups: setups, traceFile: traceFile, scratch: t.TempDir()})
	for _, err := range res.errs {
		t.Errorf("%s: %v", w.name, err)
	}
	return res
}

// Correctness only, never a timing: every output check of a real run must
// hold on a short one.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // most of a short run is waiting for fsyncs
			// Two set-ups, so tear-down and rebuild are covered.
			res := shortRun(t, w, 2, "")
			rep := res.report()
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < shortOps(w)-w.block {
				t.Fatalf("report %+v", rep)
			}
			for _, d := range endToEnd {
				if m, ok := rep.Metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
					t.Errorf("%s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics reported, want the %d end-to-end ones", len(rep.Metrics), len(endToEnd))
			}
			// The digest covers the warm-up, so the repeat can be brief.
			if again := shortRun(t, w, 1, ""); again.planDigest != res.planDigest {
				t.Errorf("plan digest differs between two runs of seed 1: %s, %s", res.planDigest, again.planDigest)
			}
		})
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	t.Parallel()
	w := workloadByName("strip-churn")
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	res := shortRun(t, w, 1, traceFile)
	rep := res.report()
	if !rep.Correct {
		t.Fatalf("report %+v", rep)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, want the %d per-layer ones", len(rep.Metrics), len(perLayer))
	}
	for _, name := range []string{
		"orchestrator.reconcile_ms", "orchestrator.domains_per_op", "optimize.busy_ms_per_op",
		"engine.tx_misses_per_op", "store.records_per_op", "ctrlproto.events_delivered_per_op",
		"ctrlproto.rpc_floor_us", "store.append_fsync_us", "kind.move.loop_p50_ms",
	} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want it measured on strip-churn", name, rep.Metrics[name].Value)
		}
	}
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace dump: %d spans, err %v", len(spans), err)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Fatalf("malformed span %+v", s)
		}
	}
}

// -seconds becomes a fixed op count: whole blocks, the same on every run.
func TestSecondsMapToAFixedOpCount(t *testing.T) {
	for _, w := range workloads {
		ref, ok := reference.Workloads[w.name]
		if !ok || ref.OpsPerSecond <= 0 {
			t.Fatalf("%s: reference.json has no ops_per_second", w.name)
		}
		ops := w.measuredOps(30)
		if ops%w.block != 0 || float64(ops) < 29*ref.OpsPerSecond || float64(ops) > 31*ref.OpsPerSecond {
			t.Errorf("%s: 30 s map to %d ops; want whole blocks of %d, about %.0f", w.name, ops, w.block, 30*ref.OpsPerSecond)
		}
		if warm := w.warmupOps(ops); warm%w.block != 0 || warm < ops/20 || warm >= ops/20+w.block {
			t.Errorf("%s: warm-up of %d ops before %d; want 5 %% in whole blocks of %d", w.name, warm, ops, w.block)
		}
		if w.setups < 3 {
			t.Errorf("%s: setup_s would be the median of %d set-up(s)", w.name, w.setups)
		}
		if got := w.measuredOps(0.001); got != w.block {
			t.Errorf("%s: the shortest phase is %d ops, want one block of %d", w.name, got, w.block)
		}
	}
	if reference.Seeds.Default != 1 || reference.Seeds.HeldOut != 7 {
		t.Errorf("seeds %+v, want default 1 and held-out 7", reference.Seeds)
	}
}

// BENCHMARK.json is the contract the driver reads; the program must report
// exactly the workloads and metrics it lists, and reference.json must say
// of every per-layer metric what it should move.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &contract); err != nil {
		t.Fatal(err)
	}
	if len(contract.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(contract.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := contract.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: listed %+v, program has %s: %s", i, got, w.name, w.why)
		}
	}
	same := func(kind string, listed []struct{ Name, Unit string }, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Errorf("%s: %d metrics listed, the program reports %d", kind, len(listed), len(defs))
			return
		}
		for i, d := range defs {
			if listed[i].Name != d.name || listed[i].Unit != d.unit {
				t.Errorf("%s metric %d: listed %+v, program reports %+v", kind, i, listed[i], d)
			}
		}
	}
	same("end_to_end", contract.EndToEnd, endToEnd)
	same("per_layer", contract.PerLayer, perLayer)
	for _, d := range perLayer {
		if reference.ShouldMove[d.name] == "" {
			t.Errorf("reference.json: should_move has no entry for %s", d.name)
		}
	}
	if len(reference.ShouldMove) != len(perLayer) {
		t.Errorf("reference.json: should_move has %d entries, the program reports %d per-layer metrics", len(reference.ShouldMove), len(perLayer))
	}
}
