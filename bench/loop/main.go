// Command loop is the SurfOS control-loop benchmark: it assembles the
// control plane cmd/surfosd assembles, drives it closed-loop from this one
// process over two loopback connections (an RPC client and a watcher
// carrying the event streams), checks what came out, and prints every
// metric by name with its unit. bench/README.md defines the workloads and
// metrics; BENCHMARK.json is the machine-readable contract.
//
// Usage (from the repository root):
//
//	go run ./bench/loop -workload apt-demand|apt-fanout|strip-churn|strip-boot
//	                    [-seed 1] [-seconds 30] [-trace 0|1|FILE]
//
// -seconds sets the workload's fixed op count (reference.json holds the
// rates). The last line of standard output is one JSON object: the
// end-to-end metrics of an untraced run (-trace 0), or the per-layer metrics
// of a traced one. The exit code is non-zero when an output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the machine-readable last line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", reference.Seeds.Default, "load seed: the same seed generates the same inputs")
	// The benchmark contract passes -seconds; each workload turns it into its
	// fixed op count (workload.measuredOps).
	seconds := flag.Float64("seconds", 30, "nominal length of the measured phase: sets the workload's op count")
	trace := flag.String("trace", "0", "0: untraced run, end-to-end metrics; 1 or a file name: traced run, per-layer metrics and a span dump")
	flag.Parse()

	w := workloadByName(*name)
	if w == nil || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "loop: -workload must be one of %s, -seconds positive\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	traceFile := ""
	switch *trace {
	case "0", "":
	case "1":
		traceFile = filepath.Join(scratchDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
	default:
		traceFile = *trace
	}

	res := run(w, config{seed: *seed, seconds: *seconds, traceFile: traceFile})
	rep := res.report()
	res.print(os.Stdout, rep, traceFile)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loop:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// endToEndValues derives the six end-to-end metrics from an untraced run.
func (r *result) endToEndValues() map[string]float64 {
	ph := r.measured
	done := float64(max(1, ph.attempted-ph.failed))
	return map[string]float64{
		"setup_s":       median(r.setups),
		"op_p50_ms":     median(ph.op),
		"loop_p50_ms":   median(ph.loop),
		"ops_per_s":     done / ph.wall.Seconds(),
		"cpu_ms_per_op": ms(ph.cpu) / done,
		"peak_rss_mb":   peakRSSMB(),
	}
}

// layerValues completes the per-layer map with the lines every run can
// compute from its over-the-wire phase: tails, per-kind medians and the
// plan-quality guard. Tails are reported, not gated: on a mixed-kind
// schedule they land on a boundary between op kinds.
func (r *result) layerValues() map[string]float64 {
	L := r.layers
	if L == nil {
		L = map[string]float64{}
	}
	ph := r.measured
	L["tail.op_p95_ms"] = quantile(ph.op, 0.95)
	L["tail.loop_p95_ms"] = quantile(ph.loop, 0.95)
	L["tail.loop_p99_ms"] = quantile(ph.loop, 0.99)
	for _, k := range allKinds {
		L["kind."+k+".op_p50_ms"] = median(ph.kindOp[k])
		L["kind."+k+".loop_p50_ms"] = median(ph.kindLoop[k])
	}
	L["optimize.link_snr_p50_db"] = r.linkSNR
	return L
}

// report builds the machine-readable result: every end-to-end metric of an
// untraced run, or every per-layer metric of a traced one (0 where the
// workload never exercises the metric's source).
func (r *result) report() report {
	rep := report{Metrics: map[string]metricValue{}}
	for _, ph := range []*phase{r.warm, r.measured, r.traced} {
		if ph != nil {
			rep.Failed += ph.failed
			if ph != r.warm {
				rep.Attempted += ph.attempted
			}
		}
	}
	if r.measured != nil {
		defs, vals := endToEnd, map[string]float64(nil)
		if r.traced != nil {
			defs, vals = perLayer, r.layerValues()
		} else {
			vals = r.endToEndValues()
		}
		for _, d := range defs {
			rep.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
	}
	rep.Correct = len(r.errs) == 0 && rep.Failed == 0 && rep.Attempted > 0
	if rep.Attempted == 0 {
		// The run died in set-up: its first op was attempted and failed.
		rep.Attempted, rep.Failed = 1, 1
	}
	return rep
}

// print writes the human-readable report: every metric the run measured,
// by name, with its unit.
func (r *result) print(w io.Writer, rep report, traceFile string) {
	fmt.Fprintf(w, "workload %s seed %d\n", r.workload, r.seed)
	fmt.Fprintf(w, "schedule_hash %s\n", r.scheduleHash)
	if ph := r.measured; ph != nil {
		fmt.Fprintf(w, "plan_digest %s\n", r.planDigest)
		fmt.Fprintf(w, "ops_attempted %d ops_failed %d warmup_ops %d measured_s %.2f setups %d\n",
			rep.Attempted, rep.Failed, r.warm.attempted, ph.wall.Seconds(), len(r.setups))
		fmt.Fprintf(w, "setup_samples_s %.4f\n", r.setups)
		line := func(name string, v float64, unit string) { fmt.Fprintf(w, "%-40s %14.4f %s\n", name, v, unit) }
		if r.traced == nil {
			for _, d := range endToEnd {
				line(d.name, rep.Metrics[d.name].Value, d.unit)
			}
		}
		L := r.layerValues()
		for _, d := range perLayer {
			if v, ok := L[d.name]; ok && (v != 0 || r.traced != nil) {
				line(d.name, v, d.unit)
			}
		}
	}
	if r.traced != nil {
		fmt.Fprintf(w, "traced_ops %d traced_s %.2f trace_file %s\n", r.traced.attempted, r.traced.wall.Seconds(), traceFile)
		fmt.Fprintln(w, "self-time budget of the traced phase (span, calls, median, self total, share of op time):")
		var opTotal float64
		for _, lt := range r.budget {
			if strings.HasPrefix(lt.Name, "op.") {
				opTotal += lt.Total.Seconds()
			}
		}
		for _, lt := range r.budget {
			fmt.Fprintf(w, "  %-28s %7d %12.1f us %10.1f ms %6.1f %%\n",
				lt.Name, lt.Count, us(lt.Median), ms(lt.Self), 100*lt.Self.Seconds()/max(opTotal, 1e-9))
		}
	}
	for _, err := range r.errs {
		fmt.Fprintf(w, "CHECK FAILED: %v\n", err)
	}
}
