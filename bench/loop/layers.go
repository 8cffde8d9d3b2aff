package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"surfos/internal/ctrlproto"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/rfsim"
	"surfos/internal/store"
	"surfos/internal/surface"
	"surfos/internal/telemetry"
	"surfos/internal/wire"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the control plane sees; every workload
// reports all six from its untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"loop_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer is the traced run's budget, one line per layer metric (README
// has the table saying which end-to-end metric each should move). A metric
// whose source a workload never exercises reads 0 there.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"broker.translate_us", "us"},
		{"ctrlproto.rpc_floor_us", "us"},
		{"ctrlproto.read_rpc_p50_us", "us"},
		{"ctrlproto.event_encode_ns", "ns"},
		{"ctrlproto.events_delivered_per_op", "count"},
		{"wire.frame_rt_ns", "ns"},
		{"telemetry.publish_us", "us"},
		{"telemetry.fanout_p50_us", "us"},
		{"telemetry.dropped", "count"},
		{"orchestrator.submit_us", "us"},
		{"orchestrator.reconcile_ms", "ms"},
		{"orchestrator.move_us", "us"},
		{"orchestrator.edit_us", "us"},
		{"orchestrator.readmit_ms", "ms"},
		{"orchestrator.shard_busy_ms_per_op", "ms"},
		{"orchestrator.shard_parallelism", "ratio"},
		{"orchestrator.domains_per_op", "count"},
		{"engine.tx_cold_us", "us"},
		{"engine.tx_warm_ns", "ns"},
		{"engine.partition_cold_ms", "ms"},
		{"engine.tx_misses_per_op", "count"},
		{"engine.tx_hits_per_op", "count"},
		{"engine.tx_carried_per_op", "count"},
		{"engine.part_misses_per_op", "count"},
		{"engine.tx_hit_ratio", "ratio"},
		{"rfsim.channels_us", "us"},
		{"rfsim.eval_ns", "ns"},
		{"scene.segment_gain_ns", "ns"},
		{"optimize.busy_ms_per_op", "ms"},
		{"optimize.runs_per_op", "count"},
		{"optimize.evals_per_op", "count"},
		{"optimize.wasted_evals_per_op", "count"},
		{"optimize.link_snr_p50_db", "dB"},
		{"driver.store_codebook_us", "us"},
		{"hwmgr.health_event_us", "us"},
		{"store.append_fsync_us", "us"},
		{"store.durable_lag_p50_ms", "ms"},
		{"store.records_per_op", "count"},
		{"store.wal_bytes_per_op", "B"},
		{"store.backlog_max", "count"},
		{"store.pace_wait_ms_per_op", "ms"},
		{"store.open_recover_ms", "ms"},
		{"store.snapshot_ms", "ms"},
		{"tail.op_p95_ms", "ms"},
		{"tail.loop_p95_ms", "ms"},
		{"tail.loop_p99_ms", "ms"},
	}
	for _, k := range allKinds {
		defs = append(defs,
			metricDef{"kind." + k + ".op_p50_ms", "ms"},
			metricDef{"kind." + k + ".loop_p50_ms", "ms"})
	}
	return append(defs,
		metricDef{"scenario.gen_us_per_op", "us"},
		metricDef{"trace.overhead_pct", "%"})
}()

// spanMetrics maps a span name to the per-layer metric its median feeds.
var spanMetrics = map[string]struct {
	name string
	unit time.Duration
}{
	"broker.translate":       {"broker.translate_us", time.Microsecond},
	"orchestrator.submit":    {"orchestrator.submit_us", time.Microsecond},
	"orchestrator.reconcile": {"orchestrator.reconcile_ms", time.Millisecond},
	"orchestrator.move":      {"orchestrator.move_us", time.Microsecond},
	"orchestrator.edit":      {"orchestrator.edit_us", time.Microsecond},
	"orchestrator.readmit":   {"orchestrator.readmit_ms", time.Millisecond},
	"store.open_recover":     {"store.open_recover_ms", time.Millisecond},
	"store.snapshot":         {"store.snapshot_ms", time.Millisecond},
}

// counters is every public counter the layers expose, read at one instant.
type counters struct {
	eng        engine.Stats
	reconciles uint64  // shard reconciles completed, all domains
	shardBusy  float64 // s, reconcile histogram _sum
	optBusy    float64 // s, optimizer sweep histogram _sum
	optRuns    float64
	optEvals   float64
	optWasted  float64
}

func readCounters(st *stack) counters {
	c := counters{eng: st.eng.CacheStats()}
	for _, sh := range st.orch.ShardStats() {
		c.reconciles += sh.Reconciles
	}
	if st.reg != nil {
		var buf bytes.Buffer
		if err := st.reg.WriteText(&buf); err == nil {
			text := buf.String()
			c.shardBusy = promSum(text, "surfos_reconcile_duration_seconds_sum")
			c.optBusy = promSum(text, "surfos_optimize_sweep_duration_seconds_sum")
			c.optRuns = promSum(text, "surfos_optimize_runs_total")
			c.optEvals = promSum(text, "surfos_optimize_evals_total")
			c.optWasted = promSum(text, "surfos_optimize_wasted_evals_total")
		}
	}
	return c
}

// plus returns c + d - e, field by field.
func (c counters) plus(d, e counters) counters {
	c.eng.TxHits += d.eng.TxHits - e.eng.TxHits
	c.eng.TxMisses += d.eng.TxMisses - e.eng.TxMisses
	c.eng.TxCarried += d.eng.TxCarried - e.eng.TxCarried
	c.eng.PartMisses += d.eng.PartMisses - e.eng.PartMisses
	c.reconciles += d.reconciles - e.reconciles
	c.shardBusy += d.shardBusy - e.shardBusy
	c.optBusy += d.optBusy - e.optBusy
	c.optRuns += d.optRuns - e.optRuns
	c.optEvals += d.optEvals - e.optEvals
	c.optWasted += d.optWasted - e.optWasted
	return c
}

// fold adds a per-op stack's counters (strip-boot builds one per op) to
// the run's totals. Only traced stacks carry a registry worth reading.
func (b *bench) fold(st *stack) {
	if st.reg != nil {
		b.extra = b.extra.plus(readCounters(st), counters{})
	}
}

// journalTap follows the journal through its replica hook for as long as
// the run's stack lives: which record was written last, and, on a traced
// stretch, when each was written and how large it was. The hook runs under
// the journal lock, so it only counts and stamps.
type journalTap struct {
	b      *bench
	detach func()
	wake   chan struct{} // cap 1: a record was written

	mu   sync.Mutex
	seen uint64 // sequence number of the last record written
	// Stamping (traced stretch only): times[i] is when record first+i was
	// written.
	stamping bool
	first    uint64
	times    []time.Time
	bytes    int

	// paced is how long the driver has waited in pace.
	paced time.Duration
	// Per-op marks for the durable lag, resolved once the phase is over so
	// that measuring the lag does not pace the ops.
	marks      []lagMark
	backlogMax int
}

type lagMark struct {
	need  uint64 // last record the op's events call for
	reply time.Time
}

// journalHigh and journalLow bound how far the closed loop lets the journal
// fall behind: past journalHigh records the driver waits, on the clock,
// until the backlog is down to journalLow. The journal's subscription holds
// store.JournalBuffer events and drops what does not fit, and nothing in
// the daemon pushes back on a client; strip-churn writes some 2600 fsync'd
// records a second, which the reference host's disk keeps up with on most
// days and not on all. A rate the journal cannot sustain is not a rate.
const (
	journalHigh = store.JournalBuffer / 2
	journalLow  = store.JournalBuffer / 4
)

// tapJournal attaches the tap and sets b.seq0, the sequence number every
// later record is counted from.
func (b *bench) tapJournal() error {
	t := &journalTap{b: b, wake: make(chan struct{}, 1)}
	_, seq, _, detach, err := b.st.journal.AttachReplica(func(r store.Record) {
		t.mu.Lock()
		t.seen = r.Seq
		if t.stamping {
			t.times = append(t.times, time.Now())
			// What writeLine puts on disk is a JSON envelope around Data; 64
			// bytes covers seq, kind and CRC.
			t.bytes += len(r.Data) + 64
		}
		t.mu.Unlock()
		select {
		case t.wake <- struct{}{}:
		default:
		}
	})
	if err != nil {
		return err
	}
	t.detach, t.seen = detach, seq
	b.seq0, b.tap = seq, t
	return nil
}

// need is the last record the events seen so far call for.
func (t *journalTap) need() uint64 { return t.b.seq0 + uint64(t.b.expectRecords()) }

// waitFor blocks until the journal is at most slack records behind need().
func (t *journalTap) waitFor(slack uint64) error {
	need := t.need()
	var timeout <-chan time.Time // armed on the first wait: most calls find the journal there already
	for {
		t.mu.Lock()
		seen := t.seen
		t.mu.Unlock()
		if seen+slack >= need {
			return nil
		}
		if timeout == nil {
			timer := time.NewTimer(opTimeout)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case <-t.wake:
		case <-timeout:
			return fmt.Errorf("journal stuck at seq %d, %d needed", seen, need)
		}
	}
}

// settle blocks until the journal has written record need().
func (t *journalTap) settle() error { return t.waitFor(0) }

// pace holds the driver back while the journal is more than journalHigh
// records behind.
func (t *journalTap) pace() error {
	t.mu.Lock()
	seen := t.seen
	t.mu.Unlock()
	if seen+journalHigh >= t.need() {
		return nil
	}
	t0 := time.Now()
	err := t.waitFor(journalLow)
	t.paced += time.Since(t0)
	return err
}

// stamp starts recording when each record is written, from the next one.
func (t *journalTap) stamp() {
	t.mu.Lock()
	t.stamping, t.first, t.times, t.bytes = true, t.seen+1, nil, 0
	t.mu.Unlock()
	t.marks, t.backlogMax, t.paced = nil, 0, 0
}

// mark notes, after an op, which record makes it durable and when its
// reply came back.
func (t *journalTap) mark(reply time.Time) {
	if n := len(t.b.st.journalCh); n > t.backlogMax {
		t.backlogMax = n
	}
	t.marks = append(t.marks, lagMark{need: t.need(), reply: reply})
}

// lags resolves the marks: per op, reply -> its last record written, in ms
// (0 when the record beat the reply).
func (t *journalTap) lags() []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, m := range t.marks {
		if i := int(m.need - t.first); m.need >= t.first && i < len(t.times) {
			out = append(out, max(0, ms(t.times[i].Sub(m.reply))))
		}
	}
	return out
}

// traceRun is the second half of a traced invocation: the same schedule
// continues with the mutating calls issued by the direct driver inside
// spans, public counters are read around the phase, and the probe loops
// run after the last op. It fills res.traced, res.layers and res.budget.
func (b *bench) traceRun(g generator, tr *tracer, res *result, ops int) {
	b.tr = tr
	L := res.layers
	tap := b.tap
	var afterOp func(time.Time)
	var c0 counters
	events0 := 0
	if b.st != nil { // strip-boot has no long-lived stack: its ops build their own
		b.drv = directDriver{st: b.st, tr: b.tr}
		// The stamps start on a journal that has caught up, so the first
		// ops' lags are their own.
		if err := tap.settle(); err != nil {
			res.errs = append(res.errs, err)
			return
		}
		tap.stamp()
		afterOp = tap.mark
		c0 = readCounters(b.st)
		events0 = b.wt.count[0]
	}
	b.readRPC, b.healthEvent = nil, nil

	ph := b.runPhase(g, ops, afterOp)
	res.traced = ph
	done := float64(max(1, ph.attempted-ph.failed))

	delta := b.extra
	if b.st != nil {
		if err := tap.settle(); err != nil {
			res.errs = append(res.errs, err)
		}
		delta = delta.plus(readCounters(b.st), c0)
		L["ctrlproto.events_delivered_per_op"] = float64(b.wt.count[0]-events0) / done
		L["telemetry.dropped"] = float64(b.st.events.Dropped())
		L["store.records_per_op"] = float64(len(tap.times)) / done
		L["store.wal_bytes_per_op"] = float64(tap.bytes) / done
		L["store.backlog_max"] = float64(tap.backlogMax)
		L["store.pace_wait_ms_per_op"] = ms(tap.paced) / done
		L["store.durable_lag_p50_ms"] = median(tap.lags())
	} else {
		// Each boot journals the recovery re-plan: two records per task.
		L["store.records_per_op"] = 2 * residents
	}
	L["ctrlproto.read_rpc_p50_us"] = median(b.readRPC)
	L["hwmgr.health_event_us"] = median(b.healthEvent)
	L["scenario.gen_us_per_op"] = us(ph.gen) / float64(max(1, ph.attempted))

	L["orchestrator.domains_per_op"] = float64(delta.reconciles) / done
	L["orchestrator.shard_busy_ms_per_op"] = delta.shardBusy * 1e3 / done
	L["engine.tx_misses_per_op"] = float64(delta.eng.TxMisses) / done
	L["engine.tx_hits_per_op"] = float64(delta.eng.TxHits) / done
	L["engine.tx_carried_per_op"] = float64(delta.eng.TxCarried) / done
	L["engine.part_misses_per_op"] = float64(delta.eng.PartMisses) / done
	if lookups := delta.eng.TxHits + delta.eng.TxMisses + delta.eng.TxCarried; lookups > 0 {
		L["engine.tx_hit_ratio"] = float64(delta.eng.TxHits) / float64(lookups)
	}
	L["optimize.busy_ms_per_op"] = delta.optBusy * 1e3 / done
	L["optimize.runs_per_op"] = delta.optRuns / done
	L["optimize.evals_per_op"] = delta.optEvals / done
	L["optimize.wasted_evals_per_op"] = delta.optWasted / done

	// Span medians, and the self-time budget for the report.
	res.budget = selfTimes(b.tr.spans)
	var reconcileTotal time.Duration
	for _, lt := range res.budget {
		if m, ok := spanMetrics[lt.Name]; ok {
			L[m.name] = float64(lt.Median) / float64(m.unit)
		}
		if lt.Name == "orchestrator.reconcile" {
			reconcileTotal = lt.Total
		}
	}
	if reconcileTotal > 0 {
		// Shard time bought per unit of reconcile wall time: 1 when shards
		// run one after another, up to the CPU count when they overlap.
		// Reconciles outside spans (the self-heal consumer's) are in the
		// numerator only, so a workload with device ops reads a little high.
		L["orchestrator.shard_parallelism"] = delta.shardBusy / reconcileTotal.Seconds()
	}

	// Traced against untraced, same schedule, same stack.
	if ref := median(res.measured.op); ref > 0 {
		L["trace.overhead_pct"] = 100 * (median(ph.op) - ref) / ref
	}

	b.probes(L)
}

// probeStack returns a stack and client for the probe loops: the run's own
// once its ops are done, or a fresh idle one for strip-boot.
func (b *bench) probeStack() (st *stack, cl *ctrlproto.Client, done func(), err error) {
	if b.st != nil {
		return b.st, b.cl, func() {}, nil
	}
	if st, err = newStack(b.w.fix, false); err != nil {
		return nil, nil, nil, err
	}
	if err = st.listen(); err == nil {
		cl, err = ctrlproto.Dial(st.addr)
	}
	if err != nil {
		st.close(kill)
		return nil, nil, nil, err
	}
	return st, cl, func() { cl.Close(); st.close(kill) }, nil
}

// timeLoop returns the median duration of n calls of fn, in nanoseconds,
// timing batches of per calls so the clock reads do not show.
func timeLoop(n, per int, fn func()) float64 {
	samples := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j := 0; j < per; j++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(per))
	}
	return median(samples)
}

// probes runs each layer's public function in a loop on inputs taken from
// the workload's own plant, after the last op, so a layer's line in the
// budget can be read against its unit cost.
func (b *bench) probes(L map[string]float64) {
	st, cl, done, err := b.probeStack()
	if err != nil {
		return
	}
	defer done()
	ctx := st.ctx
	// The probed calls' errors are dropped: the ops before have exercised
	// and checked every one of them on this same plant.

	// ctrlproto: the cheapest full round trip on an idle stack, and one
	// event's encode.
	L["ctrlproto.rpc_floor_us"] = timeLoop(1000, 1, func() { cl.HealthFull(ctx) }) / 1e3
	devs := st.hw.Surfaces()
	ev := ctrlproto.TaskEventMsg{
		UnixNanos: time.Now().UnixNano(), TaskID: 17, Kind: "link", State: telemetry.TaskRunning,
		FreqHz: 24e9, Endpoint: "laptop", Strategy: "tdm", Surfaces: []string{devs[0].ID, devs[1].ID},
		Share: 0.25, Metric: 31.4, MetricName: "snr_db", Tenant: "default", Domain: 1,
	}
	var sink []byte
	L["ctrlproto.event_encode_ns"] = timeLoop(200, 1000, func() { sink = ev.Encode() })

	// wire: one 128-byte frame written and read back.
	payload := make([]byte, 128)
	buf := make([]byte, 0, 256)
	var rd bytes.Reader
	L["wire.frame_rt_ns"] = timeLoop(200, 1000, func() {
		buf, _ = wire.AppendFrame(buf[:0], wire.Frame{Type: 7, Stream: 9, Payload: payload})
		rd.Reset(buf)
		wire.ReadFrame(&rd)
	})
	_ = sink

	// telemetry: Publish with 256 watch-style subscribers (it runs on the
	// handler path), and publish -> last subscriber has the event.
	bus := telemetry.NewEventBus()
	got := make(chan struct{}, 256)
	var stops []func()
	for i := 0; i < 256; i++ {
		ch, stop := bus.SubscribeOpts(telemetry.SubOptions[telemetry.TaskEvent]{
			Name: "watch-tasks", Buffer: 256, Policy: telemetry.DropOldest,
		})
		stops = append(stops, stop)
		go func() {
			for range ch {
				got <- struct{}{}
			}
		}()
	}
	var pub, fan []float64
	for i := 0; i < 1000; i++ {
		t0 := time.Now()
		bus.Publish(telemetry.TaskEvent{TaskID: 1, State: telemetry.TaskRunning})
		t1 := time.Now()
		for j := 0; j < 256; j++ {
			<-got
		}
		pub = append(pub, us(t1.Sub(t0)))
		fan = append(fan, us(time.Since(t0)))
	}
	for _, stop := range stops {
		stop()
	}
	L["telemetry.publish_us"] = median(pub)
	L["telemetry.fanout_p50_us"] = median(fan)

	// engine, rfsim, scene: the first two panels (one domain on the strip,
	// the whole plant in the apartment), AP as the transmitter, 16 endpoints
	// in front of them.
	surfs := []*surface.Surface{devs[0].Drv.Surface(), devs[1].Drv.Surface()}
	spec := engine.Spec{Scene: st.scene, FreqHz: 24e9, Surfaces: surfs, ReflOrder: 1, ElementEfficiency: 0.8}
	L["engine.tx_cold_us"] = timeLoop(20, 1, func() {
		engine.New(engine.Options{}).Tx(ctx, spec, st.ap)
	}) / 1e3
	eng := engine.New(engine.Options{})
	eng.Tx(ctx, spec, st.ap)
	L["engine.tx_warm_ns"] = timeLoop(200, 1000, func() { eng.Tx(ctx, spec, st.ap) })
	all := make([]*surface.Surface, len(devs))
	for i, d := range devs {
		all[i] = d.Drv.Surface()
	}
	dspec := engine.DomainSpec{Scene: st.scene, Surfaces: all, FreqsHz: []float64{24e9}}
	L["engine.partition_cold_ms"] = timeLoop(5, 1, func() {
		engine.New(engine.Options{}).Partition(dspec)
	}) / 1e6
	c := surfs[0].Panel.Center()
	pts := make([]geom.Vec3, 16)
	for i := range pts {
		pts[i] = geom.V(c.X-1.5+0.2*float64(i%4), c.Y-1.5+0.2*float64(i/4), 1.2)
	}
	var chans []*rfsim.Channel
	L["rfsim.channels_us"] = timeLoop(100, 1, func() { chans, _ = eng.Channels(ctx, spec, st.ap, pts) }) / 1e3
	if len(chans) > 0 {
		cfgs := []surface.Config{
			{Property: surface.Phase, Values: make([]float64, surfs[0].NumElements())},
			{Property: surface.Phase, Values: make([]float64, surfs[1].NumElements())},
		}
		L["rfsim.eval_ns"] = timeLoop(200, 100, func() { chans[0].Eval(cfgs) })
		// driver: one single-entry codebook write, as applyEntries does.
		L["driver.store_codebook_us"] = timeLoop(200, 10, func() {
			devs[0].Drv.StoreCodebook([]string{"probe"}, cfgs[:1])
		}) / 1e3
	}
	L["scene.segment_gain_ns"] = timeLoop(200, 1000, func() { st.scene.SegmentGain(st.ap, pts[0], 24e9) })

	// store: one fsync'd append, on the filesystem the run's state lives on.
	dir := filepath.Join(b.root, "probe-store")
	if s, _, err := store.Open(dir); err == nil {
		rec := store.TaskStateRecord{TaskID: 17, State: telemetry.TaskRunning, UnixNanos: 1}
		L["store.append_fsync_us"] = timeLoop(200, 1, func() { s.Append(store.KindTaskState, rec) }) / 1e3
		s.Close()
		os.RemoveAll(dir)
	}
}
