package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"surfos/internal/ctrlproto"
	"surfos/internal/orchestrator"
)

// bench is one run of one workload: the stack under test, the two client
// connections, and everything measured.
type bench struct {
	w    *workload
	seed int64
	root string // scratch directory, inside the checkout
	dir  string // the set-up stack's state dir (strip-boot: the crash image)

	st  *stack
	cl  *ctrlproto.Client
	wt  *watcher
	tap *journalTap // nil when no long-lived stack is up (strip-boot's ops)
	drv driver
	tr  *tracer // nil on untraced runs and phases

	// Workload state.
	ids    []int // resident task IDs, in filing order
	room   []int // strip-churn: resident index -> room
	domain []int // strip-churn: room -> interference domain
	boots  int   // strip-boot: ops so far, to name their state dirs
	// seq0 is the journal sequence when the tap was attached, before the
	// streams opened; imageSeq the crash image's last sequence (strip-boot).
	seq0, imageSeq uint64

	ph *phase // the phase samples are recorded into
	// fixWall and fixCPU add up what the harness has spent on fixtures (see
	// offClock); whoever times a stretch takes their growth out of it.
	fixWall, fixCPU time.Duration

	// Plan digest: fed after every warm-up op, and with the plans the run
	// ends on.
	digesting bool
	sum       hash.Hash
	bootPlans []*orchestrator.Plan // strip-boot: the last boot's plans

	// Side measurements taken where they happen.
	readRPC     []float64 // ListTasks beside writes, µs
	healthEvent []float64 // RecordFailure/Success -> health event seen, µs
	bootSNR     []float64 // link SNR of restored tasks (strip-boot has no stream)
	extra       counters  // folded in from per-op stacks (strip-boot)
}

// phase is the samples of one stretch of ops.
type phase struct {
	attempted, failed int
	firstErr          error
	op, loop          []float64            // ms, the workload's own ops only
	kindOp, kindLoop  map[string][]float64 // ms, by kind
	gen               time.Duration        // spent generating the ops
	// events is how many lifecycle events the completed ops must have put on
	// every stream (op.events added up).
	events int
	// wall and cpu are the phase's wall and process CPU time, harness time
	// (offClock) excluded.
	wall, cpu time.Duration
}

func newPhase() *phase {
	return &phase{kindOp: map[string][]float64{}, kindLoop: map[string][]float64{}}
}

// record adds one timed action to the current phase under its kind.
func (b *bench) record(kind string, opLat, loopLat time.Duration) {
	b.ph.kindOp[kind] = append(b.ph.kindOp[kind], ms(opLat))
	b.ph.kindLoop[kind] = append(b.ph.kindLoop[kind], ms(loopLat))
}

// offClock starts timing harness work that is not the system's: filing the
// strips' resident population one fsync-paced task at a time, and around a
// strip-boot op copying the crash image, collecting the heap, killing the
// booted stack and removing its state. Nearly all of it is waiting for the
// disk, which on a shared host moved strip-boot's ops_per_s by 45 % and its
// setup_s threefold between runs while op_p50_ms moved by 13 %. It is
// taken out of every wall and CPU time reported. The returned func stops
// the clock.
func (b *bench) offClock() (stop func()) {
	t0, c0 := time.Now(), cpuTime()
	return func() {
		b.fixWall += time.Since(t0)
		b.fixCPU += cpuTime() - c0
	}
}

// digest folds a plan set into the run's plan digest: every field a panel
// or a scheduler consumer could observe, configurations bit for bit.
func (b *bench) digest(plans []*orchestrator.Plan) {
	h := b.sum
	var bits [8]byte
	for _, p := range plans {
		fmt.Fprintf(h, "plan %g %s %v %s\n", p.FreqHz, p.APID, p.Surfaces, p.Strategy)
		for _, e := range p.Entries {
			fmt.Fprintf(h, " entry %s %v %g\n", e.Label, e.TaskIDs, e.Share)
			devs := make([]string, 0, len(e.Configs))
			for id := range e.Configs {
				devs = append(devs, id)
			}
			sort.Strings(devs)
			for _, id := range devs {
				cfg := e.Configs[id]
				fmt.Fprintf(h, "  %s %v ", id, cfg.Property)
				for _, v := range cfg.Values {
					binary.LittleEndian.PutUint64(bits[:], math.Float64bits(v))
					h.Write(bits[:])
				}
			}
		}
	}
	io.WriteString(h, "--\n")
}

// digestPlans folds the plans as they stand after a warm-up op into the
// digest. The measured phase is spared the hashing; its last plans go in
// when it is over.
func (b *bench) digestPlans() {
	if b.digesting {
		b.digest(b.currentPlans())
	}
}

// currentPlans is the plan set on the panels now.
func (b *bench) currentPlans() []*orchestrator.Plan {
	if b.st == nil {
		return b.bootPlans
	}
	return b.st.orch.Plans()
}

// expectRecords is how many WAL records the journal must have written for
// the events stream 0 has seen.
func (b *bench) expectRecords() int { return b.wt.durable[0] }

// setup is one cold set-up: scene build, deploy, stack boot, state dir
// open, streams open, residents placed, and the first op completed on cold
// caches.
func (b *bench) setup(n int, traced bool) error {
	b.dir = filepath.Join(b.root, fmt.Sprintf("state-%d", n))
	st, err := newStack(b.w.fix, traced)
	if err != nil {
		return err
	}
	b.st = st
	if _, err := st.openState(b.dir, nil); err != nil {
		return err
	}
	if err := st.listen(); err != nil {
		return err
	}
	if b.cl, err = ctrlproto.Dial(st.addr); err != nil {
		return err
	}
	b.cl.Timeout = opTimeout
	if err := b.tapJournal(); err != nil {
		return err
	}
	if b.wt, err = openWatcher(st.ctx, st.addr, b.w.streams, b.w.filter); err != nil {
		return err
	}
	b.drv = rpcDriver{ctx: st.ctx, cl: b.cl}
	if err := b.w.prepare(b); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	b.ph = newPhase()
	for _, o := range b.w.first {
		if _, _, err := b.w.exec(b, o); err != nil {
			return fmt.Errorf("first op: %w", err)
		}
	}
	return nil
}

// teardown closes the connections and the stack and removes its state. It
// verifies what only shows at exit: the journal caught up with every event
// the watcher saw, nothing was dropped, nothing was logged.
func (b *bench) teardown() error {
	var errs []error
	var expect uint64
	if b.wt != nil {
		expect = b.seq0 + uint64(b.expectRecords())
		if b.wt.failed > 0 {
			errs = append(errs, fmt.Errorf("%d failed task event(s)", b.wt.failed))
		}
		b.wt.close()
	}
	if b.cl != nil {
		b.cl.Close()
	}
	if b.tap != nil {
		b.tap.detach()
	}
	if b.st != nil {
		if err := b.st.close(clean); err != nil {
			errs = append(errs, err)
		}
		if b.st.finalSeq != expect {
			errs = append(errs, fmt.Errorf("journal seq %d at exit, %d record(s) expected", b.st.finalSeq, expect))
		}
	}
	b.st, b.cl, b.wt, b.tap = nil, nil, nil, nil
	if err := os.RemoveAll(b.dir); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// runPhase executes the next n ops of g. A failed op is counted and the
// phase goes on. afterOp, when set, runs after every successful op with the
// time its reply came back (the traced run's per-op sampling).
func (b *bench) runPhase(g generator, n int, afterOp func(reply time.Time)) *phase {
	ph := newPhase()
	b.ph = ph
	start, cpu0, fixWall0, fixCPU0 := time.Now(), cpuTime(), b.fixWall, b.fixCPU
	for ; ph.attempted < n; ph.attempted++ {
		g0 := time.Now()
		o := g()
		t0 := time.Now()
		ph.gen += t0.Sub(g0)
		b.tr.setOp(ph.attempted)
		sp := b.tr.begin("op." + o.kind)
		opLat, loopLat, err := b.w.exec(b, o)
		b.tr.end(sp)
		if err == nil && afterOp != nil {
			afterOp(t0.Add(opLat))
		}
		if err == nil && b.tap != nil {
			err = b.tap.pace()
		}
		if err != nil {
			ph.failed++
			if ph.firstErr == nil {
				ph.firstErr = fmt.Errorf("op %d (%s): %w", ph.attempted, o.kind, err)
			}
			continue
		}
		ph.events += o.events
		ph.op = append(ph.op, ms(opLat))
		ph.loop = append(ph.loop, ms(loopLat))
		if o.kind != kindToggle { // reported through its two halves
			b.record(o.kind, opLat, loopLat)
		}
	}
	ph.wall = time.Since(start) - (b.fixWall - fixWall0)
	ph.cpu = cpuTime() - cpu0 - (b.fixCPU - fixCPU0)
	return ph
}

// result is what one invocation reports.
type result struct {
	workload       string
	seed           int64
	setups         []float64 // seconds
	warm, measured *phase
	traced         *phase // direct-driver phase of a traced run
	planDigest     string
	scheduleHash   string
	linkSNR        float64
	layers         map[string]float64 // per-layer metrics (traced runs)
	budget         []layerTime
	errs           []error
}

// config is one invocation's settings.
type config struct {
	seed int64
	// seconds is the nominal length of the measured phase: the workload
	// turns it into its fixed op count (measuredOps).
	seconds float64
	// setups defaults to the workload's.
	setups int
	// traceFile selects the traced run when set.
	traceFile string
	// scratch is where state dirs go (default scratchDir).
	scratch string
}

// run performs one whole invocation.
func run(w *workload, cfg config) (res *result) {
	seed, traceFile := cfg.seed, cfg.traceFile
	if cfg.setups == 0 {
		cfg.setups = w.setups
	}
	ops := w.measuredOps(cfg.seconds)
	res = &result{workload: w.name, seed: seed, scheduleHash: scheduleHash(w, seed, 1000)}
	fail := func(err error) *result {
		res.errs = append(res.errs, err)
		return res
	}
	if cfg.scratch == "" {
		// Relative to the repository root, where the benchmark is run from;
		// anywhere else the state dirs would land in a stranger's tree.
		if fi, err := os.Stat(filepath.Dir(scratchDir)); err != nil || !fi.IsDir() {
			return fail(fmt.Errorf("no %s directory here: run from the repository root", filepath.Dir(scratchDir)))
		}
		cfg.scratch = scratchDir
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return fail(err)
	}
	root, err := os.MkdirTemp(cfg.scratch, w.name+"-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(root)
	traced := traceFile != ""
	b := &bench{w: w, seed: seed, root: root, sum: sha256.New()}
	defer func() {
		if err := b.teardown(); err != nil {
			res.errs = append(res.errs, err)
		}
	}()

	g := w.gen(seedRNG(seed))
	// Cold set-ups: all but the last are torn down again. A traced run
	// reports no set-up time and makes do with one.
	setups := cfg.setups
	if traced {
		setups = 1
	}
	for n := 0; n < setups; n++ {
		if n > 0 {
			if err := b.teardown(); err != nil {
				return fail(fmt.Errorf("set-up %d teardown: %w", n-1, err))
			}
			// A torn-down stack's memory goes with it: otherwise peak RSS
			// measures how the collector happened to pace nine set-ups.
			runtime.GC()
		}
		t0, fixWall0 := time.Now(), b.fixWall
		if err := b.setup(n, traced); err != nil {
			return fail(fmt.Errorf("set-up %d: %w", n, err))
		}
		res.setups = append(res.setups, (time.Since(t0) - (b.fixWall - fixWall0)).Seconds())
	}

	b.digesting = true
	res.warm = b.runPhase(g, w.warmupOps(ops), nil)
	b.digesting = false
	runtime.GC()

	events0 := 0
	if b.wt != nil {
		events0 = b.wt.count[0]
	}
	if !traced {
		res.measured = b.runPhase(g, ops, nil)
	} else {
		// The same schedule, first over the wire (the reference for
		// trace.overhead_pct and the per-kind lines), then with the direct
		// driver inside spans, then the probe loops. The span slab is
		// allocated before the reference stretch: live heap sets how often
		// the collector runs, and a slab allocated after it made the traced
		// stretch read a quarter faster than the reference on strip-boot.
		tr := newTracer(1 << 16)
		part := w.block * max(1, ops*2/5/w.block)
		res.measured = b.runPhase(g, part, nil)
		res.layers = map[string]float64{}
		b.traceRun(g, tr, res, part)
		if err := b.tr.write(traceFile); err != nil {
			res.errs = append(res.errs, err)
		}
	}
	for _, ph := range []*phase{res.warm, res.measured, res.traced} {
		if ph != nil && ph.firstErr != nil {
			res.errs = append(res.errs, ph.firstErr)
		}
	}

	b.digest(b.currentPlans())
	res.planDigest = hex.EncodeToString(b.sum.Sum(nil))

	snr := b.bootSNR
	if b.wt != nil {
		snr = b.wt.linkSNR
		want := res.measured.events
		if res.traced != nil {
			want += res.traced.events
		}
		b.checkDelivery(res, b.wt.count[0]-events0, want)
	}
	res.linkSNR = median(snr)
	if ref := reference.Workloads[w.name].LinkSNRP50DB; math.Abs(res.linkSNR-ref) > snrTolDB {
		res.errs = append(res.errs, fmt.Errorf("optimize.link_snr_p50_db %.2f strays more than %.1f dB from %.2f", res.linkSNR, snrTolDB, ref))
	}
	return res
}

// checkDelivery verifies that events were delivered exactly: every stream
// got as many as stream 0 (a scoped stream that lost or duplicated one
// shows here), and stream 0 got, since the warm-up, exactly the events the
// generator's model says the completed ops cause.
func (b *bench) checkDelivery(res *result, events, want int) {
	for i, n := range b.wt.count {
		if n != b.wt.count[0] {
			res.errs = append(res.errs, fmt.Errorf("stream %d delivered %d events, stream 0 %d", i, n, b.wt.count[0]))
			break
		}
	}
	if events != want {
		res.errs = append(res.errs, fmt.Errorf("%d events delivered on each stream, the ops call for exactly %d", events, want))
	}
}

// scratchDir is where state dirs and traces go: inside the benchmark's own
// directory of the checkout, under the name bench/.gitignore lists.
const scratchDir = "bench/.scratch"
