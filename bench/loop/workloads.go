package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"surfos"
	"surfos/internal/ctrlproto"
	"surfos/internal/geom"
	"surfos/internal/orchestrator"
	"surfos/internal/scene"
	"surfos/internal/telemetry"
)

// workload is one set of inputs and the loop it exercises.
type workload struct {
	name string
	why  string
	fix  fixture
	// streams is how many event streams the watcher connection carries;
	// filter scopes them to a tenant ("" = unfiltered).
	streams int
	filter  string
	// first is what completes a set-up: the same ops whatever the seed, so
	// setup_s does not depend on which op a schedule happens to open with.
	// They leave the plant as the generator's model expects it.
	first []op
	// setups is how many cold set-ups an untraced run performs: setup_s is
	// their median (one millisecond-scale sample is too noisy to gate on)
	// and the last one serves the run.
	setups int
	gen    func(*rand.Rand) generator
	// block is how many ops make one full cycle of the kind mix; a phase is
	// a whole number of blocks so every run measures the same mix.
	block int
	// prepare populates the resident tasks once the streams are open.
	prepare func(b *bench) error
	// exec performs one op and returns request→reply and request→last
	// required event at the watcher.
	exec func(b *bench, o op) (opLat, loopLat time.Duration, err error)
}

// reference is bench/loop/reference.json: what BENCHMARK.json's schema has
// no field for.
var reference struct {
	Seeds struct {
		Default int64 `json:"default"`
		// HeldOut is the seed not to look at while writing a change.
		HeldOut int64 `json:"held_out"`
	} `json:"seeds"`
	Workloads map[string]struct {
		// OpsPerSecond turns -seconds into the workload's fixed op count: the
		// rate the 2-CPU reference host sustains on a busy day (it runs up to
		// 1.4 times faster on a quiet one, see bench/BASELINE.md), so that the
		// driver's 92 runs fit its time limit on either.
		OpsPerSecond float64 `json:"ops_per_second"`
		// LinkSNRP50DB is the median link SNR the workload's plans reach in
		// the AP's room; a run whose optimize.link_snr_p50_db strays more than
		// snrTolDB from it has changed plan quality, not just speed.
		LinkSNRP50DB float64 `json:"link_snr_p50_db"`
	} `json:"workloads"`
	// ShouldMove says, per per-layer metric, which end-to-end metric it
	// should move on which workload ("!=": where the prediction is no change).
	ShouldMove map[string]string `json:"should_move"`
}

//go:embed reference.json
var referenceJSON []byte

func init() {
	if err := json.Unmarshal(referenceJSON, &reference); err != nil {
		panic("bench/loop/reference.json: " + err.Error())
	}
}

// snrTolDB is how far optimize.link_snr_p50_db may stray from its reference.
const snrTolDB = 0.5

// measuredOps is the workload's fixed op count for a measured phase of the
// given nominal length: whole blocks of the op mix. The benchmark contract
// passes -seconds; a fixed count (and not a deadline) is what makes the
// final plans and the event counts of a seed the same on every run.
func (w *workload) measuredOps(seconds float64) int {
	blocks := int(seconds*reference.Workloads[w.name].OpsPerSecond/float64(w.block) + 0.5)
	return w.block * max(1, blocks)
}

// warmupOps is the warm-up before a measured phase of ops ops: 5 % of it,
// in whole blocks.
func (w *workload) warmupOps(ops int) int {
	return w.block * max(1, (ops/20+w.block-1)/w.block)
}

var workloads = []*workload{
	{
		name:    "apt-demand",
		why:     "intent to plan, the paper's headline path: fixed endpoints keep traces warm, so the optimizer does most of the work and the event path little",
		fix:     apartment,
		streams: 1,
		// The coverage complaint traces the whole room grid: the coldest
		// first demand a daemon can get.
		first:   []op{{kind: kindCoverage, utterance: demands[len(demands)-1].utterance}},
		setups:  9,
		gen:     genAptDemand,
		block:   len(demands),
		prepare: func(*bench) error { return nil },
		exec:    execDemand,
	},
	{
		name:    "apt-fanout",
		why:     "park and resume one task seen on 256 streams, reads beside writes: bus, event encode, frames and the journal do the work, the optimizer one small re-plan per op",
		fix:     apartment,
		streams: 256,
		filter:  orchestrator.DefaultTenant,
		first:   []op{{kind: kindToggle}},
		setups:  9,
		gen:     genAptFanout,
		block:   2,
		prepare: prepareFanout,
		exec:    execFanout,
	},
	{
		name:    "strip-churn",
		why:     "moves, handoffs, wall edits and device deaths over 64 tasks in 4 domains: fresh endpoints and dirty regions make trace, partition and one-shard reconcile do the work",
		fix:     strip,
		streams: 1,
		first:   []op{{kind: kindMove, resident: 0, room: 0, pos: [3]float64{2.5, 2.5, 1.2}}},
		setups:  9,
		gen:     genStripChurn,
		block:   len(churnKinds),
		prepare: prepareChurn,
		exec:    execChurn,
	},
	{
		name:    "strip-boot",
		why:     "recover a crashed 64-task journal and re-plan all 4 domains on cold caches: store replay and snapshot, cold traces and partition, shards reconciled in parallel",
		fix:     strip,
		streams: 1,
		first:   []op{{kind: kindBoot}},
		setups:  3, // each files 256 tasks through some 600 fsync'd records
		gen:     genStripBoot,
		block:   1,
		prepare: prepareBoot,
		exec:    execBoot,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- the mutating calls, over RPC or issued directly ---

// driver makes a workload's mutating calls. rpcDriver sends them to the
// control agent over TCP — the path every end-to-end metric is measured
// on. directDriver issues the calls CtrlAgent.handle would make, each
// inside a span, for the traced run.
type driver interface {
	demand(utterance string) ([]ctrlproto.TaskInfo, error)
	endTask(id int) error
	setIdle(id int, idle bool) error
	moveTask(id int, pos [3]float64) error
}

type rpcDriver struct {
	ctx context.Context
	cl  *ctrlproto.Client
}

func (d rpcDriver) demand(utterance string) ([]ctrlproto.TaskInfo, error) {
	r, err := d.cl.Demand(d.ctx, utterance)
	return r.Tasks, err
}
func (d rpcDriver) endTask(id int) error            { return d.cl.EndTask(d.ctx, id) }
func (d rpcDriver) setIdle(id int, idle bool) error { return d.cl.SetTaskIdle(d.ctx, id, idle) }
func (d rpcDriver) moveTask(id int, p [3]float64) error {
	return d.cl.MoveTask(d.ctx, id, p[0], p[1], p[2])
}

type directDriver struct {
	st *stack
	tr *tracer
}

func (d directDriver) demand(utterance string) ([]ctrlproto.TaskInfo, error) {
	br := d.st.ctrl.Broker
	sp := d.tr.begin("broker.translate")
	calls, err := br.T.Translate(utterance)
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	var tasks []*orchestrator.Task
	for _, c := range calls {
		sp := d.tr.begin("orchestrator.submit")
		t, err := br.Dispatch(d.st.ctx, c)
		d.tr.end(sp)
		if err != nil {
			return nil, err
		}
		tasks = append(tasks, t)
	}
	sp = d.tr.begin("orchestrator.reconcile")
	err = d.st.orch.Reconcile(d.st.ctx)
	d.tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := make([]ctrlproto.TaskInfo, 0, len(tasks))
	for _, t := range tasks {
		cur, err := d.st.orch.Task(t.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, ctrlproto.TaskInfo{ID: uint32(cur.ID), Kind: cur.Kind.String(), State: cur.State.String()})
	}
	return out, nil
}

// reconcileEmpty names the span of a re-plan that follows ending or parking
// the domain's only task and so finds nothing to plan. Under the name of
// the reconciles that do the work it would halve their median.
const reconcileEmpty = "orchestrator.reconcile_empty"

func (d directDriver) reconcileTask(span string, id int) error {
	sp := d.tr.begin(span)
	defer d.tr.end(sp)
	return d.st.orch.ReconcileTask(d.st.ctx, id)
}

func (d directDriver) endTask(id int) error {
	sp := d.tr.begin("orchestrator.end")
	err := d.st.orch.EndTask(id)
	d.tr.end(sp)
	if err != nil {
		return err
	}
	return d.reconcileTask(reconcileEmpty, id)
}

func (d directDriver) setIdle(id int, idle bool) error {
	sp := d.tr.begin("orchestrator.set_idle")
	err := d.st.orch.SetIdle(id, idle)
	d.tr.end(sp)
	if err != nil {
		return err
	}
	if idle {
		return d.reconcileTask(reconcileEmpty, id)
	}
	return d.reconcileTask("orchestrator.reconcile", id)
}

func (d directDriver) moveTask(id int, p [3]float64) error {
	sp := d.tr.begin("orchestrator.move")
	_, err := d.st.orch.MoveTask(id, geom.V(p[0], p[1], p[2]))
	d.tr.end(sp)
	if err != nil {
		return err
	}
	return d.reconcileTask("orchestrator.reconcile", id)
}

// --- apt-demand ---

func execDemand(b *bench, o op) (time.Duration, time.Duration, error) {
	t0 := time.Now()
	tasks, err := b.drv.demand(o.utterance)
	t1 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	if len(tasks) == 0 {
		return 0, 0, fmt.Errorf("demand %q created no task", o.utterance)
	}
	wants := make([]want, len(tasks))
	for i, t := range tasks {
		if t.State != orchestrator.TaskRunning.String() {
			err = errors.Join(err, fmt.Errorf("demand %q left task %d %s", o.utterance, t.ID, t.State))
		}
		wants[i] = want{task: t.ID, state: telemetry.TaskRunning}
	}
	at, werr := b.wt.await(wants)
	if err = errors.Join(err, werr); err != nil {
		return 0, 0, err
	}
	b.digestPlans()
	// Release the task so the next demand plans alone: timed as its own
	// kind, inside the phase's wall time.
	for _, t := range tasks {
		e0 := time.Now()
		if err := b.drv.endTask(int(t.ID)); err != nil {
			return 0, 0, err
		}
		e1 := time.Now()
		done, err := b.wt.await([]want{{task: t.ID, state: telemetry.TaskDone}})
		if err != nil {
			return 0, 0, err
		}
		b.record(kindEnd, e1.Sub(e0), last(done).Sub(e0))
	}
	return t1.Sub(t0), last(at).Sub(t0), nil
}

// --- apt-fanout ---

func prepareFanout(b *bench) error {
	t, err := b.cl.SubmitTask(b.st.ctx, ctrlproto.SubmitMsg{
		Kind: "link", Endpoint: "laptop", Pos: [3]float64{3.0, 5.0, 1.0}, Priority: 1,
	})
	if err != nil {
		return err
	}
	b.ids = []int{int(t.ID)}
	_, err = b.wt.await([]want{{task: t.ID, state: telemetry.TaskRunning}})
	return err
}

// execFanout is one park-and-resume cycle of the resident task: an idle
// event on each of the 256 streams, then a re-plan and three more. The two
// halves cost very differently, so they are timed as one op — alternated,
// the median would sit on the boundary between them — and reported apart
// as kinds idle and resume. (Timing the optimizer-free idle half alone was
// tried: at 1 ms its reply latency is decided by which of 500 runnable
// goroutines the two CPUs pick first, and it moved 8 % between runs.)
func execFanout(b *bench, o op) (time.Duration, time.Duration, error) {
	id := b.ids[0]
	var opLat, loopLat time.Duration
	for _, half := range []struct {
		kind, closing string
		idle          bool
	}{{kindIdle, telemetry.TaskIdle, true}, {kindResume, telemetry.TaskRunning, false}} {
		t0 := time.Now()
		err := b.drv.setIdle(id, half.idle)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		at, err := b.wt.await([]want{{task: uint32(id), state: half.closing}})
		if err != nil {
			return 0, 0, err
		}
		b.record(half.kind, t1.Sub(t0), last(at).Sub(t0))
		opLat += t1.Sub(t0)
		loopLat += last(at).Sub(t0)
	}
	if o.reads {
		// Reads always go over the wire: they share the orchestrator lock
		// and the connection with the writes.
		sp := b.tr.begin("ctrlproto.list_tasks")
		r0 := time.Now()
		tasks, err := b.cl.ListTasks(b.st.ctx)
		b.readRPC = append(b.readRPC, us(time.Since(r0)))
		b.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		if len(tasks) != 1 || tasks[0].State != orchestrator.TaskRunning.String() {
			return 0, 0, fmt.Errorf("list after resume: %+v", tasks)
		}
		sp = b.tr.begin("ctrlproto.health_full")
		_, err = b.cl.HealthFull(b.st.ctx)
		b.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
	}
	b.digestPlans()
	return opLat, loopLat, nil
}

// --- strip population, shared by strip-churn and strip-boot ---

// residentGoal is resident i's link goal at pos.
func residentGoal(i int, pos [3]float64) orchestrator.LinkGoal {
	return orchestrator.LinkGoal{Endpoint: fmt.Sprintf("ep%d", i), Pos: geom.V(pos[0], pos[1], pos[2])}
}

// gridPos is where resident k starts: room k%stripRooms, on a 4x4 grid one
// metre apart. The residents' starting points do not depend on the seed, so
// the plan-quality guard has one reference value per workload.
func gridPos(k int) [3]float64 {
	room, slot := k%stripRooms, k/stripRooms
	return [3]float64{scene.RoomW*float64(room) + 1.0 + float64(slot%4), 1.0 + float64(slot/4), 1.2}
}

// populate files n link tasks straight into the orchestrator (set-up is
// not the loop under test). The ones keep selects become the residents, on
// their grid points; the others get a seeded position and are ended at
// once. Each step waits until its event has reached the watcher and its
// record the disk: several hundred events in one burst overrun the
// 256-event buffers of the stream ring and, when an fsync stalls, of the
// monitor's subscription. It returns the residents' task IDs in order.
func populate(b *bench, n int, keep func(i int) bool) ([]int, error) {
	defer b.offClock()()
	rng := seedRNG(^b.seed)
	var ids []int
	for i := 0; i < n; i++ {
		pos := roomPos(rng, i%stripRooms)
		if keep(i) {
			pos = gridPos(len(ids))
		}
		t, err := b.st.orch.EnhanceLink(b.st.ctx, residentGoal(i, pos), 1+i%3)
		if err != nil {
			return nil, err
		}
		closing := want{task: uint32(t.ID), state: telemetry.TaskSubmitted}
		if keep(i) {
			ids = append(ids, t.ID)
		} else {
			if err := b.st.orch.EndTask(t.ID); err != nil {
				return nil, err
			}
			closing.state = telemetry.TaskDone
		}
		if _, err := b.wt.await([]want{closing}); err != nil {
			return nil, err
		}
		if err := b.tap.settle(); err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// awaitRunning waits until every listed task's running event has arrived.
func (b *bench) awaitRunning(ids []int) ([]time.Time, error) {
	wants := make([]want, len(ids))
	for i, id := range ids {
		wants[i] = want{task: uint32(id), state: telemetry.TaskRunning}
	}
	return b.wt.await(wants)
}

// --- strip-churn ---

func prepareChurn(b *bench) error {
	ids, err := populate(b, residents, func(int) bool { return true })
	if err != nil {
		return err
	}
	b.ids = ids
	b.room = make([]int, residents)
	for i := range b.room {
		b.room[i] = i % stripRooms
	}
	if err := b.st.orch.Reconcile(b.st.ctx); err != nil {
		return err
	}
	if _, err := b.awaitRunning(ids); err != nil {
		return err
	}
	b.wt.snrDone = true // the guard covers the grid residents' plan, not the seeded moves
	// Room r's panels form domain r; resolve it once (drywall screens never
	// change the partition).
	b.domain = make([]int, stripRooms)
	for r := range b.domain {
		d, ok := b.st.orch.DomainForDevice(stripDevice(r, 0))
		if !ok {
			return fmt.Errorf("room %d has no domain", r)
		}
		b.domain[r] = d
	}
	return nil
}

// roomTasks lists the live residents of room r.
func (b *bench) roomTasks(r int) []int {
	var ids []int
	for i, room := range b.room {
		if room == r {
			ids = append(ids, b.ids[i])
		}
	}
	return ids
}

func execChurn(b *bench, o op) (opLat, loopLat time.Duration, err error) {
	st := b.st
	defer func() {
		if err == nil {
			b.digestPlans()
		}
	}()
	switch o.kind {
	case kindMove, kindHandoff:
		id := b.ids[o.resident]
		b.room[o.resident] = o.room
		t0 := time.Now()
		err := b.drv.moveTask(id, o.pos)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		// The re-plan covers the whole destination domain; the loop closes
		// on the moved task's running event, the rest is drained so it
		// cannot be mistaken for the next op's.
		ids := b.roomTasks(o.room)
		at, err := b.awaitRunning(ids)
		if err != nil {
			return 0, 0, err
		}
		for i, tid := range ids {
			if tid == id {
				return t1.Sub(t0), at[i].Sub(t0), nil
			}
		}
		return 0, 0, fmt.Errorf("resident %d not in room %d", o.resident, o.room)

	case kindWallEdit:
		// No northbound verb edits the scene: the edit and its re-plan are
		// the orchestrator calls an integrator makes.
		t0 := time.Now()
		sp := b.tr.begin("orchestrator.edit")
		err := st.orch.EditScene(func(s *scene.Scene) error {
			return s.MoveWall(screenName(o.room), screenQuad(o.room, o.off))
		})
		b.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		sp = b.tr.begin("orchestrator.reconcile")
		err = st.orch.ReconcileDomain(st.ctx, b.domain[o.room])
		b.tr.end(sp)
		t1 := time.Now()
		if err != nil {
			return 0, 0, err
		}
		at, err := b.awaitRunning(b.roomTasks(o.room))
		if err != nil {
			return 0, 0, err
		}
		return t1.Sub(t0), last(at).Sub(t0), nil

	case kindDeviceDead, kindDeviceRecovered:
		// What the heartbeat loop reports; the self-heal consumer re-plans
		// the device's domain and publishes "replanned".
		health := telemetry.DeviceDead
		t0 := time.Now()
		sp := b.tr.begin("hwmgr.record_health")
		if o.kind == kindDeviceDead {
			st.hw.RecordFailure(o.device, surfos.ErrDeviceDead)
		} else {
			health = telemetry.DeviceRecovered
			st.hw.RecordSuccess(o.device)
		}
		b.tr.end(sp)
		t1 := time.Now()
		at, err := b.wt.await([]want{
			{device: o.device, state: health},
			{device: o.device, state: telemetry.Replanned},
		})
		if err != nil {
			return 0, 0, err
		}
		b.healthEvent = append(b.healthEvent, us(at[0].Sub(t0)))
		return t1.Sub(t0), at[1].Sub(t0), nil
	}
	return 0, 0, fmt.Errorf("strip-churn cannot run a %q op", o.kind)
}

// --- strip-boot ---

const bootEnded = 3 * residents // ended tasks journaled beside the live ones

// prepareBoot turns the set-up stack's state dir, b.dir, into the crash image:
// 64 live and 192 ended link tasks, planned once, then the process "dies"
// — journal drained to disk but no final snapshot, so recovery replays the
// WAL tail. The set-up stack is discarded; every op boots a new one.
func prepareBoot(b *bench) error {
	// Which 64 of the 256 filings survive is the seed's choice.
	live := map[int]bool{}
	for _, i := range seedRNG(b.seed).Perm(residents + bootEnded)[:residents] {
		live[i] = true
	}
	ids, err := populate(b, residents+bootEnded, func(i int) bool { return live[i] })
	if err != nil {
		return err
	}
	if err := b.st.orch.Reconcile(b.st.ctx); err != nil {
		return err
	}
	if _, err := b.awaitRunning(ids); err != nil {
		return err
	}
	expect := b.seq0 + uint64(b.expectRecords())
	b.tap.detach()
	b.wt.close()
	b.cl.Close()
	b.wt, b.cl, b.tap = nil, nil, nil
	st := b.st
	b.st = nil
	onClock := b.offClock() // draining the first plan's records to disk
	err = st.close(crash)
	onClock()
	if err != nil {
		return err
	}
	if st.finalSeq != expect {
		return fmt.Errorf("crash image: journal seq %d, want %d", st.finalSeq, expect)
	}
	b.imageSeq = st.finalSeq
	return nil
}

// copyDir copies the flat state directory src to dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// execBoot is one recovery: a new daemon stack on a fresh copy of the crash
// image. The op ends when the plans are back on the panels and the state
// is snapshotted; the loop ends when a client sees all 64 tasks running.
func execBoot(b *bench, _ op) (opLat, loopLat time.Duration, err error) {
	b.boots++
	dir := filepath.Join(b.root, fmt.Sprintf("boot-%d", b.boots))
	onClock := b.offClock()
	err = copyDir(b.dir, dir)
	onClock()
	defer func() {
		defer b.offClock()()
		os.RemoveAll(dir)
	}()
	if err != nil {
		return 0, 0, err
	}
	// A daemon boots on an empty heap; without this, when the collector
	// next runs over the previous boots' garbage decides the op's time and
	// the process's peak.
	onClock = b.offClock()
	runtime.GC()
	onClock()

	t0 := time.Now()
	st, err := newStack(strip, b.tr != nil)
	if err != nil {
		return 0, 0, err
	}
	defer func() {
		defer b.offClock()()
		b.fold(st)
		// Service is restored: the daemon is killed, not shut down. Draining
		// its journal would put 128 fsyncs of harness time behind every op.
		if cerr := st.close(kill); err == nil {
			err = cerr
		}
		// The recovery re-plan journals two records per restored task.
		if want := b.imageSeq + uint64(2*residents); err == nil && st.finalSeq != want {
			err = fmt.Errorf("boot: journal accepted records up to seq %d, want %d", st.finalSeq, want)
		}
	}()
	restored, err := st.openState(dir, b.tr)
	t1 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	if restored != residents {
		return 0, 0, fmt.Errorf("boot restored %d of %d tasks", restored, residents)
	}
	if err := st.listen(); err != nil {
		return 0, 0, err
	}
	cl, err := ctrlproto.Dial(st.addr)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	tasks, err := cl.ListTasks(st.ctx)
	t2 := time.Now()
	if err != nil {
		return 0, 0, err
	}
	running := 0
	for _, t := range tasks {
		if t.State == orchestrator.TaskRunning.String() {
			running++
			if t.Kind == "link" && t.Domain == 0 {
				b.bootSNR = append(b.bootSNR, t.Metric)
			}
		}
	}
	if running != residents {
		return 0, 0, fmt.Errorf("boot: %d of %d tasks running", running, residents)
	}
	b.bootPlans = st.orch.Plans()
	b.digestPlans()
	return t1.Sub(t0), t2.Sub(t0), nil
}
