package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"surfos/internal/driver"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/optimize"
)

// liveGroup builds a scheduling group over the rig's live tasks (not
// snapshots), the way groupTasks would, for driving the plan builder
// directly.
func liveGroup(t *testing.T, r *rig, ids ...int) *group {
	t.Helper()
	aps := r.o.HW.APs()
	if len(aps) == 0 {
		t.Fatal("rig has no AP")
	}
	ap := aps[0]
	g := &group{band: Band{AP: ap, FreqHz: ap.FreqHz}, devs: r.o.HW.SurfacesForBand(ap.FreqHz)}
	r.o.mu.Lock()
	for _, id := range ids {
		task, ok := r.o.tasks[id]
		if !ok {
			r.o.mu.Unlock()
			t.Fatalf("no live task %d", id)
		}
		task.FreqHz = ap.FreqHz
		g.tasks = append(g.tasks, task)
	}
	r.o.mu.Unlock()
	return g
}

func TestScheduleTDMSingleTask(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "laptop", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := liveGroup(t, r, task.ID)
	plan, err := r.o.buildPlan(context.Background(), g, StrategyTDM)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Entries) != 1 || plan.Strategy != StrategyTDM {
		t.Fatalf("plan = %+v", plan)
	}
	if s := plan.shareOf(0); s != 1 {
		t.Errorf("single-entry share = %v, want 1", s)
	}
	got, _ := r.o.Task(task.ID)
	if got.State != TaskRunning || got.Result == nil || got.Result.Share != 1 {
		t.Errorf("task = state %v result %+v", got.State, got.Result)
	}
}

func TestScheduleSDMSingleTask(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "laptop", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := liveGroup(t, r, task.ID)
	plans, err := r.o.scheduleSDM(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || plans[0].Strategy != StrategySDM {
		t.Fatalf("plans = %+v", plans)
	}
	got, _ := r.o.Task(task.ID)
	if got.State != TaskRunning || got.Result == nil || got.Result.Share != 1 {
		t.Errorf("task = state %v result %+v", got.State, got.Result)
	}
}

func TestScheduleTDMEmptyGroup(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	g := liveGroup(t, r)
	for _, strategy := range []string{StrategyTDM, StrategyJoint} {
		if _, err := r.o.buildPlan(context.Background(), g, strategy); !errors.Is(err, ErrNoSchedulableTasks) {
			t.Errorf("empty %s group err = %v, want ErrNoSchedulableTasks", strategy, err)
		}
	}
}

func TestAllIdleGroupProducesNoPlans(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	for _, ep := range []string{"laptop", "phone"} {
		task, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: ep, Pos: bedroomPoint()}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.o.SetIdle(task.ID, true); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatalf("all-idle reconcile err = %v", err)
	}
	if plans := r.o.Plans(); len(plans) != 0 {
		t.Errorf("all-idle plans = %+v", plans)
	}
	for _, task := range r.o.Tasks() {
		if task.State != TaskIdle {
			t.Errorf("task %d state = %v, want idle", task.ID, task.State)
		}
	}
}

func TestSDMEmptySurfaceAssignmentFailsTyped(t *testing.T) {
	// One surface, two tasks, forced SDM: the lower-priority task gets no
	// surface and must fail with the typed sentinel, not panic.
	opts := fastOpts()
	opts.Policy = PolicySDM
	r := newRig(t, opts, driver.ModelNRSurface)
	hi, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "laptop", Pos: bedroomPoint()}, 5)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "phone", Pos: geom.V(5.0, 6.0, 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	gotHi, _ := r.o.Task(hi.ID)
	if gotHi.State != TaskRunning {
		t.Errorf("high-priority task state = %v (err %v)", gotHi.State, gotHi.Err)
	}
	gotLo, _ := r.o.Task(lo.ID)
	if gotLo.State != TaskFailed || !errors.Is(gotLo.Err, ErrNoActiveSurfaces) {
		t.Errorf("starved task: state=%v err=%v, want failed/ErrNoActiveSurfaces", gotLo.State, gotLo.Err)
	}
	if plans := r.o.Plans(); len(plans) != 1 {
		t.Errorf("plans = %+v", plans)
	}
}

func TestTDMSharesSumToOne(t *testing.T) {
	opts := fastOpts()
	opts.Policy = PolicyTDM
	r := newRig(t, opts, driver.ModelNRSurface)
	endpoints := []string{"laptop", "phone", "tv"}
	for i, ep := range endpoints {
		if _, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: ep, Pos: bedroomPoint()}, i+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	plans := r.o.Plans()
	if len(plans) != 1 || plans[0].Strategy != StrategyTDM {
		t.Fatalf("plans = %+v", plans)
	}
	p := plans[0]
	var frameSum float64
	for i := range p.Entries {
		frameSum += p.shareOf(i)
	}
	if math.Abs(frameSum-1) > 1e-9 {
		t.Errorf("shareOf sum = %v, want 1", frameSum)
	}
	var resultSum float64
	for _, task := range r.o.Tasks() {
		if task.State != TaskRunning || task.Result == nil {
			t.Fatalf("task %d: state %v result %+v", task.ID, task.State, task.Result)
		}
		resultSum += task.Result.Share
	}
	if math.Abs(resultSum-1) > 1e-9 {
		t.Errorf("result share sum = %v, want 1", resultSum)
	}
}

func TestTDMFrameServesEveryTaskPastFrameSlots(t *testing.T) {
	// 16 residents on one two-panel domain (the strip fixtures' load per
	// room): more entries than frameSlots. Every task the plan reports
	// running must hold a positive share and be selected within one frame.
	opts := fastOpts()
	opts.OptIters = 10
	r := newRig(t, opts, driver.ModelNRSurface, driver.ModelNRSurface)
	const n = 16
	for i := 0; i < n; i++ {
		pos := geom.V(1.5+0.25*float64(i), 5.5, 1.2)
		if _, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: fmt.Sprintf("ep%d", i), Pos: pos}, 1); err != nil {
			t.Fatal(err)
		}
	}
	reconcile(t, r)
	plans := r.o.Plans()
	if len(plans) != 1 || plans[0].Strategy != StrategyTDM || len(plans[0].Entries) != n {
		t.Fatalf("plans = %+v", plans)
	}
	for _, task := range r.o.Tasks() {
		if task.State != TaskRunning || task.Result == nil || task.Result.Share <= 0 {
			t.Errorf("task %d: state %v result %+v, want running with a positive share", task.ID, task.State, task.Result)
		}
	}
	dev, err := r.o.HW.Surface(plans[0].Surfaces[0])
	if err != nil {
		t.Fatal(err)
	}
	selected := map[string]bool{}
	for i := 0; i < n; i++ {
		if err := r.o.Tick(context.Background(), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		_, label, _ := dev.Drv.Active()
		selected[label] = true
	}
	for _, e := range plans[0].Entries {
		if !selected[e.Label] {
			t.Errorf("entry %s never selected in %d ticks", e.Label, n)
		}
	}
}

func TestEndTaskEagerlyReleasesEntries(t *testing.T) {
	// Two TDM tasks share one plan; ending one must shrink the plan and
	// the device codebooks immediately, before any Reconcile.
	opts := fastOpts()
	opts.Policy = PolicyTDM
	r := newRig(t, opts, driver.ModelNRSurface)
	a, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "laptop", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "phone", Pos: geom.V(5.0, 6.0, 1.0)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	plans := r.o.Plans()
	if len(plans) != 1 || len(plans[0].Entries) != 2 {
		t.Fatalf("plans before end = %+v", plans)
	}
	dev, err := r.o.HW.Surface(plans[0].Surfaces[0])
	if err != nil {
		t.Fatal(err)
	}
	if n := dev.Drv.CodebookLen(); n != 2 {
		t.Fatalf("codebook before end = %d entries", n)
	}

	if err := r.o.EndTask(a.ID); err != nil {
		t.Fatal(err)
	}
	// No Reconcile: the release must already be visible.
	plans = r.o.Plans()
	if len(plans) != 1 || len(plans[0].Entries) != 1 {
		t.Fatalf("plans after end = %+v", plans)
	}
	if got := plans[0].Entries[0].TaskIDs; len(got) != 1 || got[0] != b.ID {
		t.Errorf("surviving entry tasks = %v, want [%d]", got, b.ID)
	}
	if s := plans[0].shareOf(0); s != 1 {
		t.Errorf("surviving share = %v, want 1", s)
	}
	if n := dev.Drv.CodebookLen(); n != 1 {
		t.Errorf("codebook after end = %d entries, want 1", n)
	}

	// Ending the survivor dissolves the plan entirely.
	if err := r.o.EndTask(b.ID); err != nil {
		t.Fatal(err)
	}
	if plans := r.o.Plans(); len(plans) != 0 {
		t.Errorf("plans after ending all = %+v", plans)
	}
}

// zeroService exercises the zero-weight objective edge: a registered
// service whose joint-sum weight is 0 must not panic or poison the shared
// optimization.
const zeroKind = ServiceKind(43)

type zeroService struct{ echoService }

func (zeroService) Kind() ServiceKind { return zeroKind }
func (zeroService) Name() string      { return "zeroweight" }
func (zeroService) BuildObjective(ctx context.Context, o *Orchestrator, t *Task, band Band, spec engine.Spec) (optimize.Objective, Evaluator, error) {
	return echoService{}.BuildObjective(ctx, o, t, band, spec)
}
func (zeroService) Weight(*Orchestrator, *Task, optimize.Objective) float64 { return 0 }

func TestZeroWeightObjectiveSchedules(t *testing.T) {
	registerEcho(t)
	registerZeroOnce(t)
	opts := fastOpts()
	opts.Policy = PolicyJoint
	r := newRig(t, opts, driver.ModelNRSurface)
	link, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "laptop", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	zero, err := r.o.Submit(context.Background(), zeroKind, echoGoal{Endpoint: "ghost", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{link.ID, zero.ID} {
		got, _ := r.o.Task(id)
		if got.State != TaskRunning || got.Result == nil {
			t.Fatalf("task %d: state %v err %v", id, got.State, got.Err)
		}
		if math.IsNaN(got.Result.Metric) || math.IsInf(got.Result.Metric, 0) {
			t.Errorf("task %d metric = %v", id, got.Result.Metric)
		}
	}
}

var zeroRegistered = false

func registerZeroOnce(t *testing.T) {
	t.Helper()
	if zeroRegistered {
		return
	}
	if err := RegisterService(zeroService{}); err != nil {
		t.Fatal(err)
	}
	zeroRegistered = true
}

// Validate on zeroService delegates through the embedded echoService, whose
// goal type is echoGoal — confirm the delegation compiles into a usable
// service at submit time (regression guard for interface embedding).
var _ Service = zeroService{}
