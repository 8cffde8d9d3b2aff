package orchestrator

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"surfos/internal/driver"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
)

// echoService is a stub sixth service: it exists to prove the scheduler
// core is service-agnostic — registering and scheduling it requires zero
// edits outside this file.
const echoKind = ServiceKind(42)

type echoGoal struct {
	Endpoint string
	Pos      geom.Vec3
}

func (g echoGoal) EndpointName() string { return g.Endpoint }

type echoService struct {
	weight float64
}

func (echoService) Kind() ServiceKind { return echoKind }
func (echoService) Name() string      { return "echo" }

func (echoService) Validate(_ *Orchestrator, goal any) error {
	g, ok := goal.(echoGoal)
	if !ok {
		return fmt.Errorf("%w: echo wants an echoGoal, got %T", ErrGoalInvalid, goal)
	}
	if g.Endpoint == "" {
		return fmt.Errorf("%w: echo goal needs an endpoint", ErrGoalInvalid)
	}
	return nil
}

func (echoService) Freq(any) float64           { return 0 }
func (echoService) Duration(any) time.Duration { return 0 }

func (echoService) Target(_ *Orchestrator, goal any) geom.Vec3 {
	g, _ := goal.(echoGoal)
	return g.Pos
}

func (echoService) BuildObjective(ctx context.Context, o *Orchestrator, t *Task, band Band, spec engine.Spec) (optimize.Objective, Evaluator, error) {
	g, ok := t.Goal.(echoGoal)
	if !ok {
		return nil, nil, fmt.Errorf("%w: task %d: echo wants an echoGoal", ErrGoalInvalid, t.ID)
	}
	return echoObjective(ctx, o, g.Pos, band, spec)
}

// echoObjective is the echo service's objective: the link objective toward
// pos, reported under its own metric name.
func echoObjective(ctx context.Context, o *Orchestrator, pos geom.Vec3, band Band, spec engine.Spec) (optimize.Objective, Evaluator, error) {
	lb := band.AP.Budget
	tc, err := o.eng.Tx(ctx, spec, band.AP.Pos)
	if err != nil {
		return nil, nil, err
	}
	ch := tc.Channel(pos)
	obj, err := optimize.NewCoverageObjective([]*rfsim.Channel{ch}, lb)
	if err != nil {
		return nil, nil, err
	}
	eval := func(ph [][]float64) *Result {
		h, _ := ch.Eval(optimize.PhasesToConfigs(ph))
		return &Result{Metric: lb.SNRdB(h), MetricName: "echo_snr_db", Satisfied: true}
	}
	return obj, eval, nil
}

func (s echoService) Weight(*Orchestrator, *Task, optimize.Objective) float64 { return s.weight }

var registerEchoOnce sync.Once

// registerEcho installs the stub service exactly once per test binary (the
// registry is process-global).
func registerEcho(t *testing.T) {
	t.Helper()
	registerEchoOnce.Do(func() {
		if err := RegisterService(echoService{weight: 1}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestStubServiceSchedulesWithoutCoreEdits(t *testing.T) {
	registerEcho(t)
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, err := r.o.Submit(context.Background(), echoKind, echoGoal{Endpoint: "probe", Pos: bedroomPoint()}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if task.Kind.String() != "echo" {
		t.Errorf("kind string = %q, want echo", task.Kind.String())
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := r.o.Task(task.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != TaskRunning {
		t.Fatalf("stub service task state = %v (err %v)", got.State, got.Err)
	}
	if got.Result == nil || got.Result.MetricName != "echo_snr_db" {
		t.Fatalf("stub service result = %+v", got.Result)
	}
	if err := r.o.EndTask(task.ID); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitUnknownServiceKind(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	_, err := r.o.Submit(context.Background(), ServiceKind(200), struct{}{}, 1)
	if !errors.Is(err, ErrUnknownService) {
		t.Fatalf("err = %v, want ErrUnknownService", err)
	}
}

func TestRegisterServiceRejectsNilAndDuplicates(t *testing.T) {
	registerEcho(t)
	if err := RegisterService(nil); err == nil {
		t.Error("nil service accepted")
	}
	if err := RegisterService(echoService{}); err == nil {
		t.Error("duplicate kind accepted")
	}
}

func TestRegisteredServicesAndKindByName(t *testing.T) {
	registerEcho(t)
	kinds := RegisteredServices()
	want := map[ServiceKind]bool{
		ServiceLink: true, ServiceCoverage: true, ServiceSensing: true,
		ServicePowering: true, ServiceSecurity: true, echoKind: true,
	}
	seen := map[ServiceKind]bool{}
	for i, k := range kinds {
		if i > 0 && kinds[i-1] >= k {
			t.Errorf("kinds not ascending: %v", kinds)
		}
		seen[k] = true
	}
	for k := range want {
		if !seen[k] {
			t.Errorf("kind %d missing from RegisteredServices", k)
		}
	}
	for _, name := range []string{"link", "coverage", "sensing", "powering", "security", "echo"} {
		k, err := KindByName(name)
		if err != nil {
			t.Errorf("KindByName(%q): %v", name, err)
			continue
		}
		if k.String() != name {
			t.Errorf("KindByName(%q) = kind %d (%q)", name, k, k.String())
		}
	}
	if _, err := KindByName("nope"); !errors.Is(err, ErrUnknownService) {
		t.Errorf("KindByName(nope) err = %v, want ErrUnknownService", err)
	}
}

func TestTypedSentinels(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	if _, err := r.o.Task(999); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("Task(999) err = %v, want ErrUnknownTask", err)
	}
	if err := r.o.EndTask(999); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("EndTask(999) err = %v, want ErrUnknownTask", err)
	}
	if err := r.o.SetIdle(999, true); !errors.Is(err, ErrUnknownTask) {
		t.Errorf("SetIdle(999) err = %v, want ErrUnknownTask", err)
	}
	if _, err := r.o.EnhanceLink(context.Background(), LinkGoal{}, 1); !errors.Is(err, ErrGoalInvalid) {
		t.Errorf("empty link goal err = %v, want ErrGoalInvalid", err)
	}
	if _, err := r.o.OptimizeCoverage(context.Background(), CoverageGoal{Region: "nope"}, 1); !errors.Is(err, ErrGoalInvalid) {
		t.Errorf("bad region err = %v, want ErrGoalInvalid", err)
	}

	// A band nothing serves: the task fails with the typed sentinel.
	task, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "laptop", Pos: bedroomPoint(), FreqHz: 2.4e9}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = r.o.Reconcile(context.Background())
	got, _ := r.o.Task(task.ID)
	if got.State != TaskFailed || !errors.Is(got.Err, ErrNoAccessPoint) {
		t.Errorf("off-band task: state=%v err=%v, want failed/ErrNoAccessPoint", got.State, got.Err)
	}
}
