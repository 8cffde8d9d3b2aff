package orchestrator

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"surfos/internal/driver"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/telemetry"
)

// brokenService is a registered service whose objective never builds: the
// failing term of a joint cell.
const brokenKind = ServiceKind(44)

type brokenService struct{ echoService }

func (brokenService) Kind() ServiceKind { return brokenKind }
func (brokenService) Name() string      { return "broken" }
func (brokenService) BuildObjective(context.Context, *Orchestrator, *Task, Band, engine.Spec) (optimize.Objective, Evaluator, error) {
	return nil, nil, errors.New("broken: no objective")
}

var brokenRegistered = false

func registerBrokenOnce(t *testing.T) {
	t.Helper()
	if brokenRegistered {
		return
	}
	if err := RegisterService(brokenService{}); err != nil {
		t.Fatal(err)
	}
	brokenRegistered = true
}

// TestPlanBytesPerStrategy pins json.Marshal(Plans()) for every strategy
// the plan builder serves. The digests were recorded at the commit before
// the per-strategy builders were folded into it, so the fold is checked to
// have changed no label, share, roster or configuration bit. The solo,
// TDM and SDM digests were re-recorded once when one-link cells began to
// be solved in closed form; the joint ones did not move. The joint and SDM
// digests were re-recorded once more when planning moved into the
// hardware's control space: the column optimum differs from the circular
// mean of the element optima.
func TestPlanBytesPerStrategy(t *testing.T) {
	registerBrokenOnce(t)
	ctx := context.Background()
	spots := []geom.Vec3{bedroomPoint(), geom.V(5.0, 6.0, 1.0), geom.V(3.5, 4.5, 1.2), geom.V(1.5, 6.0, 1.0)}
	links := func(t *testing.T, r *rig, prios ...int) []int {
		t.Helper()
		ids := make([]int, len(prios))
		for i, prio := range prios {
			task, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: fmt.Sprintf("ep%d", i), Pos: spots[i]}, prio)
			if err != nil {
				t.Fatal(err)
			}
			ids[i] = task.ID
		}
		return ids
	}
	cases := []struct {
		name     string
		policy   MultiplexPolicy
		models   []string
		strategy string
		setup    func(t *testing.T, r *rig)
		want     string
	}{
		{"solo", PolicyAuto, []string{driver.ModelNRSurface}, StrategySolo, func(t *testing.T, r *rig) {
			links(t, r, 1)
			reconcile(t, r)
		}, "e2cf3d4f448ddb8a"},
		{"joint", PolicyJoint, []string{driver.ModelNRSurface}, StrategyJoint, func(t *testing.T, r *rig) {
			links(t, r, 1, 1, 1)
			reconcile(t, r)
		}, "8cb9210294366797"},
		{"joint-failing-term", PolicyJoint, []string{driver.ModelNRSurface}, StrategyJoint, func(t *testing.T, r *rig) {
			links(t, r, 1)
			bad, err := r.o.Submit(ctx, brokenKind, echoGoal{Endpoint: "ghost", Pos: bedroomPoint()}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: "ep1", Pos: spots[1]}, 1); err != nil {
				t.Fatal(err)
			}
			reconcile(t, r)
			if got, _ := r.o.Task(bad.ID); got.State != TaskFailed {
				t.Errorf("broken task state = %v, want failed", got.State)
			}
		}, "0bbcd4ed1d22b69f"},
		{"tdm", PolicyTDM, []string{driver.ModelNRSurface}, StrategyTDM, func(t *testing.T, r *rig) {
			links(t, r, 3, 1, 2, 1)
			reconcile(t, r)
		}, "9db9e84c20be8fd5"},
		{"sdm", PolicyAuto, []string{driver.ModelNRSurface, driver.ModelNRSurface}, StrategySDM, func(t *testing.T, r *rig) {
			links(t, r, 1, 2)
			reconcile(t, r)
		}, "064db4e00bcc67bd"},
		{"tdm-after-end", PolicyTDM, []string{driver.ModelNRSurface}, StrategyTDM, func(t *testing.T, r *rig) {
			ids := links(t, r, 3, 1, 2, 1)
			reconcile(t, r)
			if err := r.o.EndTask(ids[1]); err != nil {
				t.Fatal(err)
			}
		}, "f4417159081ceea8"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := fastOpts()
			opts.OptIters = 20
			opts.Policy = tc.policy
			r := newRig(t, opts, tc.models...)
			tc.setup(t, r)
			plans := r.o.Plans()
			if len(plans) == 0 {
				t.Fatal("no plans")
			}
			for _, p := range plans {
				if p.Strategy != tc.strategy {
					t.Errorf("strategy = %s, want %s", p.Strategy, tc.strategy)
				}
			}
			raw, err := json.Marshal(plans)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(raw)
			if got := hex.EncodeToString(sum[:8]); got != tc.want {
				t.Errorf("plan bytes digest = %s, want %s (%d bytes)", got, tc.want, len(raw))
			}
		})
	}
}

// TestPlanBytesAcrossEngineWidths builds one 18-task TDM plan — 16 links
// of mixed priority and two tasks whose objective never builds, between
// them — on engines 1, 2, 4 and 8 workers wide. Wider engines plan the
// cells concurrently; the plan bytes, every task's state, error and result,
// and the order of the lifecycle events must still be the serial build's.
// The digest was recorded before cells were planned concurrently,
// re-recorded once when one-link cells began to be solved in closed form,
// and once when planning moved into the hardware's control space (a
// column's co-phased sum quantizes differently from the circular mean of
// its elements' co-phased phases).
func TestPlanBytesAcrossEngineWidths(t *testing.T) {
	registerBrokenOnce(t)
	const want = "1e442af2a4c6e4a5"
	type outcome struct {
		digest string
		tasks  []string
		events []string
	}
	build := func(t *testing.T, workers int) outcome {
		opts := fastOpts()
		opts.OptIters = 10
		opts.Engine = engine.New(engine.Options{Workers: workers})
		r := newRig(t, opts, driver.ModelNRSurface, driver.ModelNRSurface)
		bus := telemetry.NewEventBus()
		ch, cancel := bus.Subscribe(256)
		defer cancel()
		r.o.SetEventBus(bus)
		ctx := context.Background()
		for i := 0; i < 16; i++ {
			if i == 5 || i == 11 {
				if _, err := r.o.Submit(ctx, brokenKind, echoGoal{Endpoint: fmt.Sprintf("ghost%d", i), Pos: bedroomPoint()}, 1); err != nil {
					t.Fatal(err)
				}
			}
			pos := geom.V(1.5+0.25*float64(i), 5.5, 1.2)
			if _, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: fmt.Sprintf("ep%d", i), Pos: pos}, 1+i%3); err != nil {
				t.Fatal(err)
			}
		}
		reconcile(t, r)
		plans := r.o.Plans()
		if len(plans) != 1 || plans[0].Strategy != StrategyTDM || len(plans[0].Entries) != 16 {
			t.Fatalf("plans = %+v, want one TDM plan with 16 entries", plans)
		}
		raw, err := json.Marshal(plans)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		var out outcome
		out.digest = hex.EncodeToString(sum[:8])
		for _, task := range r.o.Tasks() {
			res, err := json.Marshal(task.Result)
			if err != nil {
				t.Fatal(err)
			}
			out.tasks = append(out.tasks, fmt.Sprintf("%d %s %v %s", task.ID, task.State, task.Err, res))
		}
		for _, ev := range drainEvents(ch) {
			out.events = append(out.events, fmt.Sprintf("%s %d", ev.State, ev.TaskID))
		}
		if bus.Dropped() != 0 {
			t.Fatalf("event bus dropped %d events", bus.Dropped())
		}
		return out
	}
	serial := build(t, 1)
	if serial.digest != want {
		t.Errorf("serial plan bytes digest = %s, want %s", serial.digest, want)
	}
	for _, workers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := build(t, workers)
			if got.digest != serial.digest {
				t.Errorf("plan bytes digest = %s, serial build %s", got.digest, serial.digest)
			}
			if !reflect.DeepEqual(got.tasks, serial.tasks) {
				t.Errorf("tasks differ from the serial build:\n got %q\nwant %q", got.tasks, serial.tasks)
			}
			if !reflect.DeepEqual(got.events, serial.events) {
				t.Errorf("event order differs from the serial build:\n got %q\nwant %q", got.events, serial.events)
			}
		})
	}
}

func reconcile(t *testing.T, r *rig) {
	t.Helper()
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
}
