package optimize

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"surfos/internal/driver"
	"surfos/internal/geom"
	"surfos/internal/rfsim"
	"surfos/internal/surface"
)

// testPanel wraps a rows×cols reflective panel in a driver of spec.
func testPanel(t *testing.T, spec driver.Spec, rows, cols int) *driver.Driver {
	t.Helper()
	s, err := surface.New(spec.Model, geom.RectXY(geom.V(0, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.5, 0.5),
		surface.Layout{Rows: rows, Cols: cols, PitchU: 0.00625, PitchV: 0.00625}, surface.Reflective, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := driver.New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// continuousColumns is NR-Surface's column-wise design without phase
// quantization: Realize keeps each line's phase, so a plan's |h| can be held
// to the control-space ceiling, which no column-constrained configuration
// exceeds.
func continuousColumns(t *testing.T) driver.Spec {
	t.Helper()
	spec, err := driver.Lookup(driver.ModelNRSurface)
	if err != nil {
		t.Fatal(err)
	}
	spec.Model, spec.PhaseBits = "NR-Surface-continuous", 0
	return spec
}

// planMaps returns each driver's control map.
func planMaps(drvs []*driver.Driver) []rfsim.ControlMap {
	maps := make([]rfsim.ControlMap, len(drvs))
	for i, d := range drvs {
		maps[i] = d.ControlMap()
	}
	return maps
}

// A one-point power objective over a cascade whose other panel is a
// fabricated passive one is solved in closed form with no evaluations: the
// passive panel has no lines, so the cascade block folds into the
// programmable panel's lines. The passive panel realizes its burned-in
// pattern and |h| reaches the reduced channel's ceiling — on either side of
// the cascade block.
func TestPlanHoldsFabricatedPassive(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	passive, err := driver.Lookup(driver.ModelAutoMS)
	if err != nil {
		t.Fatal(err)
	}
	for _, held := range []int{0, 1} {
		pas := testPanel(t, passive, 3, 3)
		if err := pas.ShiftPhase(surface.Config{Property: surface.Phase, Values: randPhases(r, []int{9})[0]}); err != nil {
			t.Fatal(err)
		}
		drvs := []*driver.Driver{pas, testPanel(t, continuousColumns(t), 3, 4)}
		shape := []int{9, 12}
		if held == 1 {
			drvs[0], drvs[1] = drvs[1], drvs[0]
			shape[0], shape[1] = shape[1], shape[0]
		}
		ch := randChannel(r, shape, true)
		obj, _ := NewPowerObjective([]*rfsim.Channel{ch})
		res := Plan(context.Background(), obj, drvs, 50)
		if res.Evals != 0 {
			t.Errorf("held panel %d: plan ran %d evaluations, want a closed-form solve", held, res.Evals)
		}
		burned, _, _ := pas.Active()
		for k, v := range burned.Values {
			if res.Phases[held][k] != v {
				t.Fatalf("held panel %d: element %d planned at %v, burned in at %v", held, k, res.Phases[held][k], v)
			}
		}
		ceiling := cohBound(ch.Reduce(planMaps(drvs)))
		if got := cabs(ch.EvalPhasors(Phasors(res.Phases))); math.Abs(got-ceiling) > 1e-12*ceiling {
			t.Errorf("held panel %d: |h| %v, control-space ceiling %v", held, got, ceiling)
		}
	}
}

// Planning in control space is no worse than the element-space path it
// replaced — solve or search every element, then project each panel onto
// its columns: on continuous column-wise panels the plan reaches the
// control-space ceiling, the best any column-constrained configuration
// does. A link is solved without evaluations; two points are searched.
func TestPlanBeatsElementSpace(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	ctx := context.Background()
	for trial := 0; trial < 6; trial++ {
		drvs := []*driver.Driver{testPanel(t, continuousColumns(t), 3, 4), testPanel(t, continuousColumns(t), 4, 3)}
		ch := randChannel(r, []int{12, 12}, false)
		obj, _ := NewCoverageObjective([]*rfsim.Channel{ch}, testBudget())
		res := Plan(ctx, obj, drvs, 150)
		if res.Evals != 0 {
			t.Errorf("trial %d: link plan ran %d evaluations", trial, res.Evals)
		}
		project := func(phases [][]float64) [][]float64 {
			out := make([][]float64, len(phases))
			for i, p := range phases {
				out[i] = drvs[i].Project(surface.Config{Property: surface.Phase, Values: p}).Values
			}
			return out
		}
		gain := func(phases [][]float64) float64 { return cabs(ch.EvalPhasors(Phasors(phases))) }
		planned := gain(res.Phases)
		if ceiling := cohBound(ch.Reduce(planMaps(drvs))); math.Abs(planned-ceiling) > 1e-12*ceiling {
			t.Errorf("trial %d: |h| %v, control-space ceiling %v", trial, planned, ceiling)
		}
		adam := Adam(ctx, obj, ZeroPhases(obj.Shape()), Options{MaxIters: 150})
		for name, phases := range map[string][][]float64{"solve": obj.Solve(), "Adam": adam.Phases} {
			if old := gain(project(phases)); planned < old*(1-1e-12) {
				t.Errorf("trial %d: |h| %v below the projected element %s's %v", trial, planned, name, old)
			}
		}

		two, _ := NewCoverageObjective([]*rfsim.Channel{ch, randChannel(r, []int{12, 12}, false)}, testBudget())
		if res := Plan(ctx, two, drvs, 20); res.Evals <= 1 {
			t.Errorf("trial %d: two-point plan ran %d evaluations, want a search", trial, res.Evals)
		}
	}
}
