package orchestrator

import (
	"context"
	"math"
	"math/cmplx"
	"testing"

	"surfos/internal/driver"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// linkObjective builds the link service's objective for pos over every
// device of the rig, as buildCell would.
func linkObjective(t *testing.T, r *rig, freqHz float64, pos geom.Vec3) (*optimize.CoverageObjective, *rfsim.Channel, []*hwmgr.Device, rfsim.LinkBudget) {
	t.Helper()
	ctx := context.Background()
	devs := r.o.HW.Surfaces()
	ap, _ := r.o.HW.AP("ap0")
	tx, err := r.o.eng.Tx(ctx, r.o.specFor(freqHz, devs), ap.Pos)
	if err != nil {
		t.Fatal(err)
	}
	ch := tx.Channel(pos)
	obj, err := optimize.NewCoverageObjective([]*rfsim.Channel{ch}, ap.Budget)
	if err != nil {
		t.Fatal(err)
	}
	return obj, ch, devs, ap.Budget
}

// projected is the element-space reference path a control-space plan is
// measured against: each device's phases projected onto its hardware.
func projected(devs []*hwmgr.Device, phases [][]float64) [][]float64 {
	out := make([][]float64, len(phases))
	for i, p := range phases {
		out[i] = devs[i].Drv.Project(surface.Config{Property: surface.Phase, Values: p}).Values
	}
	return out
}

// linkRigs are the hardware sets link plans are checked on: two panels of
// quantized element-wise or column-wise hardware in the apartment.
var linkRigs = []struct {
	name   string
	model  string
	freqHz float64
}{
	{"1-bit element-wise", driver.ModelRFlens, 5.4e9},
	{"2-bit element-wise", driver.ModelScatterMIMO, 5.4e9},
	{"2-bit column-wise", driver.ModelNRSurface, 24e9},
}

// linkSpots are the apartment points link plans are checked at.
func linkSpots() []geom.Vec3 {
	return []geom.Vec3{bedroomPoint(), geom.V(5.0, 6.0, 1.0), geom.V(3.5, 4.5, 1.2), geom.V(1.5, 6.0, 1.0)}
}

// TestLinkSolveMatchesAdam compares optimizeConfigs' closed-form link plan
// with Adam@150 on quantized and column-wise hardware, two panels each, at
// four apartment points. Before projection the solve is exact, so its SNR
// is at least Adam's; after the one projection both plans are equally
// realizable, and the solve may not lose more than 0.01 dB to Adam. The
// solved run is recorded as one run with no evaluations.
func TestLinkSolveMatchesAdam(t *testing.T) {
	for _, tc := range linkRigs {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			r := newRigAt(t, fastOpts(), tc.freqHz, tc.model, tc.model)
			for _, pos := range linkSpots() {
				obj, ch, devs, lb := linkObjective(t, r, tc.freqHz, pos)
				snr := func(phases [][]float64) float64 {
					h, err := ch.Eval(optimize.PhasesToConfigs(phases))
					if err != nil {
						t.Fatal(err)
					}
					return lb.SNRdB(h)
				}
				solved := obj.Solve()
				if solved == nil {
					t.Fatal("Solve declined a one-channel cross-free link")
				}
				adam := optimize.Adam(ctx, obj, optimize.ZeroPhases(obj.Shape()), optimize.Options{MaxIters: 150})
				if s, a := snr(solved), snr(adam.Phases); s < a-1e-9 {
					t.Errorf("%v: continuous SNR %.4f dB below Adam's %.4f dB", pos, s, a)
				}

				runs, evals := r.o.optRuns.Load(), r.o.optEvals.Load()
				res := r.o.optimizeConfigs(ctx, obj, devs)
				if got := r.o.optRuns.Load() - runs; got != 1 {
					t.Errorf("%v: %d runs recorded, want 1", pos, got)
				}
				if got := r.o.optEvals.Load() - evals; got != 0 {
					t.Errorf("%v: solved run recorded %d evals, want 0", pos, got)
				}
				if s, a := snr(res.Phases), snr(projected(devs, adam.Phases)); s < a-0.01 {
					t.Errorf("%v: planned SNR %.4f dB, Adam's %.4f dB", pos, s, a)
				}
			}
		})
	}
}

// TestCascadeLinkRunsAdam: with cascade modelling on two panels, a link's
// channel has Cross blocks, Solve declines, and optimizeConfigs searches.
func TestCascadeLinkRunsAdam(t *testing.T) {
	opts := fastOpts()
	opts.Cascade = true
	r := newRig(t, opts, driver.ModelNRSurface, driver.ModelNRSurface)
	obj, ch, devs, _ := linkObjective(t, r, 24e9, bedroomPoint())
	if len(ch.Cross) == 0 {
		t.Fatal("cascade rig built a channel without Cross blocks")
	}
	if obj.Solve() != nil {
		t.Fatal("Solve answered a channel with Cross blocks")
	}
	evals := r.o.optEvals.Load()
	r.o.optimizeConfigs(context.Background(), obj, devs)
	if got := r.o.optEvals.Load() - evals; got <= 1 {
		t.Errorf("cascade run recorded %d evals, want Adam's (> 1)", got)
	}
}

// TestLinkSolveReachesControlCeiling: on each link rig the control-space
// solve co-phases every control line's summed coefficient, so |h| at its
// expansion reaches the control-space ceiling |Direct| + Σ_g |Σ_e c_e·b_e|
// (the reduced channel's coherent bound); and the plan made from it is no
// worse than solving per element and projecting (the circular mean of the
// element optima), which is how links were planned before.
func TestLinkSolveReachesControlCeiling(t *testing.T) {
	for _, tc := range linkRigs {
		t.Run(tc.name, func(t *testing.T) {
			r := newRigAt(t, fastOpts(), tc.freqHz, tc.model, tc.model)
			for _, pos := range linkSpots() {
				obj, ch, devs, lb := linkObjective(t, r, tc.freqHz, pos)
				maps := make([]rfsim.ControlMap, len(devs))
				for i, d := range devs {
					maps[i] = d.Drv.ControlMap()
				}
				red := obj.Reduce(maps).(*optimize.CoverageObjective)
				theta := red.Solve()
				if theta == nil {
					t.Fatal("Solve declined a reduced link")
				}
				rc := red.Channels[0]
				ceiling := cmplx.Abs(rc.Direct)
				for _, coeffs := range rc.Single {
					for _, c := range coeffs {
						ceiling += cmplx.Abs(c)
					}
				}
				h, err := ch.Eval(optimize.PhasesToConfigs(rfsim.ExpandAll(maps, theta)))
				if err != nil {
					t.Fatal(err)
				}
				if got := cmplx.Abs(h); math.Abs(got-ceiling) > 1e-12*ceiling {
					t.Errorf("%v: |h| = %v, control-space ceiling %v", pos, got, ceiling)
				}
				snr := func(phases [][]float64) float64 {
					h, err := ch.Eval(optimize.PhasesToConfigs(phases))
					if err != nil {
						t.Fatal(err)
					}
					return lb.SNRdB(h)
				}
				planned := snr(r.o.optimizeConfigs(context.Background(), obj, devs).Phases)
				if old := snr(projected(devs, obj.Solve())); planned < old-1e-9 {
					t.Errorf("%v: planned SNR %.4f dB below the element solve's projection, %.4f dB", pos, planned, old)
				}
			}
		})
	}
}

// TestControlSpaceBeatsElementSpace reproduces the element-space path —
// Adam over every element, then projection onto the column constraint —
// on the NR-Surface apartment rig, and checks that planning in control
// space is no worse for a coverage demand's median SNR over the target
// room or a secure demand's user/eve gap.
func TestControlSpaceBeatsElementSpace(t *testing.T) {
	opts := fastOpts()
	opts.OptIters, opts.GridStep = 150, 0.5
	r := newRig(t, opts, driver.ModelNRSurface, driver.ModelNRSurface)
	ctx := context.Background()
	devs := r.o.HW.Surfaces()
	ap, _ := r.o.HW.AP("ap0")
	band := Band{AP: ap, FreqHz: 24e9}
	spec := r.o.specFor(band.FreqHz, devs)
	for _, tc := range []struct {
		kind ServiceKind
		goal any
	}{
		{ServiceCoverage, CoverageGoal{Region: scene.RegionTargetRoom}},
		{ServiceSecurity, SecurityGoal{Endpoint: "laptop", UserPos: geom.V(2.5, 5.5, 1.2), EvePos: geom.V(5.5, 4.5, 1.2)}},
	} {
		svc, err := serviceFor(tc.kind)
		if err != nil {
			t.Fatal(err)
		}
		obj, eval, err := svc.BuildObjective(ctx, r.o, &Task{ID: 1, Kind: tc.kind, Goal: tc.goal}, band, spec)
		if err != nil {
			t.Fatal(err)
		}
		adam := optimize.Adam(ctx, obj, optimize.ZeroPhases(obj.Shape()), optimize.Options{MaxIters: opts.OptIters})
		old := eval(projected(devs, adam.Phases))
		got := eval(r.o.optimizeConfigs(ctx, obj, devs).Phases)
		t.Logf("%s: %s %.4f in control space, %.4f in element space", svc.Name(), got.MetricName, got.Metric, old.Metric)
		if got.Metric < old.Metric {
			t.Errorf("%s: %s %.4f in control space, below the element-space path's %.4f", svc.Name(), got.MetricName, got.Metric, old.Metric)
		}
	}
}
