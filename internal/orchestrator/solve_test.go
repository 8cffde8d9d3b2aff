package orchestrator

import (
	"context"
	"testing"

	"surfos/internal/driver"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
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

// TestLinkSolveMatchesAdam compares optimizeConfigs' closed-form link plan
// with Adam@150 on quantized and column-wise hardware, two panels each, at
// four apartment points. Before projection the solve is exact, so its SNR
// is at least Adam's; after the one projection both plans are equally
// realizable, and the solve may not lose more than 0.01 dB to Adam. The
// solved run is recorded as one run with no evaluations.
func TestLinkSolveMatchesAdam(t *testing.T) {
	spots := []geom.Vec3{bedroomPoint(), geom.V(5.0, 6.0, 1.0), geom.V(3.5, 4.5, 1.2), geom.V(1.5, 6.0, 1.0)}
	for _, tc := range []struct {
		name   string
		model  string
		freqHz float64
	}{
		{"1-bit element-wise", driver.ModelRFlens, 5.4e9},
		{"2-bit element-wise", driver.ModelScatterMIMO, 5.4e9},
		{"2-bit column-wise", driver.ModelNRSurface, 24e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			r := newRigAt(t, fastOpts(), tc.freqHz, tc.model, tc.model)
			for _, pos := range spots {
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
				if s, a := snr(res.Phases), snr(projectPhases(devs, adam.Phases)); s < a-0.01 {
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
