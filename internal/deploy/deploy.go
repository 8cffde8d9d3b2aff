// Package deploy implements SurfOS's deployment automation (paper §5,
// "New hardware design and deployment"): given candidate mounting
// locations, a hardware design, and a service goal, it evaluates placements
// through the channel simulator and ranks them — the clean-slate stage
// AutoMS automates for passive mmWave surfaces, generalized over the
// driver catalog.
package deploy

import (
	"context"
	"fmt"
	"math"
	"sort"

	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// Request describes a placement planning problem.
type Request struct {
	// Scene is the deployment environment.
	Scene *scene.Scene
	// AP is the serving access point position.
	AP geom.Vec3
	// Budget is the link budget for scoring.
	Budget rfsim.LinkBudget
	// Region is the coverage target region name.
	Region string
	// Spec is the hardware design to place.
	Spec driver.Spec
	// Rows, Cols size the panel.
	Rows, Cols int
	// Mounts are the candidate locations.
	Mounts []scene.MountSpot
	// GridStep is the coverage evaluation spacing (default 0.8 m).
	GridStep float64
	// OptIters bounds the per-candidate configuration search, which runs
	// in the design's control space through optimize.Plan (default 80).
	OptIters int
	// FreqHz overrides the operating frequency (default: band center).
	FreqHz float64
	// BeamAP aims the AP's 20 dB beamforming pattern at each candidate
	// surface (mmWave deployments). When set, Budget.AntennaGainDB should
	// carry only the client-side gain — the AP array gain is in the
	// pattern, and counting it twice inflates every candidate.
	BeamAP bool
	// Engine overrides the channel-evaluation engine (nil selects the
	// process-wide engine.Default()). Candidates are evaluated in parallel
	// across the engine's worker pool.
	Engine *engine.Engine
}

// Candidate is one evaluated placement.
type Candidate struct {
	Mount scene.MountSpot
	// MedianSNRdB is the achieved coverage with an optimized configuration.
	MedianSNRdB float64
	// APVisibility is the AP→panel-center amplitude gain through the
	// environment (0 = fully blocked).
	APVisibility float64
	// CostUSD is the panel hardware cost.
	CostUSD float64
	// Err records why a candidate could not be evaluated.
	Err error
}

// Plan evaluates every candidate mount in parallel and returns them ranked
// by achieved median SNR (best first). Candidates that fail to evaluate
// rank last with Err set. The ranking is deterministic: candidates are
// scored by index and sorted stably, so parallel evaluation returns
// exactly the serial ordering. Canceling ctx aborts unstarted candidates
// and returns the ctx error.
func Plan(ctx context.Context, req Request) ([]Candidate, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if req.Scene == nil {
		return nil, fmt.Errorf("deploy: nil scene")
	}
	if len(req.Mounts) == 0 {
		return nil, fmt.Errorf("deploy: no candidate mounts")
	}
	if err := req.Spec.Validate(); err != nil {
		return nil, err
	}
	if req.Rows <= 0 || req.Cols <= 0 {
		return nil, fmt.Errorf("deploy: panel size %dx%d", req.Rows, req.Cols)
	}
	reg, err := req.Scene.Region(req.Region)
	if err != nil {
		return nil, err
	}
	step := req.GridStep
	if step == 0 {
		step = 0.8
	}
	iters := req.OptIters
	if iters == 0 {
		iters = 80
	}
	freq := req.FreqHz
	if freq == 0 {
		freq = req.Spec.FreqLowHz + (req.Spec.FreqHighHz-req.Spec.FreqLowHz)/2
	}
	if !req.Spec.SupportsFreq(freq) {
		return nil, fmt.Errorf("deploy: %s does not support %g Hz", req.Spec.Model, freq)
	}
	pts := reg.GridPoints(step, scene.EvalHeight)
	if len(pts) == 0 {
		return nil, fmt.Errorf("deploy: region %q has no grid points", req.Region)
	}

	eng := req.Engine
	if eng == nil {
		eng = engine.Default()
	}
	out := make([]Candidate, len(req.Mounts))
	if err := eng.ForEach(ctx, len(req.Mounts), func(i int) {
		out[i] = evaluate(ctx, req, req.Mounts[i], freq, pts, iters)
	}); err != nil {
		return nil, err
	}
	sort.SliceStable(out, func(i, j int) bool {
		if (out[i].Err == nil) != (out[j].Err == nil) {
			return out[i].Err == nil
		}
		return out[i].MedianSNRdB > out[j].MedianSNRdB
	})
	return out, nil
}

// evaluate scores one mount. It runs inside the engine's worker pool, so
// everything it touches is either local or read-only.
func evaluate(ctx context.Context, req Request, mount scene.MountSpot, freq float64, pts []geom.Vec3, iters int) Candidate {
	cand := Candidate{Mount: mount, MedianSNRdB: math.Inf(-1)}
	pitch := em.Wavelength(freq) / 2
	panel := mount.Panel(float64(req.Cols)*pitch+0.02, float64(req.Rows)*pitch+0.02)
	mode := req.Spec.OpMode
	if mode == surface.Transflective {
		mode = surface.Reflective
	}
	s, err := surface.New("cand-"+mount.Name, panel, surface.Layout{
		Rows: req.Rows, Cols: req.Cols, PitchU: pitch, PitchV: pitch,
	}, mode, em.CosinePattern{Q: 0.5})
	if err != nil {
		cand.Err = err
		return cand
	}
	d, err := driver.New(req.Spec, s)
	if err != nil {
		cand.Err = err
		return cand
	}
	cand.CostUSD = d.CostUSD()

	sim, err := rfsim.New(req.Scene, freq, s)
	if err != nil {
		cand.Err = err
		return cand
	}
	if e := req.Spec.ElementEfficiency; e > 0 {
		sim.ElementEfficiency = e
	}
	if req.BeamAP {
		sim.TxPattern = rfsim.ConeBeam(panel.Center().Sub(req.AP), 12*math.Pi/180, 20, -5)
	}
	cand.APVisibility = req.Scene.SegmentGain(req.AP, panel.Center(), freq)

	tc := sim.NewTx(req.AP)
	chans := make([]*rfsim.Channel, len(pts))
	for i, p := range pts {
		chans[i] = tc.Channel(p)
	}
	obj, err := optimize.NewCoverageObjective(chans, req.Budget)
	if err != nil {
		cand.Err = err
		return cand
	}
	cfgs := optimize.PhasesToConfigs(optimize.Plan(ctx, obj, []*driver.Driver{d}, iters).Phases)

	snrs := make([]float64, len(chans))
	for i, ch := range chans {
		h, err := ch.Eval(cfgs)
		if err != nil {
			cand.Err = err
			return cand
		}
		snrs[i] = req.Budget.SNRdB(h)
	}
	cand.MedianSNRdB = rfsim.Median(snrs)
	return cand
}
