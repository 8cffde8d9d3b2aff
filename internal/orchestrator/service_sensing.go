package orchestrator

import (
	"context"
	"fmt"
	"math"
	"time"

	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/sensing"
)

// SensingGoal asks for localization service over a region
// (enable_sensing()).
type SensingGoal struct {
	Region   string
	Type     string // e.g. "tracking"
	Duration time.Duration
	FreqHz   float64
	GridStep float64
}

// sensingBandwidthHz is the wideband sounding bandwidth.
const sensingBandwidthHz = 1.8e9

func init() { MustRegisterService(sensingService{}) }

// sensingService is the localization module: a training-grid localization
// objective evaluated through the band's shared simulator. The embedded
// codec makes sensing goals journal-persistable.
type sensingService struct{ jsonGoal[SensingGoal] }

func (sensingService) Kind() ServiceKind { return ServiceSensing }
func (sensingService) Name() string      { return "sensing" }

func (sensingService) Validate(o *Orchestrator, goal any) error {
	g, ok := goal.(SensingGoal)
	if !ok {
		return fmt.Errorf("%w: sensing wants a SensingGoal, got %T", ErrGoalInvalid, goal)
	}
	if _, err := o.Scene.Region(g.Region); err != nil {
		return fmt.Errorf("%w: %w", ErrGoalInvalid, err)
	}
	return nil
}

func (sensingService) Freq(goal any) float64 {
	g, _ := goal.(SensingGoal)
	return g.FreqHz
}

func (sensingService) Duration(goal any) time.Duration {
	g, _ := goal.(SensingGoal)
	return g.Duration
}

func (sensingService) Target(o *Orchestrator, goal any) geom.Vec3 {
	g, _ := goal.(SensingGoal)
	if r, err := o.Scene.Region(g.Region); err == nil {
		return r.Box.Center()
	}
	return geom.Vec3{}
}

func (sensingService) BuildObjective(ctx context.Context, o *Orchestrator, t *Task, band Band, spec engine.Spec) (optimize.Objective, Evaluator, error) {
	goal, ok := t.Goal.(SensingGoal)
	if !ok {
		return nil, nil, fmt.Errorf("%w: task %d: sensing wants a SensingGoal, got %T", ErrGoalInvalid, t.ID, t.Goal)
	}
	lb := band.AP.Budget
	step := goal.GridStep
	if step == 0 {
		step = o.Opts.SensingGridStep
	}
	reg, err := o.Scene.Region(goal.Region)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrGoalInvalid, err)
	}
	pts := reg.GridPoints(step, scene.EvalHeight)
	if len(pts) == 0 {
		return nil, nil, fmt.Errorf("%w: region %q has no grid points", ErrGoalInvalid, goal.Region)
	}
	sim, err := o.eng.Simulator(spec)
	if err != nil {
		return nil, nil, err
	}
	est, err := estimatorFor(o, band, sim)
	if err != nil {
		return nil, nil, err
	}
	meas := make([]*sensing.Measurement, len(pts))
	if err := o.eng.ForEach(ctx, len(pts), func(i int) {
		meas[i] = est.Measure(pts[i])
	}); err != nil {
		return nil, nil, err
	}
	obj, err := sensing.NewLocalizationObjective(est, meas, 0)
	if err != nil {
		return nil, nil, err
	}
	noiseAmp := sensing.NoiseAmplitude(lb)
	eval := func(ph [][]float64) *Result {
		errM := obj.MeanLocalizationError(ph, noiseAmp, 1)
		return &Result{Metric: errM, MetricName: "mean_loc_err_m", Satisfied: true}
	}
	return obj, eval, nil
}

// Weight leaves the localization term unscaled: the paper's plain sum.
func (sensingService) Weight(*Orchestrator, *Task, optimize.Objective) float64 { return 1 }

// estimatorFor builds the sensing estimator for a band: the AP's antenna
// array observes the band's first sensing-capable surface.
func estimatorFor(o *Orchestrator, band Band, sim *rfsim.Simulator) (*sensing.Estimator, error) {
	n := band.AP.Antennas
	if n <= 0 {
		n = 16
	}
	lambda := em.Wavelength(band.FreqHz)
	ants := sensing.ULA(band.AP.Pos, geom.V(1, 0, 0), n, lambda/2)
	bins := sensing.DefaultBins(o.Opts.SensingBins, 60*math.Pi/180)
	subs := sensing.DefaultSubcarriers(band.FreqHz, sensingBandwidthHz, o.Opts.SensingSubcarriers)
	est, err := sensing.NewEstimator(sim, 0, ants, bins, subs)
	if err != nil {
		return nil, err
	}
	amp := sensing.NoiseAmplitude(band.AP.Budget)
	est.NoisePower = amp * amp
	return est, nil
}
