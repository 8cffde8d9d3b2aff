package optimize

import (
	"context"

	"surfos/internal/driver"
	"surfos/internal/rfsim"
)

// Plan is the one planner: it computes the configuration an objective asks
// of the panels behind drvs, one driver per surface, in order. The objective
// is reduced to the drivers' control maps (obj must be a Reducer), so the
// search runs over control lines: around stuck elements, on top of a
// fabricated bias, with a fabricated passive panel held at its pattern. An
// objective with a closed form (Solve) is solved without evaluations; any
// other runs Adam from zero phases for at most iters steps (0: Adam's
// default). Each driver's Realize then maps its line phases to the element
// phases it realizes, so quantization is paid once, at the end. Loss is
// Adam's best loss before Realize, and 0 when solved.
func Plan(ctx context.Context, obj Objective, drvs []*driver.Driver, iters int) Result {
	maps := make([]rfsim.ControlMap, len(drvs))
	for i, d := range drvs {
		maps[i] = d.ControlMap()
	}
	work := obj.(Reducer).Reduce(maps)
	var res Result
	if s, ok := work.(interface{ Solve() [][]float64 }); ok {
		res.Phases = s.Solve() // no evaluations
	}
	if res.Phases == nil {
		res = Adam(ctx, work, ZeroPhases(work.Shape()), Options{MaxIters: iters})
	}
	for i, d := range drvs {
		res.Phases[i] = d.Realize(res.Phases[i]).Values
	}
	return res
}
