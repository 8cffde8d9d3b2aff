// Package optimize searches surface configurations for service objectives.
// It is the "optimizer" of the paper's surface orchestrator (§3.2): given
// channel decompositions from the simulator, it minimizes task losses —
// coverage, sensing, powering, security — individually or jointly
// ("multitasking with joint optimization").
//
// Objectives expose analytic gradients with respect to per-element phase
// shifts, which Adam exploits; the derivative-free baseline (random search)
// only uses Eval. Every service objective is also a Reducer: it rebuilds
// itself over the hardware's control variables (one phase per column of a
// column-wise panel, none for a fabricated passive one), exactly. A
// coverage or power objective over one cascade-free channel also returns
// its exact optimum from Solve (co-phasing).
//
// Plan, the one planner, reduces, then solves or runs Adam, then realizes
// the answer through each panel's driver.
package optimize

import (
	"fmt"

	"surfos/internal/em"
	"surfos/internal/rfsim"
	"surfos/internal/surface"
)

// Objective is a differentiable scalar loss over per-surface phase vectors.
// Implementations must be safe for repeated sequential calls with different
// inputs, but may reuse internal scratch between calls: the gradient
// returned by Eval is valid only until the next Eval call on the same
// objective, and a single objective instance must not be evaluated from
// multiple goroutines concurrently.
type Objective interface {
	// Shape returns the element count per surface; phases passed to Eval
	// must match.
	Shape() []int
	// Eval returns the loss and, when wantGrad is true, ∂loss/∂φ for every
	// element (same shape as phases). Implementations may return a nil
	// gradient when wantGrad is false.
	Eval(phases [][]float64, wantGrad bool) (float64, [][]float64)
}

// Reducer is an objective that can rebuild itself over the devices'
// control variables, one rfsim.ControlMap per surface (see
// rfsim.Channel.Reduce). The reduced objective's loss at control phases θ
// equals this one's at rfsim.ExpandAll(maps, θ), normalization constants
// included, so a plan searched over θ is judged as its expansion would be.
// Reduce panics when maps does not hold one map per surface, as
// rfsim.Channel.Reduce does.
type Reducer interface {
	Reduce(maps []rfsim.ControlMap) Objective
}

// Phasors converts phase values to unit phasors e^{jφ}, shaped like the
// input.
func Phasors(phases [][]float64) [][]complex128 {
	return em.Phasors(phases)
}

// ZeroPhases allocates an all-zero phase set for a shape.
func ZeroPhases(shape []int) [][]float64 {
	p := make([][]float64, len(shape))
	for i, n := range shape {
		p[i] = make([]float64, n)
	}
	return p
}

// ClonePhases deep-copies a phase set.
func ClonePhases(p [][]float64) [][]float64 {
	out := make([][]float64, len(p))
	for i, v := range p {
		c := make([]float64, len(v))
		copy(c, v)
		out[i] = c
	}
	return out
}

// copyPhases copies src into dst, which must share src's shape.
func copyPhases(dst, src [][]float64) {
	for s := range src {
		copy(dst[s], src[s])
	}
}

// gradScratch returns a zeroed gradient buffer for shape, reusing buf's
// storage when it already matches.
func gradScratch(buf [][]float64, shape []int) [][]float64 {
	if len(buf) != len(shape) {
		return ZeroPhases(shape)
	}
	for s, n := range shape {
		if len(buf[s]) != n {
			return ZeroPhases(shape)
		}
		for k := range buf[s] {
			buf[s][k] = 0
		}
	}
	return buf
}

// PhasesToConfigs wraps phase vectors as surface configurations.
func PhasesToConfigs(phases [][]float64) []surface.Config {
	cfgs := make([]surface.Config, len(phases))
	for i, p := range phases {
		v := make([]float64, len(p))
		copy(v, p)
		cfgs[i] = surface.Config{Property: surface.Phase, Values: v}
	}
	return cfgs
}

// ConfigsToPhases extracts phase vectors from configurations.
func ConfigsToPhases(cfgs []surface.Config) ([][]float64, error) {
	out := make([][]float64, len(cfgs))
	for i, c := range cfgs {
		if c.Property != surface.Phase {
			return nil, fmt.Errorf("optimize: config %d has property %v, want phase", i, c.Property)
		}
		v := make([]float64, len(c.Values))
		copy(v, c.Values)
		out[i] = v
	}
	return out, nil
}

// shapeMatches verifies phases fit a shape.
func shapeMatches(shape []int, phases [][]float64) error {
	if len(phases) != len(shape) {
		return fmt.Errorf("optimize: %d phase vectors for %d surfaces", len(phases), len(shape))
	}
	for i, n := range shape {
		if len(phases[i]) != n {
			return fmt.Errorf("optimize: surface %d has %d phases, want %d", i, len(phases[i]), n)
		}
	}
	return nil
}

// WeightedSum combines objectives with weights; this realizes the paper's
// joint multitask loss ("we minimize the sum of localization loss and
// coverage loss", §4). All terms must share one shape.
type WeightedSum struct {
	Terms   []Objective
	Weights []float64

	grad [][]float64 // gradient scratch, reused across Eval calls
}

// NewWeightedSum validates shapes and builds the combination.
func NewWeightedSum(terms []Objective, weights []float64) (*WeightedSum, error) {
	if len(terms) == 0 {
		return nil, fmt.Errorf("optimize: weighted sum needs at least one term")
	}
	if len(weights) != len(terms) {
		return nil, fmt.Errorf("optimize: %d weights for %d terms", len(weights), len(terms))
	}
	shape := terms[0].Shape()
	for i, t := range terms[1:] {
		s := t.Shape()
		if len(s) != len(shape) {
			return nil, fmt.Errorf("optimize: term %d shape mismatch", i+1)
		}
		for j := range s {
			if s[j] != shape[j] {
				return nil, fmt.Errorf("optimize: term %d surface %d has %d elements, want %d", i+1, j, s[j], shape[j])
			}
		}
	}
	return &WeightedSum{Terms: terms, Weights: weights}, nil
}

// Shape implements Objective.
func (w *WeightedSum) Shape() []int { return w.Terms[0].Shape() }

// Reduce implements Reducer: every term reduced, with the same weights.
// Every term must be a Reducer.
func (w *WeightedSum) Reduce(maps []rfsim.ControlMap) Objective {
	terms := make([]Objective, len(w.Terms))
	for i, t := range w.Terms {
		terms[i] = t.(Reducer).Reduce(maps)
	}
	return &WeightedSum{Terms: terms, Weights: w.Weights}
}

// Eval implements Objective. Each term's gradient is accumulated into the
// sum's reusable scratch immediately after the term evaluates, so terms may
// themselves return reused buffers.
func (w *WeightedSum) Eval(phases [][]float64, wantGrad bool) (float64, [][]float64) {
	var loss float64
	var grad [][]float64
	if wantGrad {
		w.grad = gradScratch(w.grad, w.Shape())
		grad = w.grad
	}
	for i, t := range w.Terms {
		l, g := t.Eval(phases, wantGrad)
		loss += w.Weights[i] * l
		if wantGrad {
			for s := range g {
				for k := range g[s] {
					grad[s][k] += w.Weights[i] * g[s][k]
				}
			}
		}
	}
	return loss, grad
}
