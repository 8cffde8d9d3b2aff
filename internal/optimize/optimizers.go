package optimize

import (
	"context"
	"math"
	"math/rand"
)

// Options tunes an optimization run. Zero or negative values select sane
// defaults, so a partially filled Options can never produce an infinite
// (MaxIters ≤ 0 with no other stop) or diverging (LR ≤ 0) loop.
//
// Seed seeds RandomSearch's sampler (Adam is deterministic and ignores it).
// Seed 0 is a fixed seed like any other value — runs are never time-seeded,
// so repeated invocations with identical inputs produce identical results.
type Options struct {
	MaxIters int     // Adam steps / RandomSearch samples, default 200; values ≤ 0 use the default
	LR       float64 // Adam learning rate (radians), default 0.3; ≤ 0 uses the default
	Seed     int64   // RandomSearch RNG seed; 0 is deterministic, not time-seeded
}

// tolerance is Adam's convergence rule: it stops once |Δloss| stays below
// this for 10 iterations.
const tolerance = 1e-9

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.LR <= 0 {
		o.LR = 0.3
	}
	return o
}

// Result is the outcome of an optimization run.
type Result struct {
	Phases [][]float64
	Loss   float64
	// Iterations counts gradient steps (Adam) or samples drawn
	// (RandomSearch).
	Iterations int
	// Evals counts full objective evaluations performed during the run,
	// including the one that prices the returned phases.
	Evals int
	// Stopped is true when the run ended early because its context was
	// canceled or its deadline expired. Phases/Loss still hold the best
	// candidate found up to that point.
	Stopped bool
	// History records the loss after each iteration (Adam) or each
	// improvement (RandomSearch).
	History []float64
}

// canceled tolerates nil contexts so internal callers can pass the zero
// value without crashing.
func canceled(ctx context.Context) bool {
	return ctx != nil && ctx.Err() != nil
}

// Adam minimizes the objective with the Adam gradient method starting at
// init. The paper's prototype uses gradient descent for the orchestrator's
// optimizer; Adam is the standard robust variant. The search runs in the
// continuous phase space; callers snap the result onto their hardware's
// constraint set afterwards.
//
// The context is checked once per iteration: cancellation or deadline
// expiry stops the loop and returns the best-so-far result with
// Stopped set and Iterations < MaxIters.
func Adam(ctx context.Context, obj Objective, init [][]float64, opt Options) Result {
	opt = opt.withDefaults()
	phases := ClonePhases(init)

	m := ZeroPhases(obj.Shape())
	v := ZeroPhases(obj.Shape())
	const beta1, beta2, eps = 0.9, 0.999, 1e-8

	best := ClonePhases(phases)
	bestLoss := math.Inf(1)
	var history []float64
	flat := 0
	prev := math.Inf(1)
	stopped := false
	evals := 0

	var it int
	for it = 1; it <= opt.MaxIters; it++ {
		if canceled(ctx) {
			stopped = true
			it-- // this iteration did not run
			break
		}
		loss, grad := obj.Eval(phases, true)
		evals++
		if loss < bestLoss {
			bestLoss = loss
			copyPhases(best, phases)
		}
		history = append(history, loss)

		if math.Abs(prev-loss) < tolerance {
			flat++
			if flat >= 10 {
				break
			}
		} else {
			flat = 0
		}
		prev = loss

		b1t := 1 - math.Pow(beta1, float64(it))
		b2t := 1 - math.Pow(beta2, float64(it))
		for s := range phases {
			for k := range phases[s] {
				g := grad[s][k]
				m[s][k] = beta1*m[s][k] + (1-beta1)*g
				v[s][k] = beta2*v[s][k] + (1-beta2)*g*g
				mh := m[s][k] / b1t
				vh := v[s][k] / b2t
				phases[s][k] -= opt.LR * mh / (math.Sqrt(vh) + eps)
			}
		}
	}
	if it > opt.MaxIters {
		it = opt.MaxIters
	}

	finalLoss, _ := obj.Eval(best, false)
	evals++
	return Result{Phases: best, Loss: finalLoss, Iterations: it, Evals: evals, Stopped: stopped, History: history}
}

// RandomSearch samples uniformly random phase sets and keeps the best —
// the derivative-free baseline every gradient method must beat.
// Cancellation via ctx returns the best sample drawn so far.
func RandomSearch(ctx context.Context, obj Objective, opt Options) Result {
	opt = opt.withDefaults()
	rng := rand.New(rand.NewSource(opt.Seed))
	shape := obj.Shape()

	best := ZeroPhases(shape)
	bestLoss, _ := obj.Eval(best, false)
	history := []float64{bestLoss}
	stopped := false
	evals := 1

	cand := ZeroPhases(shape)
	it := 0
	for ; it < opt.MaxIters; it++ {
		if canceled(ctx) {
			stopped = true
			break
		}
		for s := range cand {
			for k := range cand[s] {
				cand[s][k] = rng.Float64() * 2 * math.Pi
			}
		}
		l, _ := obj.Eval(cand, false)
		evals++
		if l < bestLoss {
			bestLoss = l
			// Keep the winner and recycle the displaced buffer as the next
			// sample's scratch.
			best, cand = cand, best
			history = append(history, l)
		}
	}
	return Result{Phases: best, Loss: bestLoss, Iterations: it, Evals: evals, Stopped: stopped, History: history}
}
