package sensing

import (
	"fmt"
	"math"
	"math/cmplx"

	"surfos/internal/em"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
)

// LocalizationObjective is the sensing task loss from the paper's §4: "the
// cross-entropy between the estimated and true AoA". The estimated AoA is
// the softmax of the noise-regularized matched-filter spectrum over angle
// bins; the true AoA is the one-hot bin of each training location.
// Minimizing it makes the surface configuration both deliver signal power
// to the locations (or the spectrum flattens into noise) and preserve the
// angular diversity the estimator needs.
//
// The objective is differentiable in every surface element phase: both the
// measurement y and the signature m are affine in the element phasors, and
// the spectrum is a smooth function of (y, m).
type LocalizationObjective struct {
	Est *Estimator
	// Locations are the training measurements (typically a grid over the
	// room the sensing service covers).
	Locations []*Measurement
	// Beta is the softmax sharpness over the spectrum (default 30).
	Beta float64

	shape []int
	// The signature of slot i at bin b is Σ_k SteerGeo[i/stride][b][k]·
	// legs[i][k]·x_k: over elements stride is the antenna count and legs
	// the estimator's AP legs; Reduce folds the legs into per-slot rows
	// (stride 1, legs all ones).
	stride int
	legs   [][]complex128
	// stuck[i] is location i's stuck-element terms once reduced (nil: none).
	stuck []*stuckTerms
}

// stuckTerms is what a reduced location's stuck elements add, at their
// frozen phases, to each slot's surface-borne measurement (y) and to each
// bin's signature (sig[slot][b]).
type stuckTerms struct {
	y   []complex128
	sig [][]complex128
}

// NewLocalizationObjective validates and builds the objective.
func NewLocalizationObjective(est *Estimator, locs []*Measurement, beta float64) (*LocalizationObjective, error) {
	if est == nil {
		return nil, fmt.Errorf("sensing: nil estimator")
	}
	if len(locs) == 0 {
		return nil, fmt.Errorf("sensing: objective needs at least one location")
	}
	if beta == 0 {
		beta = 30
	}
	shape := make([]int, len(locs[0].Coef[0]))
	for s := range shape {
		shape[s] = len(locs[0].Coef[0][s])
	}
	for li, m := range locs {
		if len(m.Coef) != est.NumSlots() {
			return nil, fmt.Errorf("sensing: location %d has %d slots, want %d", li, len(m.Coef), est.NumSlots())
		}
		if m.SteerGeo == nil {
			return nil, fmt.Errorf("sensing: location %d has no signature dictionary (use Estimator.Measure)", li)
		}
		for i := range m.Coef {
			if len(m.Coef[i]) != len(shape) {
				return nil, fmt.Errorf("sensing: location %d surface count mismatch", li)
			}
			for s := range m.Coef[i] {
				if len(m.Coef[i][s]) != shape[s] {
					return nil, fmt.Errorf("sensing: location %d surface %d element mismatch", li, s)
				}
			}
		}
	}
	return &LocalizationObjective{Est: est, Locations: locs, Beta: beta, shape: shape, stride: len(est.Ants), legs: est.apLeg}, nil
}

// Reduce implements optimize.Reducer: each location's per-slot
// coefficients are reduced to the control maps (rfsim.ControlMap.Fold), and
// so is its signature dictionary, with the AP legs folded into per-slot
// rows, unless the sensing surface's map is the identity; stuck elements
// become constant terms of the measurement and of every signature. The
// reduced objective is for the optimizer: estimate localization error on
// the element-space objective at the expanded phases. It panics when maps
// does not hold one map per surface.
func (o *LocalizationObjective) Reduce(maps []rfsim.ControlMap) optimize.Objective {
	if len(maps) != len(o.shape) {
		panic(fmt.Sprintf("sensing: %d control maps for %d surfaces", len(maps), len(o.shape)))
	}
	sigma := o.Est.SurfIdx
	nSlots := o.Est.NumSlots()
	shape := make([]int, len(maps))
	for s, m := range maps {
		shape[s] = m.Groups
	}
	red := &LocalizationObjective{
		Est: o.Est, Beta: o.Beta, shape: shape, stride: o.stride, legs: o.legs,
		Locations: make([]*Measurement, len(o.Locations)),
		stuck:     make([]*stuckTerms, len(o.Locations)),
	}
	// An identity map on the sensing surface keeps the dictionary factored:
	// a per-slot one would be antennas-fold larger.
	folded := !maps[sigma].Identity()
	if folded {
		ones := make([]complex128, shape[sigma])
		for g := range ones {
			ones[g] = 1
		}
		red.stride, red.legs = 1, make([][]complex128, nSlots)
		for i := range red.legs {
			red.legs[i] = ones
		}
	}
	anyStuck := false
	row := make([]complex128, o.shape[sigma])
	for li, m := range o.Locations {
		rm := *m
		rm.Coef = make([][][]complex128, nSlots)
		st := &stuckTerms{y: make([]complex128, nSlots)}
		for i := 0; i < nSlots; i++ {
			rm.Coef[i] = make([][]complex128, len(maps))
			for s, coeffs := range m.Coef[i] {
				var fixed complex128
				rm.Coef[i][s], fixed = maps[s].Fold(coeffs)
				st.y[i] += fixed
			}
			anyStuck = anyStuck || st.y[i] != 0
		}
		if folded {
			rm.SteerGeo = make([][][]complex128, nSlots)
			st.sig = make([][]complex128, nSlots)
			for i := 0; i < nSlots; i++ {
				leg := o.legs[i]
				rm.SteerGeo[i] = make([][]complex128, len(o.Est.Bins))
				st.sig[i] = make([]complex128, len(o.Est.Bins))
				for b, geo := range m.SteerGeo[i/o.stride] {
					for k, g := range geo {
						row[k] = g * leg[k]
					}
					rm.SteerGeo[i][b], st.sig[i][b] = maps[sigma].Fold(row)
					anyStuck = anyStuck || st.sig[i][b] != 0
				}
			}
		}
		red.Locations[li] = &rm
		red.stuck[li] = st
	}
	if !anyStuck {
		red.stuck = nil
	}
	return red
}

// Shape implements optimize.Objective.
func (o *LocalizationObjective) Shape() []int { return o.shape }

// Eval implements optimize.Objective: mean cross-entropy across locations
// and its gradient.
func (o *LocalizationObjective) Eval(phases [][]float64, wantGrad bool) (float64, [][]float64) {
	x := em.Phasors(phases)
	var loss float64
	var grad [][]float64
	if wantGrad {
		grad = make([][]float64, len(o.shape))
		for s, n := range o.shape {
			grad[s] = make([]float64, n)
		}
	}
	inv := 1 / float64(len(o.Locations))
	for i, m := range o.Locations {
		var st *stuckTerms
		if o.stuck != nil {
			st = o.stuck[i]
		}
		l := o.evalOne(m, st, x, grad, inv, wantGrad)
		loss += l * inv
	}
	return loss, grad
}

// evalOne computes one location's cross-entropy and accumulates scaled
// gradients in place. st holds the location's stuck-element terms (nil:
// none).
func (o *LocalizationObjective) evalOne(m *Measurement, st *stuckTerms, x [][]complex128, grad [][]float64, gscale float64, wantGrad bool) float64 {
	e := o.Est
	nSlots := e.NumSlots()
	nb := len(e.Bins)
	sigma := e.SurfIdx
	xs := x[sigma]
	nu := e.NoisePower

	// Measurement vector and power (surface-borne part only; the static
	// environment response is cancelled exactly as in Estimator.Estimate).
	y := m.Observe(x, 0, nil)
	for i := range y {
		y[i] -= m.Direct[i]
	}
	var sigFixed [][]complex128
	if st != nil {
		for i := range y {
			y[i] += st.y[i]
		}
		sigFixed = st.sig
	}
	var yPow float64
	for _, v := range y {
		yPow += real(v)*real(v) + imag(v)*imag(v)
	}

	// Signatures, correlations, spectrum.
	mm := make([][]complex128, nb) // mm[b][slot]
	rho := make([]complex128, nb)
	mPow := make([]float64, nb)
	spec := make([]float64, nb)
	for b := 0; b < nb; b++ {
		mi := make([]complex128, nSlots)
		signatureRow(m.SteerGeo, o.stride, o.legs, sigFixed, b, xs, mi)
		for i := 0; i < nSlots; i++ {
			rho[b] += y[i] * cmplx.Conj(mi[i])
			mPow[b] += real(mi[i])*real(mi[i]) + imag(mi[i])*imag(mi[i])
		}
		mm[b] = mi
		num := real(rho[b])*real(rho[b]) + imag(rho[b])*imag(rho[b]) + nu*mPow[b]
		den := (yPow+float64(nSlots)*nu)*mPow[b] + 1e-300
		spec[b] = num / den
	}

	soft := make([]float64, nb)
	loss := softmaxCE(spec, soft, o.Beta, m.TrueBin)

	if !wantGrad {
		return loss
	}

	// η_sk = Σ_slots conj(y)·B (for dY).
	eta := make([][]complex128, len(o.shape))
	for s, n := range o.shape {
		eta[s] = make([]complex128, n)
	}
	for i := 0; i < nSlots; i++ {
		cy := cmplx.Conj(y[i])
		for s := range m.Coef[i] {
			es := eta[s]
			for k, c := range m.Coef[i][s] {
				if c != 0 {
					es[k] += cy * c
				}
			}
		}
	}

	j := complex(0, 1)
	yTot := yPow + float64(nSlots)*nu
	for b := 0; b < nb; b++ {
		w := o.Beta * (soft[b] - b2delta(b, m.TrueBin))
		if w == 0 {
			continue
		}
		den := yTot*mPow[b] + 1e-300
		crho := cmplx.Conj(rho[b])
		num := real(rho[b])*real(rho[b]) + imag(rho[b])*imag(rho[b]) + nu*mPow[b]

		// Per-element accumulators for this bin:
		// α_sk = Σ_slots B·conj(m_b); γ_k = Σ_slots y·conj(S_b);
		// ξ_k = Σ_slots conj(m_b)·S_b   (sensing surface only), where
		// S_b,slot,k = SteerGeo[f(slot)][b][k]·apLeg[slot][k].
		alpha := make([][]complex128, len(o.shape))
		for s, n := range o.shape {
			alpha[s] = make([]complex128, n)
		}
		gammav := make([]complex128, o.shape[sigma])
		xiv := make([]complex128, o.shape[sigma])
		for i := 0; i < nSlots; i++ {
			cm := cmplx.Conj(mm[b][i])
			for s := range m.Coef[i] {
				as := alpha[s]
				for k, c := range m.Coef[i][s] {
					if c != 0 {
						as[k] += c * cm
					}
				}
			}
			geo := m.SteerGeo[i/o.stride][b]
			leg := o.legs[i]
			yi := y[i]
			for k, g := range geo {
				if l := leg[k]; l != 0 {
					sv := g * l
					gammav[k] += yi * cmplx.Conj(sv)
					xiv[k] += cm * sv
				}
			}
		}

		for s := range o.shape {
			gs := grad[s]
			for k := 0; k < o.shape[s]; k++ {
				xk := x[s][k]
				drho := j * xk * alpha[s][k]
				var dM float64
				if s == sigma {
					drho -= j * cmplx.Conj(xk) * gammav[k]
					dM = 2 * real(j*xk*xiv[k])
				}
				dY := 2 * real(j*xk*eta[s][k])
				dNum := 2*real(crho*drho) + nu*dM
				dDen := dY*mPow[b] + yTot*dM
				dP := (dNum*den - num*dDen) / (den * den)
				gs[k] += gscale * w * dP
			}
		}
	}
	return loss
}

// softmaxCE writes softmax(β·spec) into soft and returns the cross-entropy
// against the one-hot trueBin.
func softmaxCE(spec, soft []float64, beta float64, trueBin int) float64 {
	zmax := math.Inf(-1)
	for _, p := range spec {
		if beta*p > zmax {
			zmax = beta * p
		}
	}
	var sum float64
	for b, p := range spec {
		soft[b] = math.Exp(beta*p - zmax)
		sum += soft[b]
	}
	for b := range soft {
		soft[b] /= sum
	}
	return -math.Log(math.Max(soft[trueBin], 1e-300))
}

func b2delta(b, t int) float64 {
	if b == t {
		return 1
	}
	return 0
}

// MeanLocalizationError evaluates the deployed estimator end-to-end at the
// given phases: for each location, observe (with noise of amplitude
// noiseAmp when seed >= 0), estimate, and average the localization error in
// meters.
func (o *LocalizationObjective) MeanLocalizationError(phases [][]float64, noiseAmp float64, seed int64) float64 {
	rng := newRng(seed)
	var sum float64
	for _, m := range o.Locations {
		_, errM := o.Est.Estimate(m, phases, noiseAmp, rng)
		sum += errM
	}
	return sum / float64(len(o.Locations))
}
