// Package sensing implements surface-aided localization in the spirit of
// md-Track (the estimator the paper uses in §4): joint space–frequency
// angle-of-arrival estimation through a metasurface aperture, and its
// conversion to localization error under the paper's accurate-ToF
// assumption.
//
// The physical setup mirrors the paper's Figure 2: a client in the target
// room transmits; its signal reaches the AP via the metasurface; the AP —
// a mmWave unit with an antenna array — observes one complex sample per
// (antenna, OFDM subcarrier) pair. Knowing the surface configuration, the
// estimator correlates this space–frequency measurement against
// spherical-wavefront signatures over a grid of candidate angles (the
// accurate ToF pins the range, so the dictionary is near-field-correct).
// Both dimensions are essential: the wideband axis resolves the aperture's
// differential delays and the array axis resolves the aperture spatially;
// together they give the measurement enough effective dimensions to
// discriminate angle through a single static surface configuration.
//
// The spectrum is noise-regularized: when the surface configuration
// starves a location of signal power, the spectrum flattens toward uniform
// and localization collapses — the coverage/sensing conflict of the
// paper's Figure 2 that the joint optimizer (Figure 5) resolves.
package sensing

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"surfos/internal/em"
	"surfos/internal/geom"
	"surfos/internal/rfsim"
	"surfos/internal/surface"
)

// Estimator performs space–frequency AoA estimation through one surface.
type Estimator struct {
	Surf    *surface.Surface
	SurfIdx int // index of the sensing surface in the simulator
	// Ants are the AP antenna positions (use ULA for a standard array).
	Ants []geom.Vec3
	// Bins are the candidate azimuth angles (radians, measured in the
	// surface's horizontal plane from the boresight normal; positive toward
	// the panel's U axis).
	Bins []float64
	// Subcarriers are the absolute sounding frequencies.
	Subcarriers []float64
	// NoisePower is the per-observation complex noise power ν in
	// channel-gain units (|h|² scale). It regularizes the spectrum so that
	// signal-starved locations cannot be localized. Zero disables it.
	NoisePower float64

	// txs[f][a]: transmitter context for subcarrier f, antenna a.
	txs [][]*rfsim.TxContext
	// apLeg[slot][k]: element→antenna leg for observation slot = f*len(Ants)+a.
	apLeg [][]complex128
	// aperture frame
	center geom.Vec3
	normal geom.Vec3
	uAxis  geom.Vec3
}

// ULA returns an n-antenna uniform linear array centered at c along unit
// axis with the given element spacing.
func ULA(c geom.Vec3, axis geom.Vec3, n int, spacing float64) []geom.Vec3 {
	axis = axis.Normalize()
	out := make([]geom.Vec3, n)
	for i := range out {
		off := (float64(i) - float64(n-1)/2) * spacing
		out[i] = c.Add(axis.Scale(off))
	}
	return out
}

// DefaultBins returns an angle grid of n bins spanning ±span radians.
func DefaultBins(n int, span float64) []float64 {
	bins := make([]float64, n)
	for i := range bins {
		bins[i] = -span + 2*span*float64(i)/float64(n-1)
	}
	return bins
}

// DefaultSubcarriers returns n sounding tones spread over bw Hz centered on
// carrier.
func DefaultSubcarriers(carrier, bw float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = carrier - bw/2 + bw*float64(i)/float64(n-1)
	}
	return out
}

// NewEstimator builds the estimator, tracing the AP-side legs once per
// (subcarrier, antenna) pair.
func NewEstimator(sim *rfsim.Simulator, surfIdx int, ants []geom.Vec3, bins, subcarriers []float64) (*Estimator, error) {
	if sim == nil {
		return nil, fmt.Errorf("sensing: nil simulator")
	}
	if surfIdx < 0 || surfIdx >= len(sim.Surfaces) {
		return nil, fmt.Errorf("sensing: surface index %d out of range", surfIdx)
	}
	if len(ants) == 0 {
		return nil, fmt.Errorf("sensing: need at least one AP antenna")
	}
	if len(bins) < 2 {
		return nil, fmt.Errorf("sensing: need at least 2 angle bins")
	}
	if len(subcarriers) < 2 {
		return nil, fmt.Errorf("sensing: need at least 2 subcarriers for wideband estimation")
	}
	s := sim.Surfaces[surfIdx]
	e := &Estimator{
		Surf:        s,
		SurfIdx:     surfIdx,
		Ants:        ants,
		Bins:        bins,
		Subcarriers: subcarriers,
		center:      s.Panel.Center(),
		normal:      s.Normal(),
	}
	c := s.Panel.Corners()
	e.uAxis = c[1].Sub(c[0]).Normalize()

	e.txs = make([][]*rfsim.TxContext, len(subcarriers))
	e.apLeg = make([][]complex128, len(subcarriers)*len(ants))
	for f, freq := range subcarriers {
		e.txs[f] = make([]*rfsim.TxContext, len(ants))
		for a, ant := range ants {
			tc := sim.NewTxAt(ant, freq)
			e.txs[f][a] = tc
			e.apLeg[f*len(ants)+a] = tc.IncidentCoeffs(surfIdx)
		}
	}
	return e, nil
}

// NumSlots returns the number of observation slots (antennas × subcarriers).
func (e *Estimator) NumSlots() int { return len(e.Subcarriers) * len(e.Ants) }

// binDirection converts a bin azimuth to a unit direction from the surface
// into the room, rotated in the horizontal plane spanned by (normal, uAxis).
func (e *Estimator) binDirection(theta float64) geom.Vec3 {
	uh := geom.V(e.uAxis.X, e.uAxis.Y, 0).Normalize()
	nh := geom.V(e.normal.X, e.normal.Y, 0).Normalize()
	return nh.Scale(math.Cos(theta)).Add(uh.Scale(math.Sin(theta)))
}

// TrueAoA returns the azimuth of a client position in the estimator's bin
// frame, and its distance from the aperture center.
func (e *Estimator) TrueAoA(client geom.Vec3) (theta, dist float64) {
	v := client.Sub(e.center)
	dist = v.Len()
	uh := geom.V(e.uAxis.X, e.uAxis.Y, 0).Normalize()
	nh := geom.V(e.normal.X, e.normal.Y, 0).Normalize()
	vh := geom.V(v.X, v.Y, 0)
	theta = math.Atan2(vh.Dot(uh), vh.Dot(nh))
	return theta, dist
}

// TrueBin returns the index of the bin closest to the client's true AoA.
func (e *Estimator) TrueBin(client geom.Vec3) int {
	th, _ := e.TrueAoA(client)
	best, bestD := 0, math.Inf(1)
	for i, b := range e.Bins {
		if d := math.Abs(b - th); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// SteerGeoAt builds the geometric part of the signature dictionary for
// sources at range R: SteerGeo[f][b][k] = e^{-j·k_f·|q_b − p_k|}, where q_b
// sits at range R along bin b's direction (at the aperture center's
// height). The full slot signature is SteerGeo[f(slot)][b][k]·apLeg[slot][k];
// factoring out the antenna axis keeps the dictionary F·Θ·N instead of
// F·M·Θ·N. The full path phase is kept — a per-subcarrier common phase
// k_f·R does not cancel across tones and must match the measurement's delay
// structure (this is what makes the estimator ToF-consistent, as in
// md-Track).
func (e *Estimator) SteerGeoAt(r float64) [][][]complex128 {
	pos := e.Surf.ElementPositions()
	out := make([][][]complex128, len(e.Subcarriers))
	for f, freq := range e.Subcarriers {
		k := em.Wavenumber(freq)
		perBin := make([][]complex128, len(e.Bins))
		for b, th := range e.Bins {
			q := e.center.Add(e.binDirection(th).Scale(r))
			sig := make([]complex128, len(pos))
			for ei, p := range pos {
				sig[ei] = cmplx.Rect(1, -k*q.Dist(p))
			}
			perBin[b] = sig
		}
		out[f] = perBin
	}
	return out
}

// Measurement is the affine space–frequency measurement model for one
// client location: y_slot = Direct[slot] + Σ_sk Coef[slot][s][k]·e^{jφ_sk},
// plus the location's signature dictionary (built at the ToF-known range).
type Measurement struct {
	Client geom.Vec3
	Direct []complex128     // per observation slot
	Coef   [][][]complex128 // [slot][surface][element]
	// SteerGeo[f][b][k] is the geometric dictionary (see SteerGeoAt).
	SteerGeo [][][]complex128
	TrueAoA  float64
	Dist     float64
	TrueBin  int
}

// Measure builds the measurement model for a client position.
func (e *Estimator) Measure(client geom.Vec3) *Measurement {
	n := e.NumSlots()
	m := &Measurement{
		Client: client,
		Direct: make([]complex128, n),
		Coef:   make([][][]complex128, n),
	}
	m.TrueAoA, m.Dist = e.TrueAoA(client)
	m.TrueBin = e.TrueBin(client)
	for f := range e.Subcarriers {
		for a := range e.Ants {
			slot := f*len(e.Ants) + a
			ch := e.txs[f][a].Channel(client)
			m.Direct[slot] = ch.Direct
			m.Coef[slot] = ch.Single
		}
	}
	m.SteerGeo = e.SteerGeoAt(m.Dist)
	return m
}

// Observe evaluates the measurement vector under phasors x, adding complex
// Gaussian noise of the given amplitude per slot when rng is non-nil.
func (m *Measurement) Observe(x [][]complex128, noiseAmp float64, rng *rand.Rand) []complex128 {
	y := make([]complex128, len(m.Direct))
	for i := range y {
		h := m.Direct[i]
		for s, coeffs := range m.Coef[i] {
			for k, c := range coeffs {
				if c != 0 {
					h += c * x[s][k]
				}
			}
		}
		if rng != nil && noiseAmp > 0 {
			h += complex(rng.NormFloat64()*noiseAmp/math.Sqrt2, rng.NormFloat64()*noiseAmp/math.Sqrt2)
		}
		y[i] = h
	}
	return y
}

// signatureRow computes, for every slot at bin b,
//
//	m_slot(b) = Σ_k steer[slot/stride][b][k]·legs[slot][k]·x_k (+ fixed[slot][b])
//
// A measurement's dictionary is per subcarrier (stride = antenna count,
// legs = the estimator's AP legs); a reduced one is per slot with the legs
// folded in, plus its stuck elements' terms (fixed, nil when none).
func signatureRow(steer [][][]complex128, stride int, legs, fixed [][]complex128, b int, xs, out []complex128) {
	for slot := range out {
		geo := steer[slot/stride][b]
		leg := legs[slot]
		var acc complex128
		for k, g := range geo {
			if l := leg[k]; l != 0 {
				acc += g * l * xs[k]
			}
		}
		if fixed != nil {
			acc += fixed[slot][b]
		}
		out[slot] = acc
	}
}

// Spectrum computes the noise-regularized matched-filter angle spectrum for
// observation y under surface phasors x, using the measurement's signature
// dictionary:
//
//	P_b = (|ρ_b|² + ν·M_b) / ((Y + S·ν)·M_b)
//
// with ρ_b = Σ_slot y·conj(m_b), Y = Σ|y|², M_b = Σ|m_b|², ν the noise
// power and S the slot count. P_b ∈ (0, 1]; a signal-starved observation
// flattens toward 1/S.
func (e *Estimator) Spectrum(m *Measurement, y []complex128, x [][]complex128) []float64 {
	xs := x[e.SurfIdx]
	var yPow float64
	for _, v := range y {
		yPow += real(v)*real(v) + imag(v)*imag(v)
	}
	nu := e.NoisePower
	nSlots := len(y)
	mi := make([]complex128, nSlots)
	out := make([]float64, len(e.Bins))
	for b := range e.Bins {
		signatureRow(m.SteerGeo, len(e.Ants), e.apLeg, nil, b, xs, mi)
		var rho complex128
		var mPow float64
		for i, v := range mi {
			rho += y[i] * cmplx.Conj(v)
			mPow += real(v)*real(v) + imag(v)*imag(v)
		}
		num := real(rho)*real(rho) + imag(rho)*imag(rho) + nu*mPow
		den := (yPow+float64(nSlots)*nu)*mPow + 1e-300
		out[b] = num / den
	}
	return out
}

// Estimate returns the estimated AoA (peak bin) and the localization error
// in meters under the accurate-ToF assumption: the position error is the
// arc subtended by the angular error at the client's distance.
//
// The static environment response (m.Direct) is subtracted before
// correlation: it is configuration-independent, so a real deployment
// cancels it by differencing soundings taken under two surface
// configurations — standard practice in RIS sensing. Noise (drawn fresh per
// sounding) survives the differencing.
func (e *Estimator) Estimate(m *Measurement, phases [][]float64, noiseAmp float64, rng *rand.Rand) (aoa, locErr float64) {
	x := em.Phasors(phases)
	y := m.Observe(x, noiseAmp, rng)
	for i := range y {
		y[i] -= m.Direct[i]
	}
	spec := e.Spectrum(m, y, x)
	best := 0
	for b := range spec {
		if spec[b] > spec[best] {
			best = b
		}
	}
	aoa = e.Bins[best]
	locErr = LocalizationError(aoa, m.TrueAoA, m.Dist)
	return aoa, locErr
}

// LocalizationError converts an angular error to meters at the given range.
func LocalizationError(estAoA, trueAoA, dist float64) float64 {
	return dist * math.Abs(estAoA-trueAoA)
}

// NoiseAmplitude returns the complex-noise amplitude in channel-gain units
// implied by a link budget: the noise floor referred back through the
// transmit power and antenna gains.
func NoiseAmplitude(lb rfsim.LinkBudget) float64 {
	return math.Sqrt(em.FromDB(lb.NoiseFloorDBm() - lb.TxPowerDBm - lb.AntennaGainDB))
}
