package optimize

import (
	"fmt"
	"math"
	"math/cmplx"

	"surfos/internal/em"
	"surfos/internal/rfsim"
)

// CoverageObjective maximizes total link capacity across a set of receiver
// locations — the paper's coverage task loss ("the negative sum of link
// capacity across different locations", §4). Minimizing it is maximizing
// Σ capacity.
type CoverageObjective struct {
	// Channels holds one channel decomposition per evaluation location.
	Channels []*rfsim.Channel
	Budget   rfsim.LinkBudget

	shape []int
	// snrScale converts |h|² to linear SNR: snr = snrScale·|h|².
	snrScale float64

	// Reused evaluation scratch (see Objective for the aliasing contract).
	pbuf  em.PhasorBuf
	grad  [][]float64
	parts [][]complex128
}

// NewCoverageObjective validates inputs and precomputes the link-budget
// constant.
func NewCoverageObjective(chans []*rfsim.Channel, lb rfsim.LinkBudget) (*CoverageObjective, error) {
	if len(chans) == 0 {
		return nil, fmt.Errorf("optimize: coverage objective needs at least one channel")
	}
	shape := chans[0].NumElements()
	for i, ch := range chans[1:] {
		s := ch.NumElements()
		if len(s) != len(shape) {
			return nil, fmt.Errorf("optimize: channel %d surface count mismatch", i+1)
		}
		for j := range s {
			if s[j] != shape[j] {
				return nil, fmt.Errorf("optimize: channel %d surface %d has %d elements, want %d", i+1, j, s[j], shape[j])
			}
		}
	}
	// SNR_linear = 10^((TxPower+Gain-Noise)/10) · |h|².
	c := em.FromDB(lb.TxPowerDBm + lb.AntennaGainDB - lb.NoiseFloorDBm())
	return &CoverageObjective{Channels: chans, Budget: lb, shape: shape, snrScale: c}, nil
}

// Shape implements Objective.
func (o *CoverageObjective) Shape() []int { return o.shape }

// Eval implements Objective. Loss = -Σ_i B·log2(1 + S0·|h_i|²). Capacity is
// normalized by bandwidth (bits/s/Hz) to keep losses O(10) regardless of
// channel width.
func (o *CoverageObjective) Eval(phases [][]float64, wantGrad bool) (float64, [][]float64) {
	if err := shapeMatches(o.shape, phases); err != nil {
		panic(err)
	}
	x := o.pbuf.Phasors(phases)
	var loss float64
	var grad [][]float64
	if wantGrad {
		o.grad = gradScratch(o.grad, o.shape)
		grad = o.grad
	}
	ln2 := math.Ln2
	for _, ch := range o.Channels {
		h := ch.EvalPhasors(x)
		p := real(h)*real(h) + imag(h)*imag(h)
		se := math.Log2(1 + o.snrScale*p) // spectral efficiency
		loss -= se
		if !wantGrad {
			continue
		}
		// d(-se)/dp = -S0 / ((1+S0 p)·ln2); dp/dφ = 2·Re(conj(h)·dh/dφ).
		dp := -o.snrScale / ((1 + o.snrScale*p) * ln2)
		o.parts = ch.PartialsInto(x, o.parts)
		parts := o.parts
		for s := range parts {
			for k, d := range parts[s] {
				re := real(h)*real(d) + imag(h)*imag(d) // Re(conj(h)·d)
				grad[s][k] += dp * 2 * re
			}
		}
	}
	return loss, grad
}

// Solve returns the exact minimizer when the objective is one cascade-free
// channel (see cophase), and nil otherwise. The loss falls as |h| rises, so
// the co-phased configuration is optimal.
func (o *CoverageObjective) Solve() [][]float64 { return cophase(o.Channels) }

// Reduce implements Reducer: every channel reduced to the control maps,
// the link-budget constant kept.
func (o *CoverageObjective) Reduce(maps []rfsim.ControlMap) Objective {
	chans := reduceAll(o.Channels, maps)
	return &CoverageObjective{Channels: chans, Budget: o.Budget, shape: chans[0].NumElements(), snrScale: o.snrScale}
}

// reduceAll reduces each channel to the control maps.
func reduceAll(chans []*rfsim.Channel, maps []rfsim.ControlMap) []*rfsim.Channel {
	out := make([]*rfsim.Channel, len(chans))
	for i, ch := range chans {
		out[i] = ch.Reduce(maps)
	}
	return out
}

// MeanSpectralEfficiency reports the average bits/s/Hz across the
// objective's locations at the given phases (positive form of the loss).
func (o *CoverageObjective) MeanSpectralEfficiency(phases [][]float64) float64 {
	l, _ := o.Eval(phases, false)
	return -l / float64(len(o.Channels))
}

// PowerObjective maximizes delivered RF power at target devices (the
// wireless powering service): loss = -Σ |h_i|², scaled to O(1) magnitudes
// by the coherent upper bound so optimizer step sizes are portable.
type PowerObjective struct {
	Channels []*rfsim.Channel
	shape    []int
	scale    float64

	pbuf  em.PhasorBuf
	grad  [][]float64
	parts [][]complex128
}

// NewPowerObjective builds the objective; scale is derived from the first
// channel's maximum coherent gain.
func NewPowerObjective(chans []*rfsim.Channel) (*PowerObjective, error) {
	if len(chans) == 0 {
		return nil, fmt.Errorf("optimize: power objective needs at least one channel")
	}
	shape := chans[0].NumElements()
	var bound float64
	for _, ch := range chans {
		b := cohBound(ch)
		if b > bound {
			bound = b
		}
	}
	if bound == 0 {
		bound = 1
	}
	return &PowerObjective{Channels: chans, shape: shape, scale: 1 / (bound * bound)}, nil
}

// cohBound returns |Direct| + Σ|Single| — an upper bound on |h|.
func cohBound(ch *rfsim.Channel) float64 {
	b := cabs(ch.Direct)
	for _, s := range ch.Single {
		for _, c := range s {
			b += cabs(c)
		}
	}
	return b
}

func cabs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// cophase maximizes |h| of a lone channel h = Direct + Σ Single·x in closed
// form: every element turns its term onto Direct's phase, φ_sk = arg Direct −
// arg Single_sk, so |h| reaches cohBound. With Direct == 0 the reference
// phase is 0, and an element with a zero coefficient keeps phase 0. It
// returns nil for more than one channel or any Cross block, which have no
// such form.
func cophase(chans []*rfsim.Channel) [][]float64 {
	if len(chans) != 1 || len(chans[0].Cross) > 0 {
		return nil
	}
	ch := chans[0]
	var ref float64
	if ch.Direct != 0 {
		ref = cmplx.Phase(ch.Direct)
	}
	phases := ZeroPhases(ch.NumElements())
	for s, coeffs := range ch.Single {
		for k, c := range coeffs {
			if c != 0 {
				phases[s][k] = ref - cmplx.Phase(c)
			}
		}
	}
	return phases
}

// Solve returns the exact minimizer when the objective is one cascade-free
// channel (see cophase), and nil otherwise.
func (o *PowerObjective) Solve() [][]float64 { return cophase(o.Channels) }

// Reduce implements Reducer: every channel reduced to the control maps,
// the element-space scale kept.
func (o *PowerObjective) Reduce(maps []rfsim.ControlMap) Objective {
	chans := reduceAll(o.Channels, maps)
	return &PowerObjective{Channels: chans, shape: chans[0].NumElements(), scale: o.scale}
}

// Shape implements Objective.
func (o *PowerObjective) Shape() []int { return o.shape }

// Eval implements Objective.
func (o *PowerObjective) Eval(phases [][]float64, wantGrad bool) (float64, [][]float64) {
	if err := shapeMatches(o.shape, phases); err != nil {
		panic(err)
	}
	x := o.pbuf.Phasors(phases)
	var loss float64
	var grad [][]float64
	if wantGrad {
		o.grad = gradScratch(o.grad, o.shape)
		grad = o.grad
	}
	for _, ch := range o.Channels {
		h := ch.EvalPhasors(x)
		p := real(h)*real(h) + imag(h)*imag(h)
		loss -= p * o.scale
		if !wantGrad {
			continue
		}
		o.parts = ch.PartialsInto(x, o.parts)
		parts := o.parts
		for s := range parts {
			for k, d := range parts[s] {
				re := real(h)*real(d) + imag(h)*imag(d)
				grad[s][k] -= 2 * re * o.scale
			}
		}
	}
	return loss, grad
}

// SecurityObjective protects a link by steering energy away from an
// eavesdropper location while preserving the legitimate user's signal
// (the security service): loss = |h_eve|²/bound² − w·SE_user.
type SecurityObjective struct {
	User *rfsim.Channel
	Eve  *rfsim.Channel
	// UserWeight trades user capacity against eavesdropper suppression.
	UserWeight float64
	Budget     rfsim.LinkBudget

	shape    []int
	snrScale float64
	eveScale float64

	pbuf   em.PhasorBuf
	grad   [][]float64
	partsU [][]complex128
	partsE [][]complex128
}

// NewSecurityObjective builds the objective.
func NewSecurityObjective(user, eve *rfsim.Channel, userWeight float64, lb rfsim.LinkBudget) (*SecurityObjective, error) {
	if user == nil || eve == nil {
		return nil, fmt.Errorf("optimize: security objective needs user and eve channels")
	}
	su, se := user.NumElements(), eve.NumElements()
	if len(su) != len(se) {
		return nil, fmt.Errorf("optimize: user/eve surface count mismatch")
	}
	for i := range su {
		if su[i] != se[i] {
			return nil, fmt.Errorf("optimize: user/eve surface %d element mismatch", i)
		}
	}
	b := cohBound(eve)
	if b == 0 {
		b = 1
	}
	return &SecurityObjective{
		User: user, Eve: eve, UserWeight: userWeight, Budget: lb,
		shape:    su,
		snrScale: em.FromDB(lb.TxPowerDBm + lb.AntennaGainDB - lb.NoiseFloorDBm()),
		eveScale: 1 / (b * b),
	}, nil
}

// Shape implements Objective.
func (o *SecurityObjective) Shape() []int { return o.shape }

// Reduce implements Reducer: both channels reduced to the control maps,
// every scale kept.
func (o *SecurityObjective) Reduce(maps []rfsim.ControlMap) Objective {
	user := o.User.Reduce(maps)
	return &SecurityObjective{
		User: user, Eve: o.Eve.Reduce(maps), UserWeight: o.UserWeight, Budget: o.Budget,
		shape: user.NumElements(), snrScale: o.snrScale, eveScale: o.eveScale,
	}
}

// Eval implements Objective.
func (o *SecurityObjective) Eval(phases [][]float64, wantGrad bool) (float64, [][]float64) {
	if err := shapeMatches(o.shape, phases); err != nil {
		panic(err)
	}
	x := o.pbuf.Phasors(phases)
	hu := o.User.EvalPhasors(x)
	he := o.Eve.EvalPhasors(x)
	pu := real(hu)*real(hu) + imag(hu)*imag(hu)
	pe := real(he)*real(he) + imag(he)*imag(he)
	seUser := math.Log2(1 + o.snrScale*pu)
	loss := pe*o.eveScale - o.UserWeight*seUser
	if !wantGrad {
		return loss, nil
	}
	o.grad = gradScratch(o.grad, o.shape)
	grad := o.grad
	o.partsE = o.Eve.PartialsInto(x, o.partsE)
	o.partsU = o.User.PartialsInto(x, o.partsU)
	pe2, pu2 := o.partsE, o.partsU
	dSE := o.UserWeight * o.snrScale / ((1 + o.snrScale*pu) * math.Ln2)
	for s := range grad {
		for k := range grad[s] {
			reE := real(he)*real(pe2[s][k]) + imag(he)*imag(pe2[s][k])
			reU := real(hu)*real(pu2[s][k]) + imag(hu)*imag(pu2[s][k])
			grad[s][k] = 2*reE*o.eveScale - dSE*2*reU
		}
	}
	return loss, grad
}
