package optimize

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"surfos/internal/rfsim"
	"surfos/internal/surface"
)

// randChannel builds a synthetic channel decomposition with the given
// per-surface element counts and optional cross blocks.
func randChannel(r *rand.Rand, shape []int, cross bool) *rfsim.Channel {
	ch := &rfsim.Channel{Freq: 24e9, Direct: complex(r.NormFloat64(), r.NormFloat64()) * 1e-6}
	ch.Single = make([][]complex128, len(shape))
	for s, n := range shape {
		v := make([]complex128, n)
		for k := range v {
			v[k] = complex(r.NormFloat64(), r.NormFloat64()) * 1e-5
		}
		ch.Single[s] = v
	}
	if cross && len(shape) >= 2 {
		m := make([][]complex128, shape[0])
		for k := range m {
			row := make([]complex128, shape[1])
			for j := range row {
				row[j] = complex(r.NormFloat64(), r.NormFloat64()) * 1e-7
			}
			m[k] = row
		}
		ch.Cross = []rfsim.CrossBlock{{A: 0, B: 1, M: m}}
	}
	return ch
}

func randPhases(r *rand.Rand, shape []int) [][]float64 {
	p := ZeroPhases(shape)
	for s := range p {
		for k := range p[s] {
			p[s][k] = r.Float64() * 2 * math.Pi
		}
	}
	return p
}

// checkGradient compares an objective's analytic gradient against central
// differences.
func checkGradient(t *testing.T, obj Objective, phases [][]float64, tol float64) {
	t.Helper()
	_, grad := obj.Eval(phases, true)
	const eps = 1e-6
	for s := range phases {
		for k := range phases[s] {
			p := ClonePhases(phases)
			p[s][k] += eps
			lp, _ := obj.Eval(p, false)
			p[s][k] -= 2 * eps
			lm, _ := obj.Eval(p, false)
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-grad[s][k]) > tol*(1+math.Abs(num)) {
				t.Fatalf("grad s=%d k=%d: analytic %v numeric %v", s, k, grad[s][k], num)
			}
		}
	}
}

func testBudget() rfsim.LinkBudget {
	return rfsim.LinkBudget{TxPowerDBm: 10, AntennaGainDB: 20, NoiseFigureDB: 7, BandwidthHz: 400e6}
}

func TestCoverageGradient(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	shape := []int{4, 3}
	chans := []*rfsim.Channel{
		randChannel(r, shape, true),
		randChannel(r, shape, false),
		randChannel(r, shape, true),
	}
	obj, err := NewCoverageObjective(chans, testBudget())
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, obj, randPhases(r, shape), 1e-4)
}

func TestPowerGradient(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	shape := []int{5}
	chans := []*rfsim.Channel{randChannel(r, shape, false), randChannel(r, shape, false)}
	obj, err := NewPowerObjective(chans)
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, obj, randPhases(r, shape), 1e-5)
}

func TestSecurityGradient(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	shape := []int{4, 2}
	obj, err := NewSecurityObjective(randChannel(r, shape, true), randChannel(r, shape, true), 0.5, testBudget())
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, obj, randPhases(r, shape), 1e-4)
}

func TestWeightedSumGradient(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	shape := []int{3, 3}
	cov, _ := NewCoverageObjective([]*rfsim.Channel{randChannel(r, shape, false)}, testBudget())
	pow, _ := NewPowerObjective([]*rfsim.Channel{randChannel(r, shape, true)})
	ws, err := NewWeightedSum([]Objective{cov, pow}, []float64{1.0, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	checkGradient(t, ws, randPhases(r, shape), 1e-4)

	// Weighted sum value equals the weighted combination.
	p := randPhases(r, shape)
	lc, _ := cov.Eval(p, false)
	lp, _ := pow.Eval(p, false)
	lw, _ := ws.Eval(p, false)
	if math.Abs(lw-(lc+2.5*lp)) > 1e-12*(1+math.Abs(lw)) {
		t.Errorf("weighted sum %v != %v", lw, lc+2.5*lp)
	}
}

func TestWeightedSumValidation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a, _ := NewPowerObjective([]*rfsim.Channel{randChannel(r, []int{3}, false)})
	b, _ := NewPowerObjective([]*rfsim.Channel{randChannel(r, []int{4}, false)})
	if _, err := NewWeightedSum([]Objective{a, b}, []float64{1, 1}); err == nil {
		t.Error("mismatched shapes accepted")
	}
	if _, err := NewWeightedSum(nil, nil); err == nil {
		t.Error("empty terms accepted")
	}
	if _, err := NewWeightedSum([]Objective{a}, []float64{1, 2}); err == nil {
		t.Error("weight count mismatch accepted")
	}
}

func TestObjectiveConstructorsValidate(t *testing.T) {
	if _, err := NewCoverageObjective(nil, testBudget()); err == nil {
		t.Error("empty coverage accepted")
	}
	if _, err := NewPowerObjective(nil); err == nil {
		t.Error("empty power accepted")
	}
	if _, err := NewSecurityObjective(nil, nil, 1, testBudget()); err == nil {
		t.Error("nil security channels accepted")
	}
	r := rand.New(rand.NewSource(6))
	chans := []*rfsim.Channel{randChannel(r, []int{3}, false), randChannel(r, []int{4}, false)}
	if _, err := NewCoverageObjective(chans, testBudget()); err == nil {
		t.Error("mismatched channel shapes accepted")
	}
}

// TestAdamReachesCoherentOptimum: for a single channel and a single
// surface, the optimal |h| is |Direct| + Σ|c_k| and the optimal phases are
// known in closed form; Adam must get very close.
func TestAdamReachesCoherentOptimum(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ch := randChannel(r, []int{12}, false)
	obj, _ := NewPowerObjective([]*rfsim.Channel{ch})

	res := Adam(context.Background(), obj, ZeroPhases(obj.Shape()), Options{MaxIters: 500, LR: 0.2})

	// Optimal: every term aligned with Direct.
	bound := cabs(ch.Direct)
	for _, c := range ch.Single[0] {
		bound += cabs(c)
	}
	x := Phasors(res.Phases)
	h := ch.EvalPhasors(x)
	if got := cmplx.Abs(h); got < 0.995*bound {
		t.Errorf("Adam |h| = %v, coherent bound %v", got, bound)
	}
	if res.Iterations == 0 || len(res.History) == 0 {
		t.Error("missing iteration bookkeeping")
	}
}

// solver is the optional closed-form method Plan asks for.
type solver interface {
	Objective
	Solve() [][]float64
}

// TestSolveReachesCoherentBound: on random cross-free channels, some with
// Direct == 0 and some with zero coefficients, the co-phased configuration
// reaches |h| = cohBound, leaves zero-coefficient elements at phase 0, and
// no Adam@150 run on the same objective finds a lower loss.
func TestSolveReachesCoherentBound(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 12; trial++ {
		shape := []int{1 + r.Intn(24), r.Intn(24)}
		ch := randChannel(r, shape, false)
		if trial%3 == 0 {
			ch.Direct = 0
		}
		if trial%2 == 0 {
			for s := range ch.Single {
				for k := range ch.Single[s] {
					if r.Intn(4) == 0 {
						ch.Single[s][k] = 0
					}
				}
			}
		}
		cov, _ := NewCoverageObjective([]*rfsim.Channel{ch}, testBudget())
		pow, _ := NewPowerObjective([]*rfsim.Channel{ch})
		for _, obj := range []solver{cov, pow} {
			p := obj.Solve()
			if p == nil {
				t.Fatalf("trial %d %T: Solve declined a one-channel cross-free objective", trial, obj)
			}
			got, want := cmplx.Abs(ch.EvalPhasors(Phasors(p))), cohBound(ch)
			if math.Abs(got-want) > 1e-12*want {
				t.Errorf("trial %d %T: |h| = %v, cohBound %v", trial, obj, got, want)
			}
			for s := range ch.Single {
				for k, c := range ch.Single[s] {
					if c == 0 && p[s][k] != 0 {
						t.Errorf("trial %d: zero-coefficient element %d/%d set to %v", trial, s, k, p[s][k])
					}
				}
			}
			loss, _ := obj.Eval(p, false)
			adam := Adam(context.Background(), obj, ZeroPhases(shape), Options{MaxIters: 150})
			if loss > adam.Loss+1e-12*math.Abs(adam.Loss) {
				t.Errorf("trial %d %T: Solve loss %v above Adam's %v", trial, obj, loss, adam.Loss)
			}
		}
	}
}

// TestSolveDeclines: more than one channel or a Cross block has no closed
// form, and the objectives that mix channels do not offer one at all.
func TestSolveDeclines(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	shape := []int{4, 3}
	two := []*rfsim.Channel{randChannel(r, shape, false), randChannel(r, shape, false)}
	cross := []*rfsim.Channel{randChannel(r, shape, true)}
	for name, chans := range map[string][]*rfsim.Channel{"two channels": two, "cross block": cross} {
		cov, _ := NewCoverageObjective(chans, testBudget())
		pow, _ := NewPowerObjective(chans)
		for _, obj := range []solver{cov, pow} {
			if obj.Solve() != nil {
				t.Errorf("%s: %T.Solve answered", name, obj)
			}
		}
	}
	sec, _ := NewSecurityObjective(two[0], two[1], 1, testBudget())
	cov, _ := NewCoverageObjective(two[:1], testBudget())
	ws, _ := NewWeightedSum([]Objective{cov}, []float64{1})
	for _, obj := range []Objective{sec, ws} {
		if _, ok := obj.(solver); ok {
			t.Errorf("%T implements Solve", obj)
		}
	}
}

func TestAdamBeatsRandomSearch(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	shape := []int{16}
	chans := []*rfsim.Channel{randChannel(r, shape, false), randChannel(r, shape, false)}
	obj, _ := NewCoverageObjective(chans, testBudget())

	adam := Adam(context.Background(), obj, ZeroPhases(shape), Options{MaxIters: 300})
	rs := RandomSearch(context.Background(), obj, Options{MaxIters: 300, Seed: 1})
	if adam.Loss >= rs.Loss {
		t.Errorf("Adam loss %v not better than random search %v", adam.Loss, rs.Loss)
	}
}

func TestRandomSearchImproves(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	obj, _ := NewPowerObjective([]*rfsim.Channel{randChannel(r, []int{8}, false)})
	zero, _ := obj.Eval(ZeroPhases(obj.Shape()), false)
	res := RandomSearch(context.Background(), obj, Options{MaxIters: 200, Seed: 2})
	if res.Loss > zero {
		t.Errorf("random search %v worse than zero init %v", res.Loss, zero)
	}
}

// TestResultEvalsAccounting pins Result.Evals: one Eval per iteration plus
// the one that prices the returned phases.
func TestResultEvalsAccounting(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	shape := []int{4, 3}
	obj, err := NewCoverageObjective([]*rfsim.Channel{randChannel(r, shape, true)}, testBudget())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	adam := Adam(ctx, obj, randPhases(r, shape), Options{MaxIters: 30})
	if adam.Evals != adam.Iterations+1 {
		t.Errorf("Adam: Evals=%d Iterations=%d, want Evals=Iterations+1", adam.Evals, adam.Iterations)
	}
	rs := RandomSearch(ctx, obj, Options{MaxIters: 25, Seed: 3})
	if rs.Evals != rs.Iterations+1 {
		t.Errorf("RandomSearch: Evals=%d Iterations=%d", rs.Evals, rs.Iterations)
	}
}

func TestPhasesConfigsRoundTrip(t *testing.T) {
	p := [][]float64{{0.1, 0.2}, {0.3}}
	cfgs := PhasesToConfigs(p)
	back, err := ConfigsToPhases(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for s := range p {
		for k := range p[s] {
			if back[s][k] != p[s][k] {
				t.Fatalf("round trip mismatch at %d,%d", s, k)
			}
		}
	}
	// Mutating the config must not affect the original.
	cfgs[0].Values[0] = 99
	if p[0][0] == 99 {
		t.Error("PhasesToConfigs aliases input")
	}
	if _, err := ConfigsToPhases([]surface.Config{{Property: surface.Amplitude}}); err == nil {
		t.Error("non-phase config accepted")
	}
}

func TestMeanSpectralEfficiency(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	chans := []*rfsim.Channel{randChannel(r, []int{4}, false), randChannel(r, []int{4}, false)}
	obj, _ := NewCoverageObjective(chans, testBudget())
	p := ZeroPhases(obj.Shape())
	se := obj.MeanSpectralEfficiency(p)
	l, _ := obj.Eval(p, false)
	if math.Abs(se-(-l/2)) > 1e-12 {
		t.Errorf("mean SE %v inconsistent with loss %v", se, l)
	}
}
