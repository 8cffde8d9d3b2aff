package optimize

import (
	"math"
	"math/rand"
	"testing"

	"surfos/internal/rfsim"
)

// columnMap is the control map of a rows×cols column-wise panel with a
// random bias (none when r is nil) and the given stuck elements at their
// frozen phases.
func columnMap(r *rand.Rand, rows, cols int, stuck map[int]float64) rfsim.ControlMap {
	group := make([]int, rows*cols)
	var offset []float64
	if r != nil || stuck != nil {
		offset = make([]float64, rows*cols)
	}
	for k := range group {
		group[k] = k % cols
		if r != nil {
			offset[k] = r.Float64() * 2 * math.Pi
		}
		if v, ok := stuck[k]; ok {
			group[k], offset[k] = -1, v
		}
	}
	return rfsim.NewControlMap(cols, group, offset)
}

// Every Reducer keeps its normalization constants: the reduced loss at θ is
// the element loss at the expansion, and the reduced gradient is the
// element gradient summed over each line's elements — so the optimizer's
// steps are those of the column-constrained element problem.
func TestReduceKeepsLossAndGradient(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	shape := []int{12, 6}
	maps := []rfsim.ControlMap{
		columnMap(r, 3, 4, map[int]float64{5: 1.5}),
		rfsim.ElementMap(6),
	}
	chans := []*rfsim.Channel{randChannel(r, shape, true), randChannel(r, shape, false), randChannel(r, shape, true)}
	cov, _ := NewCoverageObjective(chans, testBudget())
	pow, _ := NewPowerObjective(chans[:2])
	sec, _ := NewSecurityObjective(chans[0], chans[2], 0.7, testBudget())
	ws, _ := NewWeightedSum([]Objective{cov, pow, sec}, []float64{0.5, 2, 1})
	for _, obj := range []Objective{cov, pow, sec, ws} {
		red := obj.(Reducer).Reduce(maps)
		if red == nil {
			t.Fatalf("%T declined to reduce", obj)
		}
		if got := red.Shape(); got[0] != 4 || got[1] != 6 {
			t.Fatalf("%T reduced shape %v, want [4 6]", obj, got)
		}
		for trial := 0; trial < 3; trial++ {
			theta := randPhases(r, red.Shape())
			phases := rfsim.ExpandAll(maps, theta)
			lr, gr := red.Eval(theta, true)
			gr = ClonePhases(gr)
			le, ge := obj.Eval(phases, true)
			if math.Abs(lr-le) > 1e-12*(1+math.Abs(le)) {
				t.Fatalf("%T: reduced loss %v, element loss at Expand(θ) %v", obj, lr, le)
			}
			for s, m := range maps {
				sum := make([]float64, m.Groups)
				for k, g := range m.Group {
					if g >= 0 {
						sum[g] += ge[s][k]
					}
				}
				for g := range sum {
					if math.Abs(gr[s][g]-sum[g]) > 1e-9*(1+math.Abs(sum[g])) {
						t.Fatalf("%T surface %d line %d: reduced gradient %v, summed %v", obj, s, g, gr[s][g], sum[g])
					}
				}
			}
		}
	}
	// A sum with a term that cannot reduce refuses to, loudly.
	plain, _ := NewWeightedSum([]Objective{cov, opaque{cov}}, []float64{1, 1})
	defer func() {
		if recover() == nil {
			t.Error("a weighted sum with an irreducible term reduced")
		}
	}()
	plain.Reduce(maps)
}

// opaque hides an objective's optional methods.
type opaque struct{ Objective }

// A reduced one-channel cross-free link co-phases each line's summed
// coefficient: |h| reaches the control-space ceiling, the reduced channel's
// cohBound Σ_g |Σ_e c_e·b_e| plus the folded Direct.
func TestReducedSolveReachesControlCeiling(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	ch := randChannel(r, []int{12, 12}, false)
	maps := []rfsim.ControlMap{columnMap(r, 3, 4, nil), columnMap(r, 4, 3, map[int]float64{0: 2})}
	cov, _ := NewCoverageObjective([]*rfsim.Channel{ch}, testBudget())
	red := cov.Reduce(maps).(*CoverageObjective)
	theta := red.Solve()
	if theta == nil {
		t.Fatal("reduced link declined to solve")
	}
	got := cabs(ch.EvalPhasors(Phasors(rfsim.ExpandAll(maps, theta))))
	if want := cohBound(red.Channels[0]); math.Abs(got-want) > 1e-12*want {
		t.Errorf("|h| at the expanded solve %v, control-space ceiling %v", got, want)
	}
}
