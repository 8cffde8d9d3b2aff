package rfsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"surfos/internal/geom"
	"surfos/internal/surface"
)

// lineMap builds the control map of a rows×cols panel whose lines are its
// elements, columns or rows, with an optional bias and stuck mask.
func lineMap(rows, cols int, g surface.Granularity, bias []float64, stuck map[int]float64) ControlMap {
	groups, group := surface.Layout{Rows: rows, Cols: cols}.Lines(g)
	var offset []float64
	if bias != nil || stuck != nil {
		offset = make([]float64, len(group))
		copy(offset, bias)
	}
	for k, v := range stuck {
		group[k], offset[k] = -1, v
	}
	return NewControlMap(groups, group, offset)
}

// heldMap is the control map of a panel with no lines, every element held
// at its phase in held: a fabricated passive panel.
func heldMap(held []float64) ControlMap {
	group := make([]int, len(held))
	for k := range group {
		group[k] = -1
	}
	return NewControlMap(0, group, held)
}

func randAngles(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for k := range out {
		out[k] = r.Float64() * 2 * math.Pi
	}
	return out
}

// termScale is Σ of the channel's coefficient magnitudes: a bound on |h|,
// against which a rounding error is judged.
func termScale(ch *Channel) float64 {
	s := cmplx.Abs(ch.Direct)
	for _, coeffs := range ch.Single {
		for _, c := range coeffs {
			s += cmplx.Abs(c)
		}
	}
	for _, blk := range ch.Cross {
		for _, row := range blk.M {
			for _, c := range row {
				s += cmplx.Abs(c)
			}
		}
	}
	return s
}

// checkReduced asserts the reduced channel at random control phases equals
// the full channel at their expansion, and that each line's gradient is the
// sum of its elements' (the chain rule through Expand).
func checkReduced(t *testing.T, ch *Channel, maps []ControlMap) {
	t.Helper()
	red := ch.Reduce(maps)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 5; trial++ {
		theta := make([][]float64, len(maps))
		for s, m := range maps {
			theta[s] = randAngles(r, m.Groups)
		}
		phases := ExpandAll(maps, theta)
		cfgs := make([]surface.Config, len(phases))
		rcfgs := make([]surface.Config, len(theta))
		for s := range phases {
			cfgs[s] = surface.Config{Property: surface.Phase, Values: phases[s]}
			rcfgs[s] = surface.Config{Property: surface.Phase, Values: theta[s]}
		}
		want, err := ch.Eval(cfgs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := red.Eval(rcfgs)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12 * termScale(ch)
		if d := cmplx.Abs(got - want); d > tol {
			t.Fatalf("reduced eval %v, full eval at Expand(θ) %v: |Δ| %.3g > %.3g", got, want, d, tol)
		}

		x, _ := ch.Phasors(cfgs)
		rx, _ := red.Phasors(rcfgs)
		full, part := ch.Partials(x), red.Partials(rx)
		for s, m := range maps {
			sum := make([]complex128, m.Groups)
			for k, g := range m.Group {
				if g >= 0 {
					sum[g] += full[s][k]
				}
			}
			for g := range sum {
				if d := cmplx.Abs(part[s][g] - sum[g]); d > tol {
					t.Fatalf("surface %d line %d: reduced partial %v, summed element partials %v", s, g, part[s][g], sum[g])
				}
			}
		}
	}
}

// Reduce is exact across element-, column- and row-wise layouts, with and
// without a bias, through a cascade block between two 3×3 panels.
func TestReduceMatchesExpandedEval(t *testing.T) {
	sim, _, _ := twoSurfaceSim(t)
	ch := sim.NewTx(geom.V(-1, 1, 1)).Channel(geom.V(0.5, 3, 1))
	if len(ch.Cross) == 0 {
		t.Fatal("fixture lost its cascade blocks")
	}
	r := rand.New(rand.NewSource(3))
	bias := randAngles(r, 9)
	for _, tc := range []struct {
		name string
		a, b ControlMap
	}{
		{"element/element", lineMap(3, 3, surface.ElementWise, nil, nil), lineMap(3, 3, surface.ElementWise, nil, nil)},
		{"column/row", lineMap(3, 3, surface.ColumnWise, nil, nil), lineMap(3, 3, surface.RowWise, nil, nil)},
		{"row/column", lineMap(3, 3, surface.RowWise, nil, nil), lineMap(3, 3, surface.ColumnWise, nil, nil)},
		{"column+bias/element+bias", lineMap(3, 3, surface.ColumnWise, bias, nil), lineMap(3, 3, surface.ElementWise, bias, nil)},
		{"row+bias/column", lineMap(3, 3, surface.RowWise, bias, nil), lineMap(3, 3, surface.ColumnWise, nil, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkReduced(t, ch, []ControlMap{tc.a, tc.b})
		})
	}
	// The identity reduction is the channel itself.
	if id := ch.Reduce([]ControlMap{ElementMap(9), ElementMap(9)}); id != ch {
		t.Error("identity maps built a new channel")
	}
}

// Stuck elements fold into Direct and into the other panel's lines through
// the cascade block, on either side of it, with a bias on the driven
// elements; a whole stuck line leaves a line with no say. A panel with no
// lines (every element held, as a fabricated passive one) folds the same
// way, on either side of the block or both, and leaves no Cross block; with
// both panels held, Direct is the full channel at the held phases.
func TestReduceStuckMatchesExpandedEval(t *testing.T) {
	sim, _, _ := twoSurfaceSim(t)
	ch := sim.NewTx(geom.V(-1, 1, 1)).Channel(geom.V(0.5, 3, 1))
	if len(ch.Cross) == 0 {
		t.Fatal("fixture lost its cascade blocks")
	}
	r := rand.New(rand.NewSource(5))
	bias := randAngles(r, 9)
	stuckA := map[int]float64{0: math.Pi, 4: 1.0}
	stuckB := map[int]float64{2: 0.5, 5: 2.5, 8: 4} // all of column 2
	heldA, heldB := heldMap(randAngles(r, 9)), heldMap(randAngles(r, 9))
	for _, tc := range []struct {
		name string
		a, b ControlMap
	}{
		{"column+bias+stuck/row+stuck", lineMap(3, 3, surface.ColumnWise, bias, stuckA), lineMap(3, 3, surface.RowWise, nil, stuckB)},
		{"element+stuck/column+bias+stuck", lineMap(3, 3, surface.ElementWise, nil, stuckA), lineMap(3, 3, surface.ColumnWise, bias, stuckB)},
		{"held/column+bias", heldA, lineMap(3, 3, surface.ColumnWise, bias, nil)},
		{"element+stuck/held", lineMap(3, 3, surface.ElementWise, nil, stuckA), heldB},
		{"held/held", heldA, heldB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			maps := []ControlMap{tc.a, tc.b}
			checkReduced(t, ch, maps)
			// A stuck element's expanded phase is its frozen one, whatever θ.
			theta := [][]float64{randAngles(r, tc.a.Groups), randAngles(r, tc.b.Groups)}
			ph := ExpandAll(maps, theta)
			for s, m := range maps {
				for k, g := range m.Group {
					if g < 0 && ph[s][k] != m.Offset[k] {
						t.Errorf("surface %d stuck element %d expanded to %v, want %v", s, k, ph[s][k], m.Offset[k])
					}
				}
			}
			if tc.a.Groups > 0 && tc.b.Groups > 0 {
				return
			}
			red := ch.Reduce(maps)
			if len(red.Cross) != 0 {
				t.Errorf("%d Cross blocks left beside a panel with no lines", len(red.Cross))
			}
			if tc.a.Groups+tc.b.Groups > 0 {
				return
			}
			full, err := ch.Eval([]surface.Config{
				{Property: surface.Phase, Values: tc.a.Offset},
				{Property: surface.Phase, Values: tc.b.Offset},
			})
			if err != nil {
				t.Fatal(err)
			}
			if d := cmplx.Abs(red.Direct - full); d > 1e-12*termScale(ch) {
				t.Errorf("held Direct %v, full eval %v", red.Direct, full)
			}
		})
	}
	// A line whose every element is stuck has no coefficient.
	red := ch.Reduce([]ControlMap{ElementMap(9), lineMap(3, 3, surface.ColumnWise, nil, stuckB)})
	if red.Single[1][2] != 0 {
		t.Errorf("fully stuck column has coefficient %v", red.Single[1][2])
	}
}

// The map's Identity and Expand agree with its construction.
func TestControlMapExpand(t *testing.T) {
	if !ElementMap(4).Identity() {
		t.Error("ElementMap is not the identity")
	}
	col := lineMap(2, 3, surface.ColumnWise, []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}, nil)
	if col.Identity() {
		t.Error("column map claims identity")
	}
	got := col.Expand([]float64{1, 2, 3})
	want := []float64{1.1, 2.2, 3.3, 1.4, 2.5, 3.6}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-15 {
			t.Fatalf("Expand = %v, want %v", got, want)
		}
	}
	// A literal map without cached phasors folds the same as a built one.
	lit := ControlMap{Groups: col.Groups, Group: col.Group, Offset: col.Offset}
	c := []complex128{1, 1i, -1, 2, 0.5i, 3}
	a, _ := col.Fold(c)
	b, _ := lit.Fold(c)
	for g := range a {
		if cmplx.Abs(a[g]-b[g]) > 1e-15 {
			t.Fatalf("literal fold %v, built fold %v", b, a)
		}
	}
}
