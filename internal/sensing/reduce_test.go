package sensing

import (
	"math"
	"math/rand"
	"testing"

	"surfos/internal/em"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// columnMap is a rows×cols column-wise control map with a random bias (nil
// r: none) and the given stuck elements.
func columnMap(r *rand.Rand, rows, cols int, stuck map[int]float64) rfsim.ControlMap {
	group := make([]int, rows*cols)
	offset := make([]float64, rows*cols)
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

// twoPanelObjective is a localization objective sensing through a 3×4
// panel while a second 3×4 panel also reaches the AP.
func twoPanelObjective(t *testing.T) *LocalizationObjective {
	t.Helper()
	pitch := em.Wavelength(em.Band24G) / 2
	mk := func(name string, x float64) *surface.Surface {
		panel := geom.RectXY(geom.V(x, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 4*pitch+0.1, 3*pitch+0.1)
		s, err := surface.New(name, panel, surface.Layout{Rows: 3, Cols: 4, PitchU: pitch, PitchV: pitch}, surface.Reflective, em.CosinePattern{Q: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sense, other := mk("sense", 0.1), mk("other", 1.2)
	sim, err := rfsim.New(scene.New("free"), em.Band24G, sense, other)
	if err != nil {
		t.Fatal(err)
	}
	ants := ULA(geom.V(2.0, 2.5, 1.3), geom.V(1, 0, 0), 4, em.Wavelength(em.Band24G)/2)
	est, err := NewEstimator(sim, 0, ants, DefaultBins(7, 60*math.Pi/180), DefaultSubcarriers(em.Band24G, 400e6, 3))
	if err != nil {
		t.Fatal(err)
	}
	est.NoisePower = 1e-12
	locs := []*Measurement{
		est.Measure(sense.Panel.Center().Add(geom.V(0.4, 2.0, 0))),
		est.Measure(sense.Panel.Center().Add(geom.V(-0.8, 1.6, 0))),
	}
	obj, err := NewLocalizationObjective(est, locs, 20)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// The reduced localization loss at θ is the element loss at the expanded
// phases, and its gradient the element gradient summed per line: with the
// sensing panel column-wise, biased and stuck (the dictionary folded per
// slot), and with it element-wise while the other panel is not (the
// dictionary stays factored).
func TestLocalizationReduceStuckMatchesExpanded(t *testing.T) {
	obj := twoPanelObjective(t)
	r := rand.New(rand.NewSource(13))
	for _, tc := range []struct {
		name string
		maps []rfsim.ControlMap
	}{
		{"sensing panel column-wise, biased, stuck", []rfsim.ControlMap{
			columnMap(r, 3, 4, map[int]float64{1: 2.0, 6: 0.3}), rfsim.ElementMap(12)}},
		{"sensing panel element-wise, other stuck", []rfsim.ControlMap{
			rfsim.ElementMap(12), columnMap(nil, 3, 4, map[int]float64{0: 1.0})}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			red := obj.Reduce(tc.maps)
			for trial := 0; trial < 3; trial++ {
				theta := randomPhases(r, red.Shape())
				lr, gr := red.Eval(theta, true)
				le, ge := obj.Eval(rfsim.ExpandAll(tc.maps, theta), true)
				if math.Abs(lr-le) > 1e-12*(1+math.Abs(le)) {
					t.Fatalf("reduced loss %v, element loss at Expand(θ) %v", lr, le)
				}
				for s, m := range tc.maps {
					sum := make([]float64, m.Groups)
					for k, g := range m.Group {
						if g >= 0 {
							sum[g] += ge[s][k]
						}
					}
					for g := range sum {
						if math.Abs(gr[s][g]-sum[g]) > 1e-9*(1+math.Abs(sum[g])) {
							t.Fatalf("surface %d line %d: reduced gradient %v, summed %v", s, g, gr[s][g], sum[g])
						}
					}
				}
			}
		})
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("reduced with a map missing")
			}
		}()
		obj.Reduce([]rfsim.ControlMap{rfsim.ElementMap(12)})
	}()
	var _ optimize.Reducer = obj
}
