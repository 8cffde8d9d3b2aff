package driver

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"surfos/internal/geom"
	"surfos/internal/surface"
)

// BenchmarkStoreCodebook prices one 16-entry codebook write on a 24×24
// NR-Surface (column-wise, 2-bit). realizable stores Realize outputs, the
// plan path, which StoreCodebook checks per line and keeps as they are;
// project stores arbitrary element phases, which it projects.
func BenchmarkStoreCodebook(b *testing.B) {
	spec, err := Lookup(ModelNRSurface)
	if err != nil {
		b.Fatal(err)
	}
	panel := geom.RectXY(geom.V(0, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.15, 0.15)
	surf, err := surface.New("panel", panel, surface.Layout{Rows: 24, Cols: 24, PitchU: 0.00625, PitchV: 0.00625}, spec.OpMode, nil)
	if err != nil {
		b.Fatal(err)
	}
	d, err := New(spec, surf)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	const entries = 16
	labels := make([]string, entries)
	realizable := make([]surface.Config, entries)
	project := make([]surface.Config, entries)
	for i := range labels {
		labels[i] = fmt.Sprintf("e%d", i)
		theta := make([]float64, d.ControlMap().Groups)
		for g := range theta {
			theta[g] = r.Float64() * 2 * math.Pi
		}
		realizable[i] = d.Realize(theta)
		vals := make([]float64, surf.NumElements())
		for k := range vals {
			vals[k] = r.Float64() * 2 * math.Pi
		}
		project[i] = surface.Config{Property: surface.Phase, Values: vals}
	}
	for _, bc := range []struct {
		name string
		cfgs []surface.Config
	}{{"realizable", realizable}, {"project", project}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := d.StoreCodebook(labels, bc.cfgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
