package optimize

import (
	"context"
	"math/rand"
	"testing"

	"surfos/internal/em"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// benchFixture is a 24×24 single-surface coverage objective over nChans
// receiver locations.
func benchFixture(nChans int) (*CoverageObjective, [][]float64) {
	r := rand.New(rand.NewSource(42))
	shape := []int{576}
	chans := make([]*rfsim.Channel, nChans)
	for i := range chans {
		chans[i] = randChannel(r, shape, false)
	}
	obj, err := NewCoverageObjective(chans, testBudget())
	if err != nil {
		panic(err)
	}
	return obj, randPhases(r, shape)
}

func BenchmarkObjectiveEval(b *testing.B) {
	obj, phases := benchFixture(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj.Eval(phases, true)
	}
}

// linkFixture is a link objective the size of an apartment plan: one
// cross-free channel over two 24×24 panels.
func linkFixture() *CoverageObjective {
	r := rand.New(rand.NewSource(43))
	obj, err := NewCoverageObjective([]*rfsim.Channel{randChannel(r, []int{576, 576}, false)}, testBudget())
	if err != nil {
		panic(err)
	}
	return obj
}

// BenchmarkLinkSolve prices the closed-form link plan (co-phasing).
func BenchmarkLinkSolve(b *testing.B) {
	obj := linkFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obj.Solve()
	}
}

// BenchmarkLinkAdam prices what the same link cost as a search: Adam for
// 150 iterations, the apartment's OptIters.
func BenchmarkLinkAdam(b *testing.B) {
	obj := linkFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Adam(context.Background(), obj, ZeroPhases(obj.Shape()), Options{MaxIters: 150})
	}
}

// apartmentCoverage is a coverage demand the size of the apartment
// workload's: two 24×24 column-wise NR-Surface panels (east and north
// walls, 24 GHz, λ/2 pitch) over the target room's 78-point grid, with the
// panels' column control maps.
func apartmentCoverage(b *testing.B) (*CoverageObjective, []rfsim.ControlMap) {
	apt := scene.NewApartment()
	pitch := em.Wavelength(24e9) / 2
	var surfs []*surface.Surface
	var maps []rfsim.ControlMap
	for _, mount := range []string{scene.MountEastWall, scene.MountNorthWall} {
		panel := apt.Mounts[mount].Panel(24*pitch+0.02, 24*pitch+0.02)
		s, err := surface.New(mount, panel, surface.Layout{Rows: 24, Cols: 24, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
		if err != nil {
			b.Fatal(err)
		}
		surfs = append(surfs, s)
		maps = append(maps, columnMap(nil, 24, 24, nil))
	}
	sim, err := rfsim.New(apt.Scene, 24e9, surfs...)
	if err != nil {
		b.Fatal(err)
	}
	tx := sim.NewTx(apt.AP)
	reg, err := apt.Scene.Region(scene.RegionTargetRoom)
	if err != nil {
		b.Fatal(err)
	}
	pts := reg.GridPoints(0.5, scene.EvalHeight)
	if len(pts) != 78 {
		b.Fatalf("target room grid has %d points, want 78", len(pts))
	}
	chans := make([]*rfsim.Channel, len(pts))
	for i, p := range pts {
		chans[i] = tx.Channel(p)
	}
	obj, err := NewCoverageObjective(chans, rfsim.DefaultBudget())
	if err != nil {
		b.Fatal(err)
	}
	return obj, maps
}

// BenchmarkCoverageAdam prices one coverage demand's search at OptIters
// 150 (the kind.coverage line of the apartment workload): over all 1152
// element phases, and over the panels' 48 column phases — reduce, search,
// expand — as planning runs it.
func BenchmarkCoverageAdam(b *testing.B) {
	obj, maps := apartmentCoverage(b)
	opt := Options{MaxIters: 150}
	b.Run("elements", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Adam(context.Background(), obj, ZeroPhases(obj.Shape()), opt)
		}
	})
	b.Run("controls", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			red := obj.Reduce(maps)
			res := Adam(context.Background(), red, ZeroPhases(red.Shape()), opt)
			rfsim.ExpandAll(maps, res.Phases)
		}
	})
}
