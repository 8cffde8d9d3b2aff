package optimize

import (
	"context"
	"math/rand"
	"testing"

	"surfos/internal/rfsim"
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
