package optimize

import (
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
