package engine_test

import (
	"context"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// rig builds the shared fixture: the reference apartment with one 8x8
// reflective panel on the east wall.
func rig(t *testing.T) (*scene.Apartment, *surface.Surface) {
	t.Helper()
	apt := scene.NewApartment()
	pitch := em.Wavelength(em.Band24G) / 2
	mount := apt.Mounts[scene.MountEastWall]
	panel := mount.Panel(8*pitch+0.02, 8*pitch+0.02)
	s, err := surface.New("eng-test", panel, surface.Layout{
		Rows: 8, Cols: 8, PitchU: pitch, PitchV: pitch,
	}, surface.Reflective, em.CosinePattern{Q: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return apt, s
}

func spec(apt *scene.Apartment, s *surface.Surface) engine.Spec {
	return engine.Spec{Scene: apt.Scene, FreqHz: em.Band24G, Surfaces: []*surface.Surface{s}}
}

func TestTxCacheHitsAndConfigMutationDoesNotInvalidate(t *testing.T) {
	apt, s := rig(t)
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	sp := spec(apt, s)

	tc1, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.CacheStats(); st.TxMisses != 1 || st.TxHits != 0 {
		t.Fatalf("after first trace: %+v", st)
	}

	// "Mutating" a surface configuration means evaluating channels under
	// different phase programs — configurations live in drivers and Eval
	// arguments, never in the traced geometry. The cache must keep hitting.
	rx := geom.V(3.5, 5.5, 1.2)
	ch := tc1.Channel(rx)
	n := s.Layout.Rows * s.Layout.Cols
	zero := surface.Config{Property: surface.Phase, Values: make([]float64, n)}
	alt := surface.Config{Property: surface.Phase, Values: make([]float64, n)}
	for i := range alt.Values {
		alt.Values[i] = math.Pi / 2
	}
	h0, err := ch.Eval([]surface.Config{zero})
	if err != nil {
		t.Fatal(err)
	}
	h1, err := ch.Eval([]surface.Config{alt})
	if err != nil {
		t.Fatal(err)
	}
	if h0 == h1 {
		t.Fatal("distinct configs produced identical channels; bad fixture")
	}

	tc2, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	if tc2 != tc1 {
		t.Error("config evaluation invalidated the trace cache")
	}
	if st := eng.CacheStats(); st.TxHits != 1 || st.TxMisses != 1 {
		t.Errorf("after config mutation + re-trace: %+v", st)
	}
}

func TestMovingWallInvalidatesTrace(t *testing.T) {
	apt, s := rig(t)
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	sp := spec(apt, s)

	tc1, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	rx := geom.V(3.5, 5.5, 1.2)
	before := tc1.Channel(rx).Direct

	// Slide the wardrobe into the living room: same wall set, new geometry.
	up := geom.V(0, 0, 1)
	if err := apt.Scene.MoveWall("wardrobe",
		geom.RectXY(geom.V(2.0, 3.0, 0), geom.V(0, 1, 0), up, 1.4, 1.9)); err != nil {
		t.Fatal(err)
	}

	tc2, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	if tc2 == tc1 {
		t.Fatal("MoveWall did not invalidate the trace cache")
	}
	if st := eng.CacheStats(); st.TxMisses != 2 || st.TxHits != 0 {
		t.Errorf("after wall move: %+v", st)
	}
	after := tc2.Channel(rx).Direct
	if before == after {
		t.Error("moved wall left the direct channel bit-identical; stale trace suspected")
	}

	// Invalidate() is the explicit hammer: everything re-traces.
	eng.Invalidate()
	if st := eng.CacheStats(); st.TxContexts != 0 {
		t.Errorf("Invalidate left %d contexts", st.TxContexts)
	}
	tc3, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	if tc3 == tc2 {
		t.Error("Invalidate did not drop the cached trace")
	}
}

func TestUncacheablePatternBypassesCache(t *testing.T) {
	apt, s := rig(t)
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	sp := spec(apt, s)
	sp.TxPattern = rfsim.ConeBeam(s.Panel.Center().Sub(apt.AP), 12*math.Pi/180, 20, -5)
	// No TxPatternID: functions are not comparable, so this spec must not
	// be keyed (a colliding key would silently serve another pattern's
	// trace).
	tc1, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	tc2, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	if tc1 == tc2 {
		t.Error("uncacheable spec was cached")
	}
	if st := eng.CacheStats(); st.TxContexts != 0 || st.TxHits != 0 {
		t.Errorf("uncacheable spec leaked into the cache: %+v", st)
	}

	// With an ID the same pattern caches normally.
	sp.TxPatternID = "test-beam"
	tc3, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	tc4, err := eng.Tx(ctx, sp, apt.AP)
	if err != nil {
		t.Fatal(err)
	}
	if tc3 != tc4 {
		t.Error("identified pattern did not cache")
	}
}

func TestTxLRUEviction(t *testing.T) {
	apt, s := rig(t)
	eng := engine.New(engine.Options{MaxTxContexts: 2})
	ctx := context.Background()
	sp := spec(apt, s)
	for i := 0; i < 4; i++ {
		if _, err := eng.Tx(ctx, sp, geom.V(1.0+float64(i), 2.0, 1.5)); err != nil {
			t.Fatal(err)
		}
	}
	if st := eng.CacheStats(); st.TxContexts != 2 {
		t.Errorf("LRU kept %d contexts, want 2", st.TxContexts)
	}
}

func TestParallelHeatmapMatchesSerial(t *testing.T) {
	apt, s := rig(t)
	ctx := context.Background()
	budget := rfsim.LinkBudget{TxPowerDBm: 10, AntennaGainDB: 5, NoiseFigureDB: 7, BandwidthHz: 400e6}
	reg := apt.Regions[scene.RegionTargetRoom]
	pts := reg.GridPoints(0.5, scene.EvalHeight)
	if len(pts) < 16 {
		t.Fatalf("grid too small: %d points", len(pts))
	}
	n := s.Layout.Rows * s.Layout.Cols
	cfg := surface.Config{Property: surface.Phase, Values: make([]float64, n)}
	for i := range cfg.Values {
		cfg.Values[i] = float64(i%7) * math.Pi / 3
	}

	heatmap := func(eng *engine.Engine) []float64 {
		t.Helper()
		chans, err := eng.Channels(ctx, spec(apt, s), apt.AP, pts)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]float64, len(chans))
		if err := eng.ForEach(ctx, len(chans), func(i int) {
			h, err := chans[i].Eval([]surface.Config{cfg})
			if err == nil {
				out[i] = budget.SNRdB(h)
			}
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	serial := heatmap(engine.New(engine.Options{Workers: 1}))
	parallel := heatmap(engine.New(engine.Options{Workers: 8}))
	for i := range serial {
		if d := math.Abs(serial[i] - parallel[i]); d > 1e-12 {
			t.Fatalf("point %d: serial %.17g vs parallel %.17g (Δ %g)", i, serial[i], parallel[i], d)
		}
	}
}

func TestForEachDeterministicOrderAndCancel(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 4})
	out := make([]int, 100)
	if err := eng.ForEach(context.Background(), len(out), func(i int) { out[i] = i * i }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("slot %d holds %d", i, v)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := eng.ForEach(ctx, 100, func(int) {}); err != context.Canceled {
		t.Errorf("canceled ForEach returned %v", err)
	}
	// nil fn over zero items must be a no-op either way.
	if err := eng.ForEach(context.Background(), 0, func(int) { t.Error("called") }); err != nil {
		t.Error(err)
	}
}

func TestForEachDoesNotLeakGoroutines(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 8})
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	_ = eng.ForEach(ctx, 1000, func(i int) {
		if started.Add(1) == 5 {
			cancel() // abort mid-flight; workers must drain, not park
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	base := runtime.NumGoroutine()
	for time.Now().Before(deadline) {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n <= base {
			base = n
		}
	}
	// Re-run to prove the engine is still healthy after cancellation.
	out := make([]int, 10)
	if err := eng.ForEach(context.Background(), len(out), func(i int) { out[i] = 1 }); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 1 {
			t.Fatalf("slot %d not evaluated after cancel/reuse", i)
		}
	}
}

// cancelAfter wraps an Objective and cancels a context after n Evals.
type cancelAfter struct {
	obj    optimize.Objective
	n      int
	calls  int
	cancel context.CancelFunc
}

func (c *cancelAfter) Shape() []int { return c.obj.Shape() }

func (c *cancelAfter) Eval(phases [][]float64, wantGrad bool) (float64, [][]float64) {
	c.calls++
	if c.calls == c.n {
		c.cancel()
	}
	return c.obj.Eval(phases, wantGrad)
}

func TestAdamCancellationReturnsBestSoFar(t *testing.T) {
	apt, s := rig(t)
	eng := engine.New(engine.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	budget := rfsim.LinkBudget{TxPowerDBm: 10, AntennaGainDB: 5, NoiseFigureDB: 7, BandwidthHz: 400e6}
	reg := apt.Regions[scene.RegionTargetRoom]
	pts := reg.GridPoints(1.0, scene.EvalHeight)
	chans, err := eng.Channels(ctx, spec(apt, s), apt.AP, pts)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := optimize.NewCoverageObjective(chans, budget)
	if err != nil {
		t.Fatal(err)
	}

	const maxIters = 500
	wrapped := &cancelAfter{obj: obj, n: 25, cancel: cancel}
	res := optimize.Adam(ctx, wrapped, optimize.ZeroPhases(obj.Shape()), optimize.Options{MaxIters: maxIters})
	if !res.Stopped {
		t.Fatal("canceled run did not report Stopped")
	}
	if res.Iterations >= maxIters {
		t.Fatalf("Iterations = %d, want < %d", res.Iterations, maxIters)
	}
	if res.Iterations != 25 {
		t.Errorf("Iterations = %d, want 25 (the completed iterations)", res.Iterations)
	}
	shape := obj.Shape()
	if len(res.Phases) != len(shape) {
		t.Fatalf("best-so-far phases missing: %d surfaces", len(res.Phases))
	}
	for i, want := range shape {
		if len(res.Phases[i]) != want {
			t.Fatalf("surface %d: %d phases, want %d", i, len(res.Phases[i]), want)
		}
	}
	if math.IsInf(res.Loss, 0) || math.IsNaN(res.Loss) {
		t.Errorf("best-so-far loss %v", res.Loss)
	}
	// The reported loss is the minimum over the completed iterations.
	min := math.Inf(1)
	for _, l := range res.History {
		min = math.Min(min, l)
	}
	if res.Loss != min {
		t.Errorf("Loss %v != min(History) %v", res.Loss, min)
	}

	// A pre-canceled context returns immediately, still well-formed.
	res = optimize.Adam(ctx, obj, optimize.ZeroPhases(obj.Shape()), optimize.Options{MaxIters: maxIters})
	if !res.Stopped || res.Iterations != 0 {
		t.Errorf("pre-canceled Adam: Stopped=%v Iterations=%d", res.Stopped, res.Iterations)
	}
}

func TestSingleflightTrace(t *testing.T) {
	apt, s := rig(t)
	eng := engine.New(engine.Options{})
	ctx := context.Background()
	sp := spec(apt, s)

	const callers = 16
	results := make([]*rfsim.TxContext, callers)
	if err := eng.ForEach(ctx, callers, func(i int) {
		tc, err := eng.Tx(ctx, sp, apt.AP)
		if err != nil {
			t.Error(err)
			return
		}
		results[i] = tc
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < callers; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d traced independently", i)
		}
	}
	if st := eng.CacheStats(); st.TxMisses != 1 {
		t.Errorf("concurrent misses each traced: %+v", st)
	}
}

func TestSortedSurfaces(t *testing.T) {
	apt, _ := rig(t)
	pitch := em.Wavelength(em.Band24G) / 2
	mk := func(name string) *surface.Surface {
		s, err := surface.New(name, apt.Mounts[scene.MountEastWall].Panel(4*pitch+0.02, 4*pitch+0.02),
			surface.Layout{Rows: 4, Cols: 4, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	b, a := mk("b"), mk("a")
	in := []*surface.Surface{b, a}
	got := engine.SortedSurfaces(in)
	if got[0].Name != "a" || got[1].Name != "b" {
		t.Errorf("order: %s, %s", got[0].Name, got[1].Name)
	}
	if in[0].Name != "b" {
		t.Error("SortedSurfaces mutated its input")
	}
}

// TestParallelSweepWithHeatmapOnSharedPool runs a fan-out job and heatmap
// evaluations on the same engine pool concurrently: one worker budget
// (the two jobs together never run more callbacks than the engine has
// workers to lend plus their own two goroutines), no deadlock from pool
// contention (a ForEach degrades to its caller alone while heatmaps hold
// the tokens), no data race, and the job's output stays identical to a
// serial loop.
func TestParallelSweepWithHeatmapOnSharedPool(t *testing.T) {
	apt, s := rig(t)
	ctx := context.Background()
	budget := rfsim.LinkBudget{TxPowerDBm: 10, AntennaGainDB: 5, NoiseFigureDB: 7, BandwidthHz: 400e6}
	reg := apt.Regions[scene.RegionTargetRoom]
	pts := reg.GridPoints(0.7, scene.EvalHeight)

	const width = 4
	eng := engine.New(engine.Options{Workers: width})
	chans, err := eng.Channels(ctx, spec(apt, s), apt.AP, pts)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []surface.Config{s.Off()}
	snr := func(i int) float64 {
		h, err := chans[i].Eval(cfgs)
		if err != nil {
			t.Error(err)
		}
		return budget.SNRdB(h)
	}
	want := make([]float64, len(chans))
	for i := range want {
		want[i] = snr(i)
	}

	var cur, peak atomic.Int32
	counted := func(out []float64, i int) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		out[i] = snr(i)
		cur.Add(-1)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		out := make([]float64, len(chans))
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = eng.ForEach(ctx, len(chans), func(i int) { counted(out, i) })
		}
	}()

	for run := 0; run < 50; run++ {
		got := make([]float64, len(chans))
		if err := eng.ForEach(ctx, len(chans), func(i int) { counted(got, i) }); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: point %d: pooled %.17g != serial %.17g", run, i, got[i], want[i])
			}
		}
	}
	close(stop)
	<-done
	// The engine lends width-1 workers in total; each of the two top-level
	// jobs also runs on its own calling goroutine.
	if p := peak.Load(); p > width+1 {
		t.Errorf("peak concurrent callbacks %d exceeds the shared budget %d", p, width+1)
	}
}
