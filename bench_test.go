// Benchmarks regenerating every table and figure of the paper's evaluation
// (one Benchmark per artifact), plus the ablation benches for the design
// choices called out in DESIGN.md and microbenchmarks of the hot paths.
//
// The figure benches run the Quick experiment profile per iteration and
// report the experiment's headline metrics via b.ReportMetric, so the
// bench output doubles as a regression record of the reproduced shapes.
package surfos_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"surfos"
	"surfos/internal/ctrlproto"
	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/experiments"
	"surfos/internal/geom"
	"surfos/internal/optimize"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/sensing"
	"surfos/internal/surface"
)

// --- Table 1 ---

func BenchmarkTable1DriverCatalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunTable1()
		if len(r.Specs) != 13 {
			b.Fatal("catalog incomplete")
		}
		_ = r.Render()
	}
}

// --- Figure 2 ---

func BenchmarkFig2Heatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig2(context.Background(), experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		_, covMed, _ := r.LocErr.Stats()
		_, locMed, _ := r.LocErrSensingOpt.Stats()
		b.ReportMetric(covMed, "covcfg-locerr-m")
		b.ReportMetric(locMed, "loccfg-locerr-m")
		if s := r.ShapeCheck(); s != "" {
			b.Fatalf("shape: %s", s)
		}
	}
}

// --- Figure 4 ---

// BenchmarkFig4Hybrid runs Fig. 4 at the quick profile and reports its
// allocations. B/op counts bytes allocated, not bytes held: the hybrid's
// per-point cascade channels are allocated either way, so peak memory is
// measured as the surfos-bench process's maximum RSS instead.
func BenchmarkFig4Hybrid(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig4(context.Background(), experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.BaselineSNR, "baseline-snr-db")
		best := math.Inf(-1)
		for _, p := range r.Hybrid {
			if p.MedianSNRdB > best {
				best = p.MedianSNRdB
			}
		}
		b.ReportMetric(best, "hybrid-best-snr-db")
		if s := r.ShapeCheck(); s != "" {
			b.Fatalf("shape: %s", s)
		}
	}
}

// --- Figure 5 ---

func BenchmarkFig5Multitask(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.RunFig5(context.Background(), experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.LocErr[experiments.CfgMultitask].Quantile(0.5), "multi-locerr-m")
		b.ReportMetric(r.SNR[experiments.CfgMultitask].Quantile(0.5), "multi-snr-db")
		if s := r.ShapeCheck(); s != "" {
			b.Fatalf("shape: %s", s)
		}
	}
}

// --- Figure 6 ---

func BenchmarkFig6Intent(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.RunFig6()
		if d := r.PaperParity(); d != "" {
			b.Fatalf("parity: %s", d)
		}
	}
}

// --- Ablation D1: analytic-gradient optimizer vs derivative-free search ---

func ablationObjective(b *testing.B) optimize.Objective {
	b.Helper()
	apt := scene.NewApartment()
	pitch := em.Wavelength(em.Band24G) / 2
	mount := apt.Mounts[scene.MountEastWall]
	s, err := surface.New("abl", mount.Panel(24*pitch+0.02, 24*pitch+0.02),
		surface.Layout{Rows: 24, Cols: 24, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := rfsim.New(apt.Scene, em.Band24G, s)
	if err != nil {
		b.Fatal(err)
	}
	tc := sim.NewTx(apt.AP)
	var chans []*rfsim.Channel
	for _, pt := range apt.TargetGrid(1.2) {
		chans = append(chans, tc.Channel(pt))
	}
	obj, err := optimize.NewCoverageObjective(chans, rfsim.DefaultBudget())
	if err != nil {
		b.Fatal(err)
	}
	return obj
}

func BenchmarkAblationGradientAdam(b *testing.B) {
	obj := ablationObjective(b)
	b.ResetTimer()
	var loss float64
	for i := 0; i < b.N; i++ {
		res := optimize.Adam(context.Background(), obj, optimize.ZeroPhases(obj.Shape()), optimize.Options{MaxIters: 100})
		loss = res.Loss
	}
	b.ReportMetric(-loss, "sum-spectral-eff")
}

func BenchmarkAblationGradientRandomSearch(b *testing.B) {
	obj := ablationObjective(b)
	b.ResetTimer()
	var loss float64
	for i := 0; i < b.N; i++ {
		res := optimize.RandomSearch(context.Background(), obj, optimize.Options{MaxIters: 100, Seed: int64(i)})
		loss = res.Loss
	}
	b.ReportMetric(-loss, "sum-spectral-eff")
}

// --- Ablation D2: control granularity vs steering quality ---

func granularitySNR(b *testing.B, g surface.Granularity, bits int) float64 {
	b.Helper()
	apt := scene.NewApartment()
	pitch := em.Wavelength(em.Band24G) / 2
	mount := apt.Mounts[scene.MountEastWall]
	s, err := surface.New("abl", mount.Panel(24*pitch+0.02, 24*pitch+0.02),
		surface.Layout{Rows: 24, Cols: 24, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := rfsim.New(apt.Scene, em.Band24G, s)
	if err != nil {
		b.Fatal(err)
	}
	rx := geom.V(2.5, 5.5, 1.2)
	ch := sim.NewTx(apt.AP).Channel(rx)
	cfg := s.SteeringConfig(apt.AP, rx, em.Band24G).
		ProjectGranularity(g, s.Layout).
		Quantize(bits)
	h, err := ch.Eval([]surface.Config{cfg})
	if err != nil {
		b.Fatal(err)
	}
	return rfsim.DefaultBudget().SNRdB(h)
}

func BenchmarkAblationGranularityElementWise(b *testing.B) {
	var snr float64
	for i := 0; i < b.N; i++ {
		snr = granularitySNR(b, surface.ElementWise, 0)
	}
	b.ReportMetric(snr, "steer-snr-db")
}

func BenchmarkAblationGranularityElement2Bit(b *testing.B) {
	var snr float64
	for i := 0; i < b.N; i++ {
		snr = granularitySNR(b, surface.ElementWise, 2)
	}
	b.ReportMetric(snr, "steer-snr-db")
}

func BenchmarkAblationGranularityColumnWise(b *testing.B) {
	var snr float64
	for i := 0; i < b.N; i++ {
		snr = granularitySNR(b, surface.ColumnWise, 2)
	}
	b.ReportMetric(snr, "steer-snr-db")
}

// --- Ablation D3: codebook size vs SNR under endpoint mobility ---

func BenchmarkAblationCodebook(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("entries-%02d", k), func(b *testing.B) {
			apt := scene.NewApartment()
			pitch := em.Wavelength(em.Band24G) / 2
			mount := apt.Mounts[scene.MountEastWall]
			s, err := surface.New("cb", mount.Panel(24*pitch+0.02, 24*pitch+0.02),
				surface.Layout{Rows: 24, Cols: 24, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := rfsim.New(apt.Scene, em.Band24G, s)
			if err != nil {
				b.Fatal(err)
			}
			tc := sim.NewTx(apt.AP)
			budget := rfsim.DefaultBudget()

			// Codebook: k beams spread across the room.
			var entries []surface.Config
			for i := 0; i < k; i++ {
				x := 0.8 + 5.4*float64(i)/float64(maxInt(k-1, 1))
				entries = append(entries, s.SteeringConfig(apt.AP, geom.V(x, 5.5, 1.2), em.Band24G).Quantize(2))
			}
			// Mobility trace: the endpoint walks across the room; the device
			// locally selects its best stored entry per position.
			var trace []geom.Vec3
			for i := 0; i < 20; i++ {
				trace = append(trace, geom.V(0.8+5.4*float64(i)/19, 5.2+0.8*float64(i%3)/2, 1.2))
			}
			b.ResetTimer()
			var mean float64
			for n := 0; n < b.N; n++ {
				var sum float64
				for _, pos := range trace {
					ch := tc.Channel(pos)
					best := math.Inf(-1)
					for _, cfg := range entries {
						h, _ := ch.Eval([]surface.Config{cfg})
						if snr := budget.SNRdB(h); snr > best {
							best = snr
						}
					}
					sum += best
				}
				mean = sum / float64(len(trace))
			}
			b.ReportMetric(mean, "mobile-mean-snr-db")
		})
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// --- Ablation: surface-to-surface interaction modeling (cascade) ---

func BenchmarkAblationCascade(b *testing.B) {
	for _, cascade := range []bool{false, true} {
		name := "off"
		if cascade {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			apt := scene.NewApartment()
			pitch := em.Wavelength(em.Band24G) / 2
			sA, err := surface.New("a", apt.Mounts[scene.MountEastWall].Panel(32*pitch+0.02, 32*pitch+0.02),
				surface.Layout{Rows: 32, Cols: 32, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
			if err != nil {
				b.Fatal(err)
			}
			sB, err := surface.New("b", apt.Mounts[scene.MountNorthWall].Panel(16*pitch+0.02, 16*pitch+0.02),
				surface.Layout{Rows: 16, Cols: 16, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := rfsim.New(apt.Scene, em.Band24G, sA, sB)
			if err != nil {
				b.Fatal(err)
			}
			sim.Cascade = cascade
			rx := geom.V(2.0, 6.0, 1.2)
			cfgA := sA.SteeringConfig(apt.AP, sB.Panel.Center(), em.Band24G)
			b.ResetTimer()
			var snr float64
			for i := 0; i < b.N; i++ {
				tc := sim.NewTx(apt.AP)
				ch := tc.Channel(rx)
				cfgB := sB.SteeringConfig(sA.Panel.Center(), rx, em.Band24G)
				h, _ := ch.Eval([]surface.Config{cfgA, cfgB})
				snr = rfsim.DefaultBudget().SNRdB(h)
			}
			b.ReportMetric(snr, "relay-snr-db")
		})
	}
}

// --- Microbenchmarks of the hot paths ---

func microChannel(b *testing.B) (*rfsim.TxContext, *surface.Surface, geom.Vec3) {
	b.Helper()
	apt := scene.NewApartment()
	pitch := em.Wavelength(em.Band24G) / 2
	s, err := surface.New("m", apt.Mounts[scene.MountEastWall].Panel(32*pitch+0.02, 32*pitch+0.02),
		surface.Layout{Rows: 32, Cols: 32, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := rfsim.New(apt.Scene, em.Band24G, s)
	if err != nil {
		b.Fatal(err)
	}
	return sim.NewTx(apt.AP), s, geom.V(2.5, 5.5, 1.2)
}

func BenchmarkRayTraceChannel(b *testing.B) {
	tc, _, rx := microChannel(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = tc.Channel(rx)
	}
}

func BenchmarkChannelEval(b *testing.B) {
	tc, s, rx := microChannel(b)
	ch := tc.Channel(rx)
	x, err := ch.Phasors([]surface.Config{s.Off()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.EvalPhasors(x)
	}
}

func BenchmarkChannelPartials(b *testing.B) {
	tc, s, rx := microChannel(b)
	ch := tc.Channel(rx)
	x, err := ch.Phasors([]surface.Config{s.Off()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ch.Partials(x)
	}
}

func BenchmarkAdamIteration(b *testing.B) {
	obj := ablationObjective(b)
	init := optimize.ZeroPhases(obj.Shape())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		optimize.Adam(context.Background(), obj, init, optimize.Options{MaxIters: 1})
	}
}

func BenchmarkSensingSpectrum(b *testing.B) {
	apt := scene.NewApartment()
	pitch := 2 * em.Wavelength(em.Band60G)
	s, err := surface.New("sp", apt.Mounts[scene.MountEastWall].Panel(24*pitch+0.02, 8*pitch+0.02),
		surface.Layout{Rows: 8, Cols: 24, PitchU: pitch, PitchV: pitch}, surface.Reflective, em.CosinePattern{Q: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	sim, err := rfsim.New(apt.Scene, em.Band60G, s)
	if err != nil {
		b.Fatal(err)
	}
	ants := sensing.ULA(apt.AP, geom.V(1, 0, 0), 6, em.Wavelength(em.Band60G)/2)
	est, err := sensing.NewEstimator(sim, 0, ants,
		sensing.DefaultBins(41, math.Pi/3), sensing.DefaultSubcarriers(em.Band60G, 1.8e9, 6))
	if err != nil {
		b.Fatal(err)
	}
	m := est.Measure(geom.V(3.5, 5.5, 1.2))
	phases := optimize.ZeroPhases([]int{s.NumElements()})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = est.Estimate(m, phases, 0, nil)
	}
}

func BenchmarkProtocolCodebookRoundTrip(b *testing.B) {
	entries := make([][]float64, 8)
	for i := range entries {
		entries[i] = make([]float64, 1024)
	}
	m := ctrlproto.CodebookMsg{
		Property: surface.Phase,
		Labels:   []string{"a", "b", "c", "d", "e", "f", "g", "h"},
		Entries:  entries,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := ctrlproto.WriteFrame(&buf, ctrlproto.Frame{Type: ctrlproto.MsgStoreCodebook, Corr: 1, Payload: m.Encode()}); err != nil {
			b.Fatal(err)
		}
		f, err := ctrlproto.ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ctrlproto.DecodeCodebookMsg(f.Payload); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(8 * 1024 * 8))
}

func BenchmarkOrchestratorReconcile(b *testing.B) {
	apt := surfos.NewApartment()
	hw := surfos.NewHardware()
	if _, err := surfos.Deploy(hw, "e0", surfos.ModelNRSurface, apt.Mounts[surfos.MountEastWall], 16, 16); err != nil {
		b.Fatal(err)
	}
	if err := hw.AddAP(&surfos.AccessPoint{ID: "ap0", Pos: apt.AP, FreqHz: 24e9, Budget: surfos.DefaultBudget(), Antennas: 8}); err != nil {
		b.Fatal(err)
	}
	orch, err := surfos.NewOrchestrator(apt.Scene, hw, surfos.Options{OptIters: 40, GridStep: 1.5})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := orch.EnhanceLink(context.Background(), surfos.LinkGoal{Endpoint: "l", Pos: surfos.V(2.5, 5.5, 1.2)}, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := orch.Reconcile(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation: per-element vs panel-center occlusion ---

func BenchmarkAblationOcclusion(b *testing.B) {
	for _, perElement := range []bool{false, true} {
		name := "center"
		if perElement {
			name = "per-element"
		}
		b.Run(name, func(b *testing.B) {
			apt := scene.NewApartment()
			pitch := em.Wavelength(em.Band24G) / 2
			s, err := surface.New("occ", apt.Mounts[scene.MountEastWall].Panel(32*pitch+0.02, 32*pitch+0.02),
				surface.Layout{Rows: 32, Cols: 32, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
			if err != nil {
				b.Fatal(err)
			}
			sim, err := rfsim.New(apt.Scene, em.Band24G, s)
			if err != nil {
				b.Fatal(err)
			}
			sim.PerElementOcclusion = perElement
			// A receiver near the doorway edge, where element visibility
			// genuinely varies across the panel.
			rx := geom.V(4.1, 3.8, 1.2)
			b.ResetTimer()
			var snr float64
			for i := 0; i < b.N; i++ {
				tc := sim.NewTx(apt.AP)
				ch := tc.Channel(rx)
				cfg := s.SteeringConfig(apt.AP, rx, em.Band24G)
				h, _ := ch.Eval([]surface.Config{cfg})
				snr = rfsim.DefaultBudget().SNRdB(h)
			}
			b.ReportMetric(snr, "edge-snr-db")
		})
	}
}

// --- Ablation D4: multiplexing strategy for two same-band link tasks ---
//
// Measures per-task effective rate share·log2(1+SNR): TDM gives each task
// its ideal configuration for half the airtime; joint configuration
// multiplexing serves both at full share from one compromise config.

func multiplexRig(b *testing.B, policy surfos.MultiplexPolicy) (task1, task2 float64) {
	b.Helper()
	apt := surfos.NewApartment()
	hw := surfos.NewHardware()
	if _, err := surfos.Deploy(hw, "e0", surfos.ModelNRSurface, apt.Mounts[surfos.MountEastWall], 24, 24); err != nil {
		b.Fatal(err)
	}
	if err := hw.AddAP(&surfos.AccessPoint{ID: "ap0", Pos: apt.AP, FreqHz: 24e9,
		Budget: surfos.DefaultBudget(), Antennas: 8}); err != nil {
		b.Fatal(err)
	}
	orch, err := surfos.NewOrchestrator(apt.Scene, hw, surfos.Options{
		Policy: policy, OptIters: 60, GridStep: 1.5,
	})
	if err != nil {
		b.Fatal(err)
	}
	t1, _ := orch.EnhanceLink(context.Background(), surfos.LinkGoal{Endpoint: "a", Pos: surfos.V(1.5, 5.0, 1.2)}, 1)
	t2, _ := orch.EnhanceLink(context.Background(), surfos.LinkGoal{Endpoint: "b", Pos: surfos.V(5.5, 6.0, 1.2)}, 1)
	if err := orch.Reconcile(context.Background()); err != nil {
		b.Fatal(err)
	}
	rate := func(id int) float64 {
		task, _ := orch.Task(id)
		if task.Result == nil {
			b.Fatalf("task %d unscheduled", id)
		}
		return task.Result.Share * math.Log2(1+math.Pow(10, task.Result.Metric/10))
	}
	return rate(t1.ID), rate(t2.ID)
}

func BenchmarkAblationMultiplexing(b *testing.B) {
	for _, p := range []struct {
		name   string
		policy surfos.MultiplexPolicy
	}{
		{"tdm", surfos.PolicyTDM},
		{"joint", surfos.PolicyJoint},
	} {
		b.Run(p.name, func(b *testing.B) {
			var r1, r2 float64
			for i := 0; i < b.N; i++ {
				r1, r2 = multiplexRig(b, p.policy)
			}
			b.ReportMetric(r1, "task1-eff-bits-hz")
			b.ReportMetric(r2, "task2-eff-bits-hz")
			b.ReportMetric(math.Min(r1, r2), "min-task-eff-bits-hz")
		})
	}
}

// --- engine: cached ray-trace contexts + parallel evaluation ---

// engineHeatmapFixture builds the shared workload: a 24x24 panel on the
// east wall and a dense evaluation grid in the target room.
type engineBenchFixture struct {
	serial, parallel *surfos.Engine
	spec             engine.Spec
	tx               geom.Vec3
	pts              []geom.Vec3
	budget           rfsim.LinkBudget
	cfg              surface.Config
}

func engineHeatmapFixture(b *testing.B) engineBenchFixture {
	b.Helper()
	apt := scene.NewApartment()
	pitch := em.Wavelength(em.Band24G) / 2
	s, err := surface.New("bench-eng", apt.Mounts[scene.MountEastWall].Panel(24*pitch+0.02, 24*pitch+0.02),
		surface.Layout{Rows: 24, Cols: 24, PitchU: pitch, PitchV: pitch}, surface.Reflective, em.CosinePattern{Q: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	spec := engine.Spec{Scene: apt.Scene, FreqHz: em.Band24G, Surfaces: []*surface.Surface{s}}
	pts := apt.Regions[scene.RegionTargetRoom].GridPoints(0.25, scene.EvalHeight)
	budget := rfsim.LinkBudget{TxPowerDBm: 10, AntennaGainDB: 5, NoiseFigureDB: 7, BandwidthHz: 400e6}
	n := s.Layout.Rows * s.Layout.Cols
	cfg := surface.Config{Property: surface.Phase, Values: make([]float64, n)}
	for i := range cfg.Values {
		cfg.Values[i] = float64(i%5) * math.Pi / 4
	}
	return engineBenchFixture{
		serial:   surfos.NewEngine(surfos.EngineOptions{Workers: 1}),
		parallel: surfos.NewEngine(surfos.EngineOptions{}),
		spec:     spec,
		tx:       apt.AP,
		pts:      pts,
		budget:   budget,
		cfg:      cfg,
	}
}

// engineHeatmap traces once (cache-warm, matching steady-state use) and
// evaluates the full grid per iteration.
func engineHeatmap(b *testing.B, eng *surfos.Engine, fx engineBenchFixture) float64 {
	b.Helper()
	ctx := context.Background()
	chans, err := eng.Channels(ctx, fx.spec, fx.tx, fx.pts)
	if err != nil {
		b.Fatal(err)
	}
	snrs := make([]float64, len(chans))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := eng.ForEach(ctx, len(chans), func(j int) {
			h, err := chans[j].Eval([]surface.Config{fx.cfg})
			if err == nil {
				snrs[j] = fx.budget.SNRdB(h)
			}
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	return rfsim.Median(snrs)
}

func BenchmarkEngineHeatmapSerial(b *testing.B) {
	fx := engineHeatmapFixture(b)
	med := engineHeatmap(b, fx.serial, fx)
	b.ReportMetric(med, "medianSNRdB")
	b.ReportMetric(float64(len(fx.pts)), "gridpts")
}

func BenchmarkEngineHeatmapParallel(b *testing.B) {
	fx := engineHeatmapFixture(b)
	med := engineHeatmap(b, fx.parallel, fx)
	b.ReportMetric(med, "medianSNRdB")
	b.ReportMetric(float64(len(fx.pts)), "gridpts")
	b.ReportMetric(float64(fx.parallel.Workers()), "workers")
}

// BenchmarkEngineTxTrace prices the uncached image-method trace the cache
// elides; BenchmarkEngineTxCacheHit is the steady-state lookup.
func BenchmarkEngineTxTrace(b *testing.B) {
	fx := engineHeatmapFixture(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.parallel.Invalidate()
		if _, err := fx.parallel.Tx(ctx, fx.spec, fx.tx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineTxCacheHit(b *testing.B) {
	fx := engineHeatmapFixture(b)
	ctx := context.Background()
	if _, err := fx.parallel.Tx(ctx, fx.spec, fx.tx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fx.parallel.Tx(ctx, fx.spec, fx.tx); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := fx.parallel.CacheStats()
	b.ReportMetric(float64(st.TxHits), "hits")
}

// --- orchestrator scheduler ---

// benchmarkReconcile prices one full scheduler pass (group, pick strategy,
// optimize, commit) over n link tasks sharing one band. A private engine
// isolates the trace cache; the warm-up pass fills it, so steady-state
// iterations measure scheduling + optimization, not ray tracing. want is
// the multiplexing strategy n tasks on two panels must land on, so each
// size keeps pricing the path it is named for.
func benchmarkReconcile(b *testing.B, n int, want string) {
	apt := surfos.NewApartment()
	hw := surfos.NewHardware()
	for i, mount := range []string{surfos.MountEastWall, surfos.MountNorthWall} {
		if _, err := surfos.Deploy(hw, fmt.Sprintf("s%d", i), surfos.ModelNRSurface, apt.Mounts[mount], 24, 24); err != nil {
			b.Fatal(err)
		}
	}
	if err := hw.AddAP(&surfos.AccessPoint{ID: "ap0", Pos: apt.AP, FreqHz: 24e9, Budget: surfos.DefaultBudget(), Antennas: 4}); err != nil {
		b.Fatal(err)
	}
	orch, err := surfos.NewOrchestrator(apt.Scene, hw, surfos.Options{
		OptIters: 40,
		Engine:   surfos.NewEngine(surfos.EngineOptions{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < n; i++ {
		pos := surfos.V(1.2+float64(i%4)*1.3, 4.6+float64(i/4%4)*0.6, 1.2)
		if _, err := orch.EnhanceLink(ctx, surfos.LinkGoal{Endpoint: fmt.Sprintf("ep%d", i), Pos: pos}, 1+i%3); err != nil {
			b.Fatal(err)
		}
	}
	if err := orch.Reconcile(ctx); err != nil {
		b.Fatal(err)
	}
	running := 0
	for _, t := range orch.Tasks() {
		if t.State == surfos.TaskStateRunning {
			running++
		}
	}
	b.ReportMetric(float64(running), "running-tasks")
	for _, p := range orch.Plans() {
		if p.Strategy != want {
			b.Fatalf("%d tasks planned %s, want %s", n, p.Strategy, want)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := orch.Reconcile(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconcile(b *testing.B) {
	// Two panels: 1 task is solo, 3 share one jointly optimized
	// configuration (the paper's §4 multitasking), 4 and up rotate TDM.
	for _, c := range []struct {
		n    int
		want string
	}{{1, "solo"}, {3, "joint"}, {4, "tdm"}, {16, "tdm"}} {
		b.Run(fmt.Sprintf("tasks=%d", c.n), func(b *testing.B) { benchmarkReconcile(b, c.n, c.want) })
	}
	// Multi-room scale: the same pass over an 8-panel 4-room strip, one
	// shard per room (interference domain).
	for _, n := range []int{64, 256} {
		b.Run(fmt.Sprintf("rooms=4/tasks=%d/sharded", n), func(b *testing.B) { benchmarkReconcileRooms(b, 4, n) })
	}
	// The loop benchmark's dominant op: one of a room's 16 residents moves
	// and its room is re-planned.
	b.Run("rooms=4/move", benchmarkMoveRooms)
}

// benchmarkReconcileRooms prices one scheduler pass over n link tasks
// spread evenly across a rooms-room strip with two 16x16 panels per room.
// The rooms are separated by doorless concrete dividers, so each is its
// own interference domain: each room's group sees only its own two
// panels, making per-task cost independent of how many rooms the building
// has.
func benchmarkReconcileRooms(b *testing.B, rooms, n int) {
	orch, _ := roomsRig(b, rooms, n)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := orch.Reconcile(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkMoveRooms prices a move: 64 link tasks over the 4-room strip,
// and each iteration steps one of room 0's 16 residents 30 cm (staying in
// the room, so no handoff) and re-plans its room with ReconcileTask.
func benchmarkMoveRooms(b *testing.B) {
	orch, tasks := roomsRig(b, 4, 64)
	ctx := context.Background()
	id := tasks[0].ID
	home := surfos.V(1.2, 1.4, 1.2) // roomsRig's first position
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := home
		if i%2 == 0 {
			pos = pos.Add(surfos.V(0.3, 0, 0))
		}
		res, err := orch.MoveTask(id, pos)
		if err != nil {
			b.Fatal(err)
		}
		if res.HandedOff {
			b.Fatal("the move left the room")
		}
		if err := orch.ReconcileTask(ctx, id); err != nil {
			b.Fatal(err)
		}
	}
}

// roomsRig builds the rooms-room strip, submits n link tasks spread evenly
// across it and runs the first reconcile, which fills the trace caches.
func roomsRig(b *testing.B, rooms, n int) (*surfos.Orchestrator, []*surfos.Task) {
	strip := scene.NewRoomStrip(rooms)
	hw := surfos.NewHardware()
	for i := 0; i < rooms; i++ {
		for j, mnt := range []string{scene.RoomMountEast(i), scene.RoomMountNorth(i)} {
			id := fmt.Sprintf("r%d-%d", i, j)
			if _, err := surfos.Deploy(hw, id, surfos.ModelNRSurface, strip.Mounts[mnt], 16, 16); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := hw.AddAP(&surfos.AccessPoint{ID: "ap0", Pos: strip.AP, FreqHz: 24e9, Budget: surfos.DefaultBudget(), Antennas: 4}); err != nil {
		b.Fatal(err)
	}
	orch, err := surfos.NewOrchestrator(strip.Scene, hw, surfos.Options{
		OptIters: 40,
		GridStep: 1.5,
		Engine:   surfos.NewEngine(surfos.EngineOptions{}),
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	tasks := make([]*surfos.Task, n)
	for i := range tasks {
		room := i % rooms
		pos := surfos.V(
			scene.RoomW*float64(room)+1.2+0.5*float64((i/rooms)%6),
			1.4+0.4*float64((i/(rooms*6))%6),
			1.2)
		if tasks[i], err = orch.EnhanceLink(ctx, surfos.LinkGoal{Endpoint: fmt.Sprintf("ep%d", i), Pos: pos}, 1+i%3); err != nil {
			b.Fatal(err)
		}
	}
	if err := orch.Reconcile(ctx); err != nil {
		b.Fatal(err)
	}
	running := 0
	for _, t := range orch.Tasks() {
		if t.State == surfos.TaskStateRunning {
			running++
		}
	}
	b.ReportMetric(float64(running), "running-tasks")
	b.ReportMetric(float64(len(orch.ShardStats())), "shards")
	return orch, tasks
}
