package rfsim

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"surfos/internal/em"
	"surfos/internal/geom"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// emptyScene has no walls: pure free space.
func emptyScene() *scene.Scene { return scene.New("empty") }

func mkSurface(t *testing.T, name string, panel *geom.Quad, rows, cols int, mode surface.OpMode) *surface.Surface {
	t.Helper()
	pitch := em.Wavelength(em.Band24G) / 2
	s, err := surface.New(name, panel, surface.Layout{Rows: rows, Cols: cols, PitchU: pitch, PitchV: pitch}, mode, em.CosinePattern{Q: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFreeSpaceLoSMatchesFriis(t *testing.T) {
	sim, err := New(emptyScene(), em.Band24G)
	if err != nil {
		t.Fatal(err)
	}
	a, b := geom.V(0, 0, 1), geom.V(3, 4, 1) // distance 5
	h := EnvGain(sim.Scene, a, b, sim.FreqHz, sim.ReflOrder, nil)
	want := em.PropagationPhasor(5, em.Wavelength(em.Band24G))
	if cmplx.Abs(h-want) > 1e-15 {
		t.Errorf("LoS gain = %v, want %v", h, want)
	}
}

func TestSingleReflectionImageMethod(t *testing.T) {
	// Metal wall at y=2 spanning a large panel; endpoints at y=0.
	sc := scene.New("mirror")
	sc.AddWall("m", geom.RectXY(geom.V(-10, 2, -10), geom.V(1, 0, 0), geom.V(0, 0, 1), 20, 20), em.Metal)
	a, b := geom.V(-1, 0, 0), geom.V(1, 0, 0)

	paths := envPaths(sc, a, b, em.Band2G4, 1, nil)
	if len(paths) != 2 {
		t.Fatalf("got %d paths, want 2 (LoS + 1 bounce)", len(paths))
	}
	// Reflected path length: a→(0,2,0)→b = 2·√(1+4).
	wantLen := 2 * math.Sqrt(5)
	var refl *EnvPath
	for i := range paths {
		if len(paths[i].Walls) == 1 {
			refl = &paths[i]
		}
	}
	if refl == nil {
		t.Fatal("no reflected path found")
	}
	if math.Abs(refl.Length-wantLen) > 1e-9 {
		t.Errorf("reflected length = %v, want %v", refl.Length, wantLen)
	}
	wantGain := em.FSPLGain(wantLen, em.Wavelength(em.Band2G4)) * em.Metal.Reflection(em.Band2G4)
	if math.Abs(cmplx.Abs(refl.Gain)-wantGain) > 1e-12 {
		t.Errorf("reflected |gain| = %v, want %v", cmplx.Abs(refl.Gain), wantGain)
	}
}

func TestReflectionRequiresSameSide(t *testing.T) {
	sc := scene.New("mirror")
	sc.AddWall("m", geom.RectXY(geom.V(-10, 2, -10), geom.V(1, 0, 0), geom.V(0, 0, 1), 20, 20), em.Metal)
	// Endpoints on opposite sides: no specular bounce (only penetration LoS).
	paths := envPaths(sc, geom.V(0, 0, 0), geom.V(0, 4, 0), em.Band2G4, 1, nil)
	for _, p := range paths {
		if len(p.Walls) > 0 {
			t.Errorf("unexpected bounce path across the wall: %+v", p)
		}
	}
}

func TestTwoBouncePathCorridor(t *testing.T) {
	// Two parallel metal walls; a two-bounce path must exist.
	sc := scene.New("corridor")
	sc.AddWall("top", geom.RectXY(geom.V(-10, 1, -10), geom.V(1, 0, 0), geom.V(0, 0, 1), 20, 20), em.Metal)
	sc.AddWall("bot", geom.RectXY(geom.V(-10, -1, -10), geom.V(1, 0, 0), geom.V(0, 0, 1), 20, 20), em.Metal)
	paths := envPaths(sc, geom.V(-2, 0, 0), geom.V(2, 0, 0), em.Band2G4, 2, nil)
	var n2 int
	for _, p := range paths {
		if len(p.Walls) == 2 {
			n2++
			// Two-bounce path is longer than LoS.
			if p.Length <= 4 {
				t.Errorf("2-bounce length %v should exceed LoS 4", p.Length)
			}
		}
	}
	if n2 < 2 {
		t.Errorf("got %d two-bounce paths, want >= 2 (up-down and down-up)", n2)
	}
}

func TestSteeredSurfaceCoherentGain(t *testing.T) {
	// A reflective surface steered from src to dst must achieve
	// |h_surf| = Σ_k |c_k| (perfect coherent combining), and that value
	// must match the physical-optics aperture estimate.
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 16, 16, surface.Reflective)
	sim, err := New(emptyScene(), em.Band24G, s)
	if err != nil {
		t.Fatal(err)
	}
	src := geom.V(-1, 3, 1.2) // front side (+y)
	dst := geom.V(1.5, 2, 1.0)

	tc := sim.NewTx(src)
	ch := tc.Channel(dst)

	cfg := s.SteeringConfig(src, dst, em.Band24G)
	h, err := ch.Eval([]surface.Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	hs := h - ch.Direct

	var coherent float64
	for _, c := range ch.Single[0] {
		coherent += cmplx.Abs(c)
	}
	if math.Abs(cmplx.Abs(hs)-coherent) > 1e-9*coherent {
		t.Errorf("steered |h_surf| = %v, want coherent sum %v", cmplx.Abs(hs), coherent)
	}

	// Off config (flat mirror) must combine far worse than steering for an
	// off-specular receiver.
	hOff, err := ch.Eval([]surface.Config{s.Off()})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(hOff-ch.Direct) > 0.9*coherent {
		t.Errorf("unsteered surface nearly coherent: %v vs %v", cmplx.Abs(hOff-ch.Direct), coherent)
	}

	// Order-of-magnitude physical check: coherent gain ≈ A·cosθ/(4π d1 d2).
	d1 := src.Dist(panel.Center())
	d2 := dst.Dist(panel.Center())
	approx := s.AreaM2() / (4 * math.Pi * d1 * d2) // cos factors ≤ 1
	if coherent > approx || coherent < approx/10 {
		t.Errorf("coherent gain %v implausible vs aperture bound %v", coherent, approx)
	}
}

func TestReflectiveSurfaceIgnoresBackside(t *testing.T) {
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 4, 4, surface.Reflective)
	sim, _ := New(emptyScene(), em.Band24G, s)

	// Tx on the back side (-y): no incident coupling.
	tc := sim.NewTx(geom.V(0, -3, 1))
	ch := tc.Channel(geom.V(1, 2, 1))
	for k, c := range ch.Single[0] {
		if c != 0 {
			t.Fatalf("backside tx coupled through element %d: %v", k, c)
		}
	}
	// Rx on the back side: no radiated coupling.
	tc2 := sim.NewTx(geom.V(0, 3, 1))
	ch2 := tc2.Channel(geom.V(0, -2, 1))
	for k, c := range ch2.Single[0] {
		if c != 0 {
			t.Fatalf("backside rx coupled through element %d: %v", k, c)
		}
	}
}

func TestTransmissiveSurfacePassesThrough(t *testing.T) {
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 4, 4, surface.Transmissive)
	sim, _ := New(emptyScene(), em.Band24G, s)

	tc := sim.NewTx(geom.V(0, -3, 1)) // behind
	ch := tc.Channel(geom.V(0, 3, 1)) // in front
	var any bool
	for _, c := range ch.Single[0] {
		if c != 0 {
			any = true
		}
	}
	if !any {
		t.Error("transmissive surface did not couple through")
	}
}

func TestOcclusionBlocksSurfacePath(t *testing.T) {
	// Metal screen between tx and the surface kills the surface path.
	sc := scene.New("blocked")
	sc.AddWall("screen", geom.RectXY(geom.V(-5, 1.5, -5), geom.V(1, 0, 0), geom.V(0, 0, 1), 10, 10), em.Metal)
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 4, 4, surface.Reflective)
	sim, _ := New(sc, em.Band24G, s)

	tc := sim.NewTx(geom.V(0, 3, 1)) // beyond the screen from the surface
	ch := tc.Channel(geom.V(1, 1, 1))
	for k, c := range ch.Single[0] {
		if c != 0 {
			t.Fatalf("blocked element %d still coupled: %v", k, c)
		}
	}
}

func TestPerElementOcclusionMatchesCenterWhenUniform(t *testing.T) {
	// In an empty scene both occlusion modes are identical.
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 4, 4, surface.Reflective)

	simA, _ := New(emptyScene(), em.Band24G, s)
	simB, _ := New(emptyScene(), em.Band24G, s)
	simB.PerElementOcclusion = true

	src, dst := geom.V(-1, 3, 1.2), geom.V(1.5, 2, 1.0)
	chA := simA.NewTx(src).Channel(dst)
	chB := simB.NewTx(src).Channel(dst)
	for k := range chA.Single[0] {
		if cmplx.Abs(chA.Single[0][k]-chB.Single[0][k]) > 1e-18 {
			t.Fatalf("occlusion modes disagree at element %d", k)
		}
	}
}

func twoSurfaceSim(t *testing.T) (*Simulator, *surface.Surface, *surface.Surface) {
	t.Helper()
	// Two small reflective surfaces facing each other obliquely.
	pa := geom.RectXY(geom.V(0.1, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.2, 0.2) // faces +y
	pb := geom.RectXY(geom.V(2, 2.1, 1), geom.V(0, -1, 0), geom.V(0, 0, 1), 0.2, 0.2) // faces -x? check below
	// pb: origin (2,2.1,1), u=(0,-1,0), v=(0,0,1) → normal = u×v = (-1,0,0): faces -x. Good.
	a := mkSurface(t, "a", pa, 3, 3, surface.Reflective)
	b := mkSurface(t, "b", pb, 3, 3, surface.Reflective)
	sim, err := New(emptyScene(), em.Band24G, a, b)
	if err != nil {
		t.Fatal(err)
	}
	sim.Cascade = true
	return sim, a, b
}

func TestCascadeBlocksExist(t *testing.T) {
	sim, _, _ := twoSurfaceSim(t)
	tc := sim.NewTx(geom.V(-1, 1, 1))
	ch := tc.Channel(geom.V(0.5, 3, 1))
	if len(ch.Cross) == 0 {
		t.Fatal("no cascade blocks between mutually visible surfaces")
	}
	var any bool
	for _, blk := range ch.Cross {
		for _, row := range blk.M {
			for _, c := range row {
				if c != 0 {
					any = true
				}
			}
		}
	}
	if !any {
		t.Error("cascade blocks are all zero")
	}
}

func randConfigs(r *rand.Rand, ch *Channel) []surface.Config {
	cfgs := make([]surface.Config, len(ch.Single))
	for s := range cfgs {
		vals := make([]float64, len(ch.Single[s]))
		for k := range vals {
			vals[k] = r.Float64() * 2 * math.Pi
		}
		cfgs[s] = surface.Config{Property: surface.Phase, Values: vals}
	}
	return cfgs
}

func TestPartialsMatchNumericalGradient(t *testing.T) {
	sim, _, _ := twoSurfaceSim(t)
	tc := sim.NewTx(geom.V(-1, 1, 1))
	ch := tc.Channel(geom.V(0.5, 3, 1))

	r := rand.New(rand.NewSource(42))
	cfgs := randConfigs(r, ch)
	x, err := ch.Phasors(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	got := ch.Partials(x)

	const eps = 1e-6
	for s := range cfgs {
		for k := range cfgs[s].Values {
			plus := cfgs[s].Clone()
			minus := cfgs[s].Clone()
			plus.Values[k] += eps
			minus.Values[k] -= eps
			cp := append([]surface.Config{}, cfgs...)
			cp[s] = plus
			hp, _ := ch.Eval(cp)
			cp[s] = minus
			hm, _ := ch.Eval(cp)
			num := (hp - hm) / complex(2*eps, 0)
			if cmplx.Abs(num-got[s][k]) > 1e-6*(1+cmplx.Abs(num)) {
				t.Fatalf("partial s=%d k=%d: analytic %v numeric %v", s, k, got[s][k], num)
			}
		}
	}
}

// Freezing a surface is reducing the channel with a held map on it; a
// surface out of range or a held map of the wrong size is rejected.
func TestFreezeErrors(t *testing.T) {
	ch := &Channel{Single: [][]complex128{{1, 2}}}
	mustPanic := func(what string, maps []ControlMap) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", what)
			}
		}()
		ch.Reduce(maps)
	}
	mustPanic("out-of-range freeze", []ControlMap{heldMap([]float64{0, 0}), heldMap([]float64{0, 0})})
	mustPanic("wrong-size freeze", []ControlMap{heldMap([]float64{1})})
	if got := ch.Reduce([]ControlMap{heldMap([]float64{0, math.Pi})}); len(got.Single[0]) != 0 || cmplx.Abs(got.Direct-(1-2)) > 1e-12 {
		t.Errorf("frozen channel = %+v, want Direct -1 and no lines", got)
	}
}

func TestEvalErrors(t *testing.T) {
	ch := &Channel{Single: [][]complex128{{1, 2}}}
	if _, err := ch.Eval(nil); err == nil {
		t.Error("wrong config count accepted")
	}
	if _, err := ch.Eval([]surface.Config{{Property: surface.Amplitude, Values: []float64{0, 0}}}); err == nil {
		t.Error("non-phase property accepted")
	}
	if _, err := ch.Eval([]surface.Config{{Property: surface.Phase, Values: []float64{0}}}); err == nil {
		t.Error("wrong value count accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, em.Band24G); err == nil {
		t.Error("nil scene accepted")
	}
	if _, err := New(emptyScene(), -1); err == nil {
		t.Error("negative frequency accepted")
	}
	if _, err := New(emptyScene(), em.Band24G, nil); err == nil {
		t.Error("nil surface accepted")
	}
}

func TestLinkBudget(t *testing.T) {
	lb := LinkBudget{TxPowerDBm: 10, AntennaGainDB: 20, NoiseFigureDB: 7, BandwidthHz: 400e6}
	// Noise: -174 + 10log10(4e8) ≈ -87.98, +7 NF → -80.98.
	if got := lb.NoiseFloorDBm(); math.Abs(got+80.98) > 0.01 {
		t.Errorf("noise floor = %v", got)
	}
	h := complex(1e-5, 0) // -100 dB
	if got := lb.RxPowerDBm(h); math.Abs(got-(10+20-100)) > 1e-9 {
		t.Errorf("rx power = %v", got)
	}
	if got := lb.SNRdB(h); math.Abs(got-(-70+80.98)) > 0.01 {
		t.Errorf("snr = %v", got)
	}
	if lb.CapacityBps(h) <= 0 {
		t.Error("capacity should be positive at positive SNR")
	}
}

func TestMedianCDFPercentile(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	if got := Median(vals); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("empty median should be NaN")
	}
	if got := Median([]float64{math.NaN(), 7}); got != 7 {
		t.Errorf("median with NaN = %v, want 7", got)
	}

	xs, fr := CDF([]float64{3, 1, 2})
	if xs[0] != 1 || xs[2] != 3 {
		t.Errorf("cdf xs = %v", xs)
	}
	if fr[2] != 1 || math.Abs(fr[0]-1.0/3) > 1e-12 {
		t.Errorf("cdf fracs = %v", fr)
	}

	if got := Percentile(vals, 50); got != 3 {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(vals, 0); got != 1 {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(vals, 100); got != 5 {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(vals, 25); got != 2 {
		t.Errorf("p25 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
}

func TestSNRGrid(t *testing.T) {
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 8, 8, surface.Reflective)
	sim, _ := New(emptyScene(), em.Band24G, s)
	tc := sim.NewTx(geom.V(-1, 3, 1.2))
	pts := []geom.Vec3{geom.V(1, 2, 1), geom.V(1.5, 2.5, 1)}
	cfg := s.SteeringConfig(geom.V(-1, 3, 1.2), pts[0], em.Band24G)
	snrs, err := SNRGrid(tc, pts, []surface.Config{cfg}, DefaultBudget())
	if err != nil {
		t.Fatal(err)
	}
	if len(snrs) != 2 {
		t.Fatalf("got %d snrs", len(snrs))
	}
	// The steered point should beat the unsteered one.
	if snrs[0] <= snrs[1] {
		t.Errorf("steered SNR %v not above other point %v", snrs[0], snrs[1])
	}
}

func TestConeBeamPattern(t *testing.T) {
	beam := ConeBeam(geom.V(1, 0, 0), 10*math.Pi/180, 20, -5)
	// Boresight gets the main amplitude (20 dB power = 10x amplitude).
	if got := beam(geom.V(5, 0, 0)); math.Abs(got-10) > 1e-9 {
		t.Errorf("boresight amp = %v, want 10", got)
	}
	// Just inside the cone.
	in := geom.V(math.Cos(9*math.Pi/180), math.Sin(9*math.Pi/180), 0)
	if got := beam(in); math.Abs(got-10) > 1e-9 {
		t.Errorf("in-cone amp = %v", got)
	}
	// Outside the cone: side amplitude (-5 dB power ≈ 0.562 amplitude).
	out := geom.V(0, 1, 0)
	if got := beam(out); math.Abs(got-math.Sqrt(em.FromDB(-5))) > 1e-9 {
		t.Errorf("side amp = %v", got)
	}
}

func TestTxPatternScalesSurfaceAndEnvPaths(t *testing.T) {
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 4, 4, surface.Reflective)

	iso, _ := New(emptyScene(), em.Band24G, s)
	beamed, _ := New(emptyScene(), em.Band24G, s)
	tx := geom.V(0, 3, 1.2)
	// Beam straight at the panel: all elements within the cone.
	beamed.TxPattern = ConeBeam(panel.Center().Sub(tx), 30*math.Pi/180, 20, -40)

	rx := geom.V(1.5, 2, 1.0)
	chI := iso.NewTx(tx).Channel(rx)
	chB := beamed.NewTx(tx).Channel(rx)

	// Surface coefficients scale by the main-lobe amplitude (10x).
	for k := range chI.Single[0] {
		if chI.Single[0][k] == 0 {
			continue
		}
		ratio := cmplx.Abs(chB.Single[0][k]) / cmplx.Abs(chI.Single[0][k])
		if math.Abs(ratio-10) > 1e-6 {
			t.Fatalf("element %d beam ratio %v, want 10", k, ratio)
		}
	}
	// The rx sits off the beam: the LoS env path is attenuated, not boosted.
	if cmplx.Abs(chB.Direct) >= cmplx.Abs(chI.Direct) {
		t.Errorf("off-beam direct %v not attenuated vs %v", cmplx.Abs(chB.Direct), cmplx.Abs(chI.Direct))
	}
}

func TestEnvPathFirstHit(t *testing.T) {
	sc := scene.New("mirror")
	sc.AddWall("m", geom.RectXY(geom.V(-10, 2, -10), geom.V(1, 0, 0), geom.V(0, 0, 1), 20, 20), em.Metal)
	a, b := geom.V(-1, 0, 0), geom.V(1, 0, 0)
	for _, p := range envPaths(sc, a, b, em.Band2G4, 1, nil) {
		if len(p.Walls) == 0 {
			if p.FirstHit != b {
				t.Errorf("LoS first hit = %v, want %v", p.FirstHit, b)
			}
		} else {
			// The bounce point lies on the wall plane y=2.
			if math.Abs(p.FirstHit.Y-2) > 1e-9 {
				t.Errorf("bounce first hit = %v, want on y=2", p.FirstHit)
			}
		}
	}
}

func TestPerElementOcclusionPartialBlockage(t *testing.T) {
	// A narrow metal screen shadows only part of the panel: per-element
	// occlusion must zero exactly the shadowed elements while the
	// center-based approximation treats all elements alike.
	sc := scene.New("partial")
	// Screen in front of the panel's left half (x in [-0.25, 0]).
	sc.AddWall("screen", geom.RectXY(geom.V(-0.25, 1.0, 0), geom.V(1, 0, 0), geom.V(0, 0, 1), 0.25, 3), em.Metal)

	panel := geom.RectXY(geom.V(0.25, 0, 0.8), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.5, 0.4)
	s := mkSurface(t, "s", panel, 4, 8, surface.Reflective)

	sim, _ := New(sc, em.Band24G, s)
	sim.PerElementOcclusion = true
	tx := geom.V(0, 4, 1.0) // in front, far enough that rays to the left half cross the screen

	tc := sim.NewTx(tx)
	blocked, clear := 0, 0
	for _, c := range tc.IncidentCoeffs(0) {
		if c == 0 {
			blocked++
		} else {
			clear++
		}
	}
	if blocked == 0 || clear == 0 {
		t.Fatalf("expected a partial shadow: blocked=%d clear=%d", blocked, clear)
	}

	// The center-based approximation gives all-or-nothing.
	simC, _ := New(sc, em.Band24G, s)
	tcC := simC.NewTx(tx)
	zero := 0
	for _, c := range tcC.IncidentCoeffs(0) {
		if c == 0 {
			zero++
		}
	}
	if zero != 0 && zero != s.NumElements() {
		t.Errorf("center occlusion should be uniform, got %d/%d zero", zero, s.NumElements())
	}
}

func TestElementEfficiencyScalesCoefficients(t *testing.T) {
	panel := geom.RectXY(geom.V(0.2, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.4, 0.4)
	s := mkSurface(t, "s", panel, 4, 4, surface.Reflective)
	simFull, _ := New(emptyScene(), em.Band24G, s)
	simHalf, _ := New(emptyScene(), em.Band24G, s)
	simHalf.ElementEfficiency = 0.5

	src, dst := geom.V(-1, 3, 1.2), geom.V(1.5, 2, 1.0)
	cf := simFull.NewTx(src).Channel(dst)
	ch := simHalf.NewTx(src).Channel(dst)
	for k := range cf.Single[0] {
		if cf.Single[0][k] == 0 {
			continue
		}
		ratio := cmplx.Abs(ch.Single[0][k]) / cmplx.Abs(cf.Single[0][k])
		if math.Abs(ratio-0.5) > 1e-9 {
			t.Fatalf("element %d efficiency ratio %v, want 0.5", k, ratio)
		}
	}
	// The environment path is not a surface interaction: unscaled.
	if cmplx.Abs(ch.Direct-cf.Direct) > 1e-18 {
		t.Error("efficiency scaled the environment path")
	}
}
