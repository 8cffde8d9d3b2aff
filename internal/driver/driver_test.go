package driver

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"surfos/internal/geom"
	"surfos/internal/surface"
)

func testSurface(t *testing.T, mode surface.OpMode, rows, cols int) *surface.Surface {
	t.Helper()
	panel := geom.RectXY(geom.V(0, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 0.5, 0.5)
	s, err := surface.New("panel", panel,
		surface.Layout{Rows: rows, Cols: cols, PitchU: 0.00625, PitchV: 0.00625}, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSpec(t *testing.T, model string) Spec {
	t.Helper()
	s, err := Lookup(model)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCatalogCoversTable1(t *testing.T) {
	cat := Catalog()
	if len(cat) != 13 {
		t.Fatalf("catalog has %d designs, want the 13 of Table 1", len(cat))
	}
	for _, s := range cat {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Model, err)
		}
		if s.Response == nil {
			t.Errorf("%s: missing wideband response", s.Model)
		}
	}
	// Sorted by band.
	for i := 1; i < len(cat); i++ {
		if cat[i].FreqLowHz < cat[i-1].FreqLowHz {
			t.Errorf("catalog not sorted: %s before %s", cat[i-1].Model, cat[i].Model)
		}
	}
}

func TestCatalogKeyProperties(t *testing.T) {
	checks := []struct {
		model  string
		reconf bool
		mode   surface.OpMode
		gran   surface.Granularity
		ctrl   surface.ControlProperty
	}{
		{ModelLAIA, true, surface.Transmissive, surface.ElementWise, surface.Phase},
		{ModelRFocus, true, surface.Transflective, surface.ElementWise, surface.Amplitude},
		{ModelLLAMA, true, surface.Transflective, surface.ElementWise, surface.Polarization},
		{ModelScrolls, true, surface.Reflective, surface.RowWise, surface.Frequency},
		{ModelMMWall, true, surface.Transflective, surface.ColumnWise, surface.Phase},
		{ModelNRSurface, true, surface.Reflective, surface.ColumnWise, surface.Phase},
		{ModelDiffract, false, surface.Transmissive, surface.FixedPattern, surface.Diffraction},
		{ModelMilliMirror, false, surface.Reflective, surface.FixedPattern, surface.Phase},
		{ModelAutoMS, false, surface.Reflective, surface.FixedPattern, surface.Phase},
	}
	for _, c := range checks {
		s := mustSpec(t, c.model)
		if s.Reconfigurable != c.reconf || s.OpMode != c.mode || s.Granularity != c.gran || s.Control != c.ctrl {
			t.Errorf("%s spec mismatch: %+v", c.model, s)
		}
	}
	// Cost ordering: programmable mmWave >> passive mmWave per element
	// (paper: >$2/element vs $1 for 60k elements).
	if mustSpec(t, ModelNRSurface).CostPerElementUSD <= 2 {
		t.Error("NR-Surface should cost > $2/element")
	}
	if mustSpec(t, ModelAutoMS).CostUSD(60000) > 3 {
		t.Errorf("AutoMS 60k elements cost %v, want ≈$1-2", mustSpec(t, ModelAutoMS).CostUSD(60000))
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestRegisterValidation(t *testing.T) {
	bad := Spec{Model: ""}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("invalid spec registration did not panic")
			}
		}()
		Register(bad)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		Register(mustSpec(t, ModelLAIA))
	}()
}

func TestSpecValidate(t *testing.T) {
	ok := mustSpec(t, ModelMMWall)
	cases := []func(*Spec){
		func(s *Spec) { s.FreqLowHz = -1 },
		func(s *Spec) { s.FreqHighHz = s.FreqLowHz / 2 },
		func(s *Spec) { s.PhaseBits = -1 },
		func(s *Spec) { s.ElementEfficiency = 2 },
		func(s *Spec) { s.Reconfigurable = false }, // granularity stays column-wise
		func(s *Spec) { s.CostPerElementUSD = -5 },
	}
	for i, mutate := range cases {
		s := ok
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestSupportsFreqAndCost(t *testing.T) {
	s := mustSpec(t, ModelScrolls)
	if !s.SupportsFreq(2.4e9) || !s.SupportsFreq(0.9e9) || !s.SupportsFreq(6.0e9) {
		t.Error("Scrolls should span 0.9-6 GHz")
	}
	if s.SupportsFreq(24e9) {
		t.Error("Scrolls should not support 24 GHz")
	}
	if got := s.CostUSD(100); math.Abs(got-(s.FixedCostUSD+100*s.CostPerElementUSD)) > 1e-9 {
		t.Errorf("cost = %v", got)
	}
}

func TestNewDriverModeMismatch(t *testing.T) {
	spec := mustSpec(t, ModelNRSurface) // reflective
	surfT := testSurface(t, surface.Transmissive, 4, 4)
	if _, err := New(spec, surfT); err == nil {
		t.Error("mode mismatch accepted")
	}
	// Transflective designs accept either placement.
	wall := mustSpec(t, ModelMMWall)
	if _, err := New(wall, surfT); err != nil {
		t.Errorf("transflective design rejected transmissive surface: %v", err)
	}
	if _, err := New(spec, nil); err == nil {
		t.Error("nil surface accepted")
	}
}

func TestShiftPhaseQuantizesAndProjects(t *testing.T) {
	spec := mustSpec(t, ModelNRSurface) // column-wise, 2-bit
	s := testSurface(t, surface.Reflective, 2, 3)
	d, err := New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := surface.Config{Property: surface.Phase, Values: []float64{
		0.1, 1.7, 3.2,
		0.2, 1.5, 3.1,
	}}
	if err := d.ShiftPhase(cfg); err != nil {
		t.Fatal(err)
	}
	act, label, ok := d.Active()
	if !ok || label != "active" {
		t.Fatal("no active config after ShiftPhase")
	}
	step := math.Pi / 2 // 2-bit states
	for col := 0; col < 3; col++ {
		v0, v1 := act.Values[col], act.Values[3+col]
		if v0 != v1 {
			t.Errorf("column %d not shared: %v vs %v", col, v0, v1)
		}
		snapped := math.Round(v0/step) * step
		if math.Abs(v0-snapped) > 1e-9 && math.Abs(v0-snapped-2*math.Pi) > 1e-9 {
			t.Errorf("column %d value %v not on 2-bit grid", col, v0)
		}
	}
	if d.Updates() != 1 {
		t.Errorf("updates = %d", d.Updates())
	}
}

func TestShiftPhaseWrongProperty(t *testing.T) {
	d, _ := New(mustSpec(t, ModelNRSurface), testSurface(t, surface.Reflective, 2, 2))
	if err := d.ShiftPhase(surface.Config{Property: surface.Amplitude, Values: make([]float64, 4)}); err == nil {
		t.Error("amplitude config accepted by ShiftPhase")
	}
	// RFocus controls amplitude: phase rejected with ErrUnsupportedProperty.
	rf, _ := New(mustSpec(t, ModelRFocus), testSurface(t, surface.Reflective, 2, 2))
	err := rf.ShiftPhase(surface.Config{Property: surface.Phase, Values: make([]float64, 4)})
	if !errors.Is(err, ErrUnsupportedProperty) {
		t.Errorf("got %v, want ErrUnsupportedProperty", err)
	}
}

func TestSetAmplitude(t *testing.T) {
	rf, _ := New(mustSpec(t, ModelRFocus), testSurface(t, surface.Reflective, 2, 2))
	if err := rf.SetAmplitude(surface.Config{Property: surface.Amplitude, Values: []float64{0, 1, 0.5, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := rf.SetAmplitude(surface.Config{Property: surface.Phase, Values: make([]float64, 4)}); err == nil {
		t.Error("phase config accepted by SetAmplitude")
	}
}

func TestPassiveOneTimeProgrammable(t *testing.T) {
	spec := mustSpec(t, ModelAutoMS)
	s := testSurface(t, surface.Reflective, 3, 3)
	d, err := New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	cfg := surface.Config{Property: surface.Phase, Values: make([]float64, 9)}
	if err := d.ShiftPhase(cfg); err != nil {
		t.Fatalf("fabrication write rejected: %v", err)
	}
	if err := d.ShiftPhase(cfg); !errors.Is(err, ErrFixed) {
		t.Errorf("second write: got %v, want ErrFixed", err)
	}
	if err := d.StoreCodebook([]string{"x"}, []surface.Config{cfg}); !errors.Is(err, ErrFixed) {
		t.Errorf("post-fabrication codebook: got %v, want ErrFixed", err)
	}
}

func TestPassiveSingleSlot(t *testing.T) {
	d, _ := New(mustSpec(t, ModelMilliMirror), testSurface(t, surface.Reflective, 2, 2))
	cfgs := []surface.Config{
		{Property: surface.Phase, Values: make([]float64, 4)},
		{Property: surface.Phase, Values: make([]float64, 4)},
	}
	if err := d.StoreCodebook([]string{"a", "b"}, cfgs); !errors.Is(err, ErrCodebookFull) {
		t.Errorf("passive multi-entry codebook: got %v, want ErrCodebookFull", err)
	}
}

func TestCodebookStoreAndSelect(t *testing.T) {
	d, _ := New(mustSpec(t, ModelNRSurface), testSurface(t, surface.Reflective, 2, 2))
	mk := func(v float64) surface.Config {
		return surface.Config{Property: surface.Phase, Values: []float64{v, v, v, v}}
	}
	if err := d.StoreCodebook([]string{"beam0", "beam1", "beam2"},
		[]surface.Config{mk(0), mk(math.Pi / 2), mk(math.Pi)}); err != nil {
		t.Fatal(err)
	}
	if d.CodebookLen() != 3 {
		t.Fatalf("codebook len = %d", d.CodebookLen())
	}
	_, label, _ := d.Active()
	if label != "beam0" {
		t.Errorf("initial active = %q, want beam0", label)
	}
	if err := d.Select(2); err != nil {
		t.Fatal(err)
	}
	cfg, label, _ := d.Active()
	if label != "beam2" || math.Abs(cfg.Values[0]-math.Pi) > 1e-9 {
		t.Errorf("after select: %q %v", label, cfg.Values)
	}
	if err := d.Select(9); err == nil {
		t.Error("out-of-range select accepted")
	}
	// Mismatched labels.
	if err := d.StoreCodebook([]string{"only-one"}, []surface.Config{mk(0), mk(1)}); err == nil {
		t.Error("label/config mismatch accepted")
	}
}

func TestProjectorIdempotent(t *testing.T) {
	d, _ := New(mustSpec(t, ModelMMWall), testSurface(t, surface.Transmissive, 3, 4))
	in := surface.Config{Property: surface.Phase, Values: []float64{0.3, 1.1, 2.2, 3.3, 4.4, 5.5, 0.1, 0.9, 1.8, 2.7, 3.6, 4.5}}
	once := d.Project(in)
	twice := d.Project(once)
	for k := range once.Values {
		if math.Abs(once.Values[k]-twice.Values[k]) > 1e-9 {
			t.Fatalf("projector not idempotent at %d", k)
		}
	}
}

func TestActiveBeforeProgramming(t *testing.T) {
	d, _ := New(mustSpec(t, ModelNRSurface), testSurface(t, surface.Reflective, 2, 2))
	if _, _, ok := d.Active(); ok {
		t.Error("active config before any write")
	}
}

func TestWidebandResponseBlocksCrossBand(t *testing.T) {
	// The paper's §2.1 warning: a 2.4 GHz surface interferes with other
	// bands. Its panel response must show significant interaction at
	// 2.4 GHz and near-transparency far below the design band.
	s := mustSpec(t, ModelLAIA)
	if s.Response.Transmission(2.4e9) > 0.5 {
		t.Error("in-band panel should not be transparent")
	}
	if s.Response.Transmission(0.5e9) < 0.9 {
		t.Error("far-below-band panel should be nearly transparent")
	}
}

func TestDriverCost(t *testing.T) {
	s := testSurface(t, surface.Reflective, 10, 10)
	d, _ := New(mustSpec(t, ModelNRSurface), s)
	want := mustSpec(t, ModelNRSurface).CostUSD(100)
	if math.Abs(d.CostUSD()-want) > 1e-9 {
		t.Errorf("cost = %v, want %v", d.CostUSD(), want)
	}
}

func TestBiasProjection(t *testing.T) {
	d, _ := New(mustSpec(t, ModelNRSurface), testSurface(t, surface.Reflective, 2, 2))
	// Bias validation.
	if err := d.SetBias([]float64{1}); err == nil {
		t.Error("wrong-size bias accepted")
	}
	rf, _ := New(mustSpec(t, ModelRFocus), testSurface(t, surface.Reflective, 2, 2))
	if err := rf.SetBias(make([]float64, 4)); err == nil {
		t.Error("bias on amplitude design accepted")
	}
	// A vertical ramp bias: rows differ, columns identical.
	bias := []float64{0.3, 0.3, 1.7, 1.7}
	if err := d.SetBias(bias); err != nil {
		t.Fatal(err)
	}
	if err := d.SetBias(bias); err == nil {
		t.Error("double bias accepted")
	}
	// Projecting a config equal to the bias returns the bias itself
	// (the controllable part is zero → quantizes to zero).
	got := d.Project(surface.Config{Property: surface.Phase, Values: bias})
	for i := range bias {
		if math.Abs(got.Values[i]-bias[i]) > 1e-9 {
			t.Errorf("bias-aligned projection[%d] = %v, want %v", i, got.Values[i], bias[i])
		}
	}
	// Idempotence with bias.
	again := d.Project(got)
	for i := range again.Values {
		if math.Abs(again.Values[i]-got.Values[i]) > 1e-9 {
			t.Errorf("bias projection not idempotent at %d", i)
		}
	}
	// The realized config differs per row (bias preserved) even though the
	// design is column-wise: the row structure comes from fabrication.
	req := surface.Config{Property: surface.Phase, Values: []float64{0.3 + 1.0, 0.3 + 1.0, 1.7 + 1.0, 1.7 + 1.0}}
	proj := d.Project(req)
	if math.Abs(proj.Values[0]-proj.Values[2]) < 1e-9 {
		t.Error("bias rows collapsed by column projection")
	}
}

func TestBiasAfterFabricationRejected(t *testing.T) {
	d, _ := New(mustSpec(t, ModelNRSurface), testSurface(t, surface.Reflective, 2, 2))
	if err := d.ShiftPhase(surface.Config{Property: surface.Phase, Values: make([]float64, 4)}); err != nil {
		t.Fatal(err)
	}
	if err := d.SetBias(make([]float64, 4)); err == nil {
		t.Error("bias accepted after configuration")
	}
}

// sameBits reports whether two configurations hold the same float64 bits.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return false
		}
	}
	return true
}

// checkControlProject checks a driver's Realize against Project over its
// ControlMap, bit for bit: Realize(θ) is Project(Expand(θ)), also for θ on
// a half-step tie and at ±0. On a quantized panel it is also a fixed point
// of Project, which is what lets StoreCodebook store it without projecting
// it again.
func checkControlProject(t *testing.T, d *Driver, wantGroups int) {
	t.Helper()
	m := d.ControlMap()
	if m.Groups != wantGroups || len(m.Group) != d.Surface().NumElements() {
		t.Fatalf("control map has %d lines over %d elements, want %d over %d",
			m.Groups, len(m.Group), wantGroups, d.Surface().NumElements())
	}
	bits := d.Spec().PhaseBits
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		theta := make([]float64, m.Groups)
		for g := range theta {
			theta[g] = r.Float64()*4*math.Pi - math.Pi
			if bits > 0 && trial%2 == 1 {
				// Half-step ties, where a circular mean that is off by
				// one ulp rounds the other way.
				theta[g] = (float64(r.Intn(1<<bits)) + 0.5) * 2 * math.Pi / float64(int(1)<<bits)
			}
		}
		if trial%4 == 3 {
			theta[0] = math.Copysign(0, -1)
		}
		got := d.Realize(theta)
		want := d.Project(surface.Config{Property: surface.Phase, Values: m.Expand(theta)})
		if !sameBits(got.Values, want.Values) {
			t.Fatalf("θ=%v: Realize = %v, Project(Expand(θ)) = %v", theta, got.Values, want.Values)
		}
		if bits > 0 {
			if again := d.Project(got); !sameBits(again.Values, got.Values) {
				t.Fatalf("θ=%v: Project(Realize(θ)) = %v, not Realize(θ) = %v", theta, again.Values, got.Values)
			}
		}
	}
}

func TestControlMapProjectsToQuantizedLines(t *testing.T) {
	for _, tc := range []struct {
		model  string
		groups int
	}{
		{ModelScatterMIMO, 12}, // element-wise
		{ModelNRSurface, 4},    // column-wise
		{ModelScrolls, 3},      // row-wise
	} {
		t.Run(tc.model, func(t *testing.T) {
			spec := mustSpec(t, tc.model)
			d, err := New(spec, testSurface(t, spec.OpMode, 3, 4))
			if err != nil {
				t.Fatal(err)
			}
			checkControlProject(t, d, tc.groups)
			bias := make([]float64, 12)
			for k := range bias {
				bias[k] = 0.37 * float64(k)
			}
			if spec.Control == surface.Phase {
				if err := d.SetBias(bias); err != nil {
					t.Fatal(err)
				}
				if m := d.ControlMap(); m.Offset[5] != bias[5] {
					t.Fatalf("bias not in the control map: offset %v", m.Offset)
				}
				checkControlProject(t, d, tc.groups)
			}
		})
	}
}

// Stuck elements leave their line (Group -1) at their frozen phase, have no
// say in the line's projected value, and are pinned by Project.
func TestControlMapStuckElements(t *testing.T) {
	spec := mustSpec(t, ModelNRSurface)
	d, err := New(spec, testSurface(t, spec.OpMode, 3, 4))
	if err != nil {
		t.Fatal(err)
	}
	bias := make([]float64, 12)
	for k := range bias {
		bias[k] = 0.21 * float64(k)
	}
	if err := d.SetBias(bias); err != nil {
		t.Fatal(err)
	}
	fm := NewFaultModel(1)
	d.SetFaults(fm)
	fm.StickElement(1, 2.5) // column 1
	fm.StickElement(6, 0.5) // column 2
	m := d.ControlMap()
	for k, g := range m.Group {
		switch k {
		case 1, 6:
			if g != -1 {
				t.Errorf("stuck element %d drives line %d", k, g)
			}
		default:
			if g != k%4 {
				t.Errorf("element %d on line %d, want column %d", k, g, k%4)
			}
		}
	}
	if m.Offset[1] != 2.5 || m.Offset[6] != 0.5 || m.Offset[2] != bias[2] {
		t.Errorf("offsets %v: want frozen phases at 1 and 6, bias elsewhere", m.Offset)
	}
	checkControlProject(t, d, 4)

	// Unbiased, with stuck elements, on a column- and an element-wise panel.
	for _, tc := range []struct {
		model  string
		groups int
	}{{ModelNRSurface, 4}, {ModelScatterMIMO, 12}} {
		spec := mustSpec(t, tc.model)
		d, err := New(spec, testSurface(t, spec.OpMode, 3, 4))
		if err != nil {
			t.Fatal(err)
		}
		fm := NewFaultModel(1)
		d.SetFaults(fm)
		fm.StickElement(1, 2.5)
		fm.StickElement(6, 0.5)
		checkControlProject(t, d, tc.groups)
	}
}

// checkStoreCodebook stores random element configs and Realize outputs on
// every catalog model, optionally biased and with stuck elements, and
// checks that the stored entry is Project(cfg) bit for bit. A Realize
// output on an unbiased quantized phase panel must take the fast path
// (stored as is), and on a biased one be projected; the same output made
// non-realizable — one line off the grid, or one
// element of a shared line off its line's value — must not.
func checkStoreCodebook(t *testing.T, biased, stuck bool) {
	for _, spec := range Catalog() {
		t.Run(spec.Model, func(t *testing.T) {
			if biased && spec.Control != surface.Phase {
				t.Skip("bias applies to phase designs")
			}
			const rows, cols = 4, 6
			r := rand.New(rand.NewSource(faultSeed(1)))
			var bias []float64
			if biased {
				bias = make([]float64, rows*cols)
				for k := range bias {
					bias[k] = r.Float64()*4*math.Pi - 2*math.Pi
				}
			}
			frozen := map[int]float64{}
			if stuck {
				for len(frozen) < 3 {
					frozen[r.Intn(rows*cols)] = r.Float64() * 2 * math.Pi
				}
			}
			mk := func() *Driver {
				d, err := New(spec, testSurface(t, spec.OpMode, rows, cols))
				if err != nil {
					t.Fatal(err)
				}
				if bias != nil {
					if err := d.SetBias(bias); err != nil {
						t.Fatal(err)
					}
				}
				if stuck {
					fm := NewFaultModel(faultSeed(1))
					for k, v := range frozen {
						fm.StickElement(k, v)
					}
					d.SetFaults(fm)
				}
				return d
			}
			probe := mk()
			// store writes cfg to a fresh driver (a passive one takes one
			// write) and reports whether it took the fast path.
			store := func(cfg surface.Config) bool {
				t.Helper()
				d := mk()
				fast := d.realized(cfg, bias != nil, d.stuckMask())
				if err := d.StoreCodebook([]string{"e"}, []surface.Config{cfg}); err != nil {
					t.Fatal(err)
				}
				got, _, _ := d.Active()
				if want := d.Project(cfg); !sameBits(got.Values, want.Values) {
					t.Fatalf("stored %v, Project gives %v", got.Values, want.Values)
				}
				if fast && !sameBits(got.Values, cfg.Values) {
					t.Fatalf("fast path changed the entry: %v -> %v", cfg.Values, got.Values)
				}
				return fast
			}
			lineBased := spec.Control == surface.Phase && spec.PhaseBits > 0 && bias == nil
			// Negative zeros: a shared line projects them to +0.
			negZero := make([]float64, rows*cols)
			for k := range negZero {
				negZero[k] = math.Copysign(0, -1)
			}
			store(surface.Config{Property: spec.Control, Values: negZero})
			// One grid phase on every driven element, stuck ones frozen:
			// realizable unbiased, but a bias moves Project off it.
			if spec.Control == surface.Phase && spec.PhaseBits > 0 {
				grid := make([]float64, rows*cols)
				for k := range grid {
					grid[k] = 2 * math.Pi / float64(int(1)<<spec.PhaseBits)
					if v, ok := frozen[k]; ok {
						grid[k] = v
					}
				}
				if fast := store(surface.Config{Property: spec.Control, Values: grid}); fast != lineBased {
					t.Fatalf("a constant grid entry took the fast path: %v, want %v", fast, lineBased)
				}
			}
			for trial := 0; trial < 40; trial++ {
				vals := make([]float64, rows*cols)
				for k := range vals {
					vals[k] = r.Float64() * 2 * math.Pi
					if spec.Control == surface.Amplitude {
						vals[k] = r.Float64()
					}
				}
				store(surface.Config{Property: spec.Control, Values: vals})
				if spec.Control == surface.Amplitude {
					continue // Realize yields phases
				}
				theta := make([]float64, probe.nLines)
				for g := range theta {
					theta[g] = r.Float64()*4*math.Pi - math.Pi
				}
				cfg := probe.Realize(theta)
				cfg.Property = spec.Control
				if fast := store(cfg); fast != lineBased {
					t.Fatalf("Realize output took the fast path: %v, want %v", fast, lineBased)
				}
				if !lineBased {
					continue
				}
				// A stuck element away from its frozen phase.
				for k := range frozen {
					moved := surface.Config{Property: cfg.Property, Values: slices.Clone(cfg.Values)}
					moved.Values[k] = surface.QuantizePhase(moved.Values[k]+1, 0)
					if store(moved) {
						t.Fatal("a stuck element off its frozen phase took the fast path")
					}
					break
				}
				// Off the grid: every driven element of one line moves by a
				// third of a step.
				step := 2 * math.Pi / float64(int(1)<<spec.PhaseBits)
				g := probe.lines[r.Intn(rows*cols)]
				off := surface.Config{Property: cfg.Property, Values: slices.Clone(cfg.Values)}
				first, second := -1, -1
				for k, l := range probe.lines {
					if _, ok := frozen[k]; ok || l != g {
						continue
					}
					off.Values[k] += step / 3
					if first < 0 {
						first = k
					} else if second < 0 {
						second = k
					}
				}
				if first < 0 {
					continue // every element of the line is stuck
				}
				if store(off) {
					t.Fatal("an off-grid line took the fast path")
				}
				// Unequal line: one element moves a whole step.
				if second < 0 {
					continue // element-wise: a line is one element
				}
				uneven := surface.Config{Property: cfg.Property, Values: slices.Clone(cfg.Values)}
				uneven.Values[second] = surface.QuantizePhase(uneven.Values[second]+step, 0)
				if store(uneven) {
					t.Fatal("a line with unequal elements took the fast path")
				}
			}
		})
	}
}

func TestStoreCodebookSkipsRealizedEntries(t *testing.T) {
	t.Run("unbiased", func(t *testing.T) { checkStoreCodebook(t, false, false) })
	t.Run("biased", func(t *testing.T) { checkStoreCodebook(t, true, false) })
}

func TestStoreCodebookSkipsRealizedEntriesStuck(t *testing.T) {
	t.Run("unbiased", func(t *testing.T) { checkStoreCodebook(t, false, true) })
	t.Run("biased", func(t *testing.T) { checkStoreCodebook(t, true, true) })
}
