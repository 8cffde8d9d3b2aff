package surface

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"surfos/internal/em"
	"surfos/internal/geom"
)

func testPanel() *geom.Quad {
	// 1m × 0.5m vertical panel in the y=0 plane facing +y.
	return geom.RectXY(geom.V(0, 0, 1), geom.V(-1, 0, 0), geom.V(0, 0, 1), 1, 0.5)
}

func testSurface(t *testing.T, rows, cols int) *Surface {
	t.Helper()
	s, err := New("test", testPanel(), Layout{Rows: rows, Cols: cols, PitchU: 0.00625, PitchV: 0.00625}, Reflective, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", nil, Layout{Rows: 1, Cols: 1, PitchU: 1, PitchV: 1}, Reflective, nil); err == nil {
		t.Error("nil panel accepted")
	}
	if _, err := New("x", testPanel(), Layout{Rows: 0, Cols: 1, PitchU: 1, PitchV: 1}, Reflective, nil); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := New("x", testPanel(), Layout{Rows: 1, Cols: 1, PitchU: 0, PitchV: 1}, Reflective, nil); err == nil {
		t.Error("zero pitch accepted")
	}
}

func TestElementPositionsOnPanelPlane(t *testing.T) {
	s := testSurface(t, 8, 16)
	if got := s.NumElements(); got != 128 {
		t.Fatalf("elements = %d, want 128", got)
	}
	pl := s.Panel.Plane()
	for i, p := range s.ElementPositions() {
		if math.Abs(pl.SignedDist(p)) > 1e-9 {
			t.Fatalf("element %d at %v off the panel plane", i, p)
		}
	}
	// Grid is centered: mean of positions equals the panel center.
	var sum geom.Vec3
	for _, p := range s.ElementPositions() {
		sum = sum.Add(p)
	}
	mean := sum.Scale(1 / float64(s.NumElements()))
	if !mean.ApproxEqual(s.Panel.Center(), 1e-9) {
		t.Errorf("element centroid %v != panel center %v", mean, s.Panel.Center())
	}
}

func TestElementSpacing(t *testing.T) {
	s := testSurface(t, 2, 3)
	pos := s.ElementPositions()
	// Adjacent elements in a row are PitchU apart.
	if d := pos[0].Dist(pos[1]); math.Abs(d-0.00625) > 1e-9 {
		t.Errorf("row spacing = %v", d)
	}
	// Adjacent rows are PitchV apart.
	if d := pos[0].Dist(pos[s.Layout.Cols]); math.Abs(d-0.00625) > 1e-9 {
		t.Errorf("col spacing = %v", d)
	}
}

func TestHalfWaveLayout(t *testing.T) {
	l := HalfWaveLayout(em.Band24G, 0.5, 0.25)
	pitch := em.Wavelength(em.Band24G) / 2
	if math.Abs(l.PitchU-pitch) > 1e-12 {
		t.Errorf("pitch = %v, want %v", l.PitchU, pitch)
	}
	if l.Cols != int(0.5/pitch) || l.Rows != int(0.25/pitch) {
		t.Errorf("layout %dx%d unexpected", l.Rows, l.Cols)
	}
	// Degenerate tiny panel still gets one element.
	l2 := HalfWaveLayout(em.Band2G4, 0.01, 0.01)
	if l2.Rows != 1 || l2.Cols != 1 {
		t.Errorf("tiny panel layout %dx%d, want 1x1", l2.Rows, l2.Cols)
	}
}

func TestOpModeFlags(t *testing.T) {
	if !Reflective.Reflects() || Reflective.Transmits() {
		t.Error("reflective flags wrong")
	}
	if Transmissive.Reflects() || !Transmissive.Transmits() {
		t.Error("transmissive flags wrong")
	}
	if !Transflective.Reflects() || !Transflective.Transmits() {
		t.Error("transflective flags wrong")
	}
	if Transflective.String() != "T&R" || Reflective.String() != "R" || Transmissive.String() != "T" {
		t.Error("mode strings wrong")
	}
}

func TestConfigValidate(t *testing.T) {
	l := Layout{Rows: 2, Cols: 2, PitchU: 1, PitchV: 1}
	ok := Config{Property: Phase, Values: []float64{0, 1, 2, 3}}
	if err := ok.Validate(l); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := Config{Property: Phase, Values: []float64{0, 1}}
	if err := bad.Validate(l); err == nil {
		t.Error("size mismatch accepted")
	}
	nan := Config{Property: Phase, Values: []float64{0, math.NaN(), 0, 0}}
	if err := nan.Validate(l); err == nil {
		t.Error("NaN accepted")
	}
	amp := Config{Property: Amplitude, Values: []float64{0, 0.5, 1, 1.5}}
	if err := amp.Validate(l); err == nil {
		t.Error("out-of-range amplitude accepted")
	}
}

func TestQuantize1Bit(t *testing.T) {
	c := Config{Property: Phase, Values: []float64{0.1, 3.0, 6.2, math.Pi}}
	q := c.Quantize(1)
	want := []float64{0, math.Pi, 0, math.Pi}
	for i := range q.Values {
		if math.Abs(q.Values[i]-want[i]) > 1e-9 {
			t.Errorf("q[%d] = %v, want %v", i, q.Values[i], want[i])
		}
	}
}

func TestQuantizeIdempotent(t *testing.T) {
	f := func(vals [8]float64, bits uint8) bool {
		b := int(bits%4) + 1
		c := Config{Property: Phase, Values: vals[:]}
		q1 := c.Quantize(b)
		q2 := q1.Quantize(b)
		for i := range q1.Values {
			if math.Abs(q1.Values[i]-q2.Values[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizeContinuousNormalizes(t *testing.T) {
	c := Config{Property: Phase, Values: []float64{-1, 7, 2 * math.Pi}}
	q := c.Quantize(0)
	for i, v := range q.Values {
		if v < 0 || v >= 2*math.Pi {
			t.Errorf("value %d = %v not normalized", i, v)
		}
	}
	// Original untouched.
	if c.Values[0] != -1 {
		t.Error("Quantize mutated the input")
	}
}

// QuantizePhase and SharedPhase are the per-line forms of Quantize and of
// ProjectGranularity's circular mean; drivers rely on them being equal bit
// for bit, including at the wrap and the half-step ties.
func TestLinePhaseHelpersMatchElementForms(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	vals := []float64{0, math.Copysign(0, -1), math.Pi / 4, math.Pi, 2 * math.Pi, -1e-20, 7 * math.Pi / 4}
	for range 2000 {
		vals = append(vals, r.Float64()*8*math.Pi-4*math.Pi)
	}
	for _, v := range vals {
		for bits := 0; bits <= 4; bits++ {
			want := Config{Property: Phase, Values: []float64{v}}.Quantize(bits).Values[0]
			if got := QuantizePhase(v, bits); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("QuantizePhase(%v, %d) = %v, Quantize gives %v", v, bits, got, want)
			}
		}
		for _, n := range []int{0, 1, 3, 24} {
			copies := make([]float64, n)
			for i := range copies {
				copies[i] = v
			}
			want := circularMean(copies)
			if got := SharedPhase(v, n); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SharedPhase(%v, %d) = %v, circularMean gives %v", v, n, got, want)
			}
		}
	}
}

func TestProjectGranularityColumn(t *testing.T) {
	l := Layout{Rows: 2, Cols: 3, PitchU: 1, PitchV: 1}
	c := Config{Property: Amplitude, Values: []float64{
		0.0, 0.2, 0.4,
		1.0, 0.8, 0.6,
	}}
	p := c.ProjectGranularity(ColumnWise, l)
	want := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	for i := range p.Values {
		if math.Abs(p.Values[i]-want[i]) > 1e-9 {
			t.Errorf("col proj[%d] = %v, want %v", i, p.Values[i], want[i])
		}
	}
}

func TestProjectGranularityRow(t *testing.T) {
	l := Layout{Rows: 2, Cols: 2, PitchU: 1, PitchV: 1}
	c := Config{Property: Amplitude, Values: []float64{0.2, 0.4, 0.6, 1.0}}
	p := c.ProjectGranularity(RowWise, l)
	want := []float64{0.3, 0.3, 0.8, 0.8}
	for i := range p.Values {
		if math.Abs(p.Values[i]-want[i]) > 1e-9 {
			t.Errorf("row proj[%d] = %v, want %v", i, p.Values[i], want[i])
		}
	}
}

func TestProjectGranularityPhaseCircular(t *testing.T) {
	// Circular mean of {355°, 5°} is 0°, not 180° — the arithmetic mean trap.
	l := Layout{Rows: 2, Cols: 1, PitchU: 1, PitchV: 1}
	a, b := 355*math.Pi/180, 5*math.Pi/180
	c := Config{Property: Phase, Values: []float64{a, b}}
	p := c.ProjectGranularity(ColumnWise, l)
	if got := p.Values[0]; math.Min(got, 2*math.Pi-got) > 1e-9 {
		t.Errorf("circular mean = %v rad, want ≈0", got)
	}
}

func TestProjectGranularityIdempotent(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	l := Layout{Rows: 4, Cols: 6, PitchU: 1, PitchV: 1}
	for _, g := range []Granularity{ElementWise, ColumnWise, RowWise} {
		vals := make([]float64, l.NumElements())
		for i := range vals {
			vals[i] = r.Float64() * 2 * math.Pi
		}
		c := Config{Property: Phase, Values: vals}
		p1 := c.ProjectGranularity(g, l)
		p2 := p1.ProjectGranularity(g, l)
		for i := range p1.Values {
			if math.Abs(p1.Values[i]-p2.Values[i]) > 1e-9 {
				t.Errorf("granularity %v not idempotent at %d: %v vs %v", g, i, p1.Values[i], p2.Values[i])
			}
		}
	}
}

func TestSteeringConfigCoherence(t *testing.T) {
	// After applying the steering config, all element path phases must be
	// equal mod 2π: prop phase -k·d plus element shift +k·d ≡ 0.
	s := testSurface(t, 4, 8)
	src := geom.V(1, -3, 1.5)
	dst := geom.V(-2, -4, 1.0)
	cfg := s.SteeringConfig(src, dst, em.Band24G)
	k := em.Wavenumber(em.Band24G)
	for i, p := range s.ElementPositions() {
		d := src.Dist(p) + p.Dist(dst)
		total := math.Mod(-k*d+cfg.Values[i], 2*math.Pi)
		// total should be ≈ 0 mod 2π.
		if math.Min(math.Abs(total), 2*math.Pi-math.Abs(total)) > 1e-6 {
			t.Fatalf("element %d residual phase %v", i, total)
		}
	}
}

func TestOffConfig(t *testing.T) {
	s := testSurface(t, 2, 2)
	off := s.Off()
	if err := off.Validate(s.Layout); err != nil {
		t.Fatal(err)
	}
	for _, v := range off.Values {
		if v != 0 {
			t.Error("off config not all-zero")
		}
	}
}

func TestCodebook(t *testing.T) {
	s := testSurface(t, 2, 2)
	var cb Codebook
	i0 := cb.Add("off", s.Off())
	i1 := cb.Add("beam1", Config{Property: Phase, Values: []float64{1, 2, 3, 4}})
	if i0 != 0 || i1 != 1 || cb.Len() != 2 {
		t.Fatalf("codebook indices %d,%d len %d", i0, i1, cb.Len())
	}
	e, err := cb.At(1)
	if err != nil || e.Values[2] != 3 {
		t.Errorf("At(1) = %v, %v", e, err)
	}
	if _, err := cb.At(5); err == nil {
		t.Error("out-of-range index accepted")
	}
	// Entries are copies: mutating the source must not change the codebook.
	src := Config{Property: Phase, Values: []float64{9, 9, 9, 9}}
	cb.Add("x", src)
	src.Values[0] = 0
	e2, _ := cb.At(2)
	if e2.Values[0] != 9 {
		t.Error("codebook entry aliases caller slice")
	}
}

func TestAreaM2(t *testing.T) {
	s := testSurface(t, 10, 20)
	want := 10 * 20 * 0.00625 * 0.00625
	if math.Abs(s.AreaM2()-want) > 1e-12 {
		t.Errorf("area = %v, want %v", s.AreaM2(), want)
	}
}

func TestStringers(t *testing.T) {
	if Phase.String() != "phase" || Amplitude.String() != "amplitude" {
		t.Error("property names wrong")
	}
	if ElementWise.String() != "element-wise" || FixedPattern.String() != "fixed" {
		t.Error("granularity names wrong")
	}
	if ControlProperty(200).String() == "" || Granularity(200).String() == "" || OpMode(99).String() == "" {
		t.Error("unknown values should still produce strings")
	}
}

func TestSteeringConfigRangeProperty(t *testing.T) {
	// Property: steering configs are always normalized phases in [0, 2π)
	// for any finite endpoint geometry.
	s := testSurface(t, 3, 3)
	f := func(sx, sy, sz, dx, dy, dz float64) bool {
		src := geom.V(math.Mod(sx, 8), math.Mod(sy, 8)+3, math.Mod(sz, 2)+1)
		dst := geom.V(math.Mod(dx, 8), math.Mod(dy, 8)+3, math.Mod(dz, 2)+1)
		cfg := s.SteeringConfig(src, dst, em.Band24G)
		for _, v := range cfg.Values {
			if v < 0 || v >= 2*math.Pi || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
