// Package surface models metasurface hardware at the signal level: panels
// of sub-wavelength elements, the configurations that program them, control
// granularity constraints, and phase-state quantization.
//
// A configuration is "an array of signal property alteration values for
// each surface element" (paper §3.1) — the unified currency every SurfOS
// layer trades in, regardless of which physical design is underneath.
package surface

import (
	"fmt"
	"math"

	"surfos/internal/em"
	"surfos/internal/geom"
)

// ControlProperty is the fundamental signal property a surface element
// alters (paper §3.1: amplitude, phase, frequency, polarization; plus the
// impedance and diffraction modes seen in Table 1 hardware).
type ControlProperty uint8

// Control properties.
const (
	Phase ControlProperty = iota
	Amplitude
	Polarization
	Frequency
	Impedance
	Diffraction
)

var propertyNames = map[ControlProperty]string{
	Phase:        "phase",
	Amplitude:    "amplitude",
	Polarization: "polarization",
	Frequency:    "frequency",
	Impedance:    "impedance",
	Diffraction:  "diffraction",
}

// String implements fmt.Stringer.
func (p ControlProperty) String() string {
	if s, ok := propertyNames[p]; ok {
		return s
	}
	return fmt.Sprintf("property(%d)", uint8(p))
}

// OpMode says whether a surface operates on reflection, transmission, or
// both (the T/R column of the paper's Table 1).
type OpMode uint8

// Operation modes.
const (
	Reflective OpMode = 1 << iota
	Transmissive
)

// Transflective surfaces (e.g. mmWall) support both modes.
const Transflective = Reflective | Transmissive

// String implements fmt.Stringer.
func (m OpMode) String() string {
	switch m {
	case Reflective:
		return "R"
	case Transmissive:
		return "T"
	case Transflective:
		return "T&R"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Reflects reports whether the mode includes reflection.
func (m OpMode) Reflects() bool { return m&Reflective != 0 }

// Transmits reports whether the mode includes transmission.
func (m OpMode) Transmits() bool { return m&Transmissive != 0 }

// Granularity is the finest unit of independent element control a design
// supports. High-frequency programmable surfaces often share states per
// column (mmWall, NR-Surface); Scrolls shares per row; passive surfaces fix
// the whole pattern at fabrication.
type Granularity uint8

// Granularities, finest first.
const (
	ElementWise Granularity = iota
	ColumnWise
	RowWise
	FixedPattern // one-time programmable at fabrication
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case ElementWise:
		return "element-wise"
	case ColumnWise:
		return "column-wise"
	case RowWise:
		return "row-wise"
	case FixedPattern:
		return "fixed"
	}
	return fmt.Sprintf("granularity(%d)", uint8(g))
}

// Layout describes the element grid of a panel: Rows×Cols elements at the
// given pitch (meters). Pitch is typically λ/2 at the design frequency.
type Layout struct {
	Rows, Cols     int
	PitchU, PitchV float64 // element spacing along panel width / height
}

// NumElements returns Rows*Cols.
func (l Layout) NumElements() int { return l.Rows * l.Cols }

// Lines returns how granularity g groups the layout's elements into control
// lines: the number of lines n and, for each row-major element, its line.
// Column-wise designs have one line per column, row-wise one per row;
// element-wise and fixed designs give every element its own.
func (l Layout) Lines(g Granularity) (n int, line []int) {
	line = make([]int, l.NumElements())
	switch g {
	case ColumnWise:
		for k := range line {
			line[k] = k % l.Cols
		}
		return l.Cols, line
	case RowWise:
		for k := range line {
			line[k] = k / l.Cols
		}
		return l.Rows, line
	}
	for k := range line {
		line[k] = k
	}
	return len(line), line
}

// Validate checks the layout is physically meaningful.
func (l Layout) Validate() error {
	if l.Rows <= 0 || l.Cols <= 0 {
		return fmt.Errorf("surface: layout %dx%d must be positive", l.Rows, l.Cols)
	}
	if l.PitchU <= 0 || l.PitchV <= 0 {
		return fmt.Errorf("surface: element pitch (%g, %g) must be positive", l.PitchU, l.PitchV)
	}
	return nil
}

// HalfWaveLayout builds a layout with λ/2 pitch at freqHz sized to fill a
// w×h meter panel.
func HalfWaveLayout(freqHz, w, h float64) Layout {
	pitch := em.Wavelength(freqHz) / 2
	cols := int(w / pitch)
	rows := int(h / pitch)
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	return Layout{Rows: rows, Cols: cols, PitchU: pitch, PitchV: pitch}
}

// Surface is one physical metasurface panel placed in a scene: geometry,
// element layout, operating mode, and per-element radiation pattern.
// Surface is the *model* the simulator uses; drivers wrap a Surface with
// design-specific constraints (granularity, quantization, cost).
type Surface struct {
	Name    string
	Panel   *geom.Quad
	Layout  Layout
	Mode    OpMode
	Pattern em.Pattern

	positions []geom.Vec3 // cached element centers, row-major
}

// New validates and builds a surface.
func New(name string, panel *geom.Quad, layout Layout, mode OpMode, pattern em.Pattern) (*Surface, error) {
	if panel == nil {
		return nil, fmt.Errorf("surface %q: nil panel", name)
	}
	if err := layout.Validate(); err != nil {
		return nil, fmt.Errorf("surface %q: %w", name, err)
	}
	if pattern == nil {
		pattern = em.CosinePattern{Q: 1}
	}
	s := &Surface{Name: name, Panel: panel, Layout: layout, Mode: mode, Pattern: pattern}
	s.positions = s.computePositions()
	return s, nil
}

// computePositions lays the element grid centered on the panel.
func (s *Surface) computePositions() []geom.Vec3 {
	c := s.Panel.Corners()
	u := c[1].Sub(c[0]).Normalize()
	v := c[3].Sub(c[0]).Normalize()
	center := s.Panel.Center()
	w := float64(s.Layout.Cols) * s.Layout.PitchU
	h := float64(s.Layout.Rows) * s.Layout.PitchV
	origin := center.Sub(u.Scale(w / 2)).Sub(v.Scale(h / 2))
	pos := make([]geom.Vec3, 0, s.Layout.NumElements())
	for r := 0; r < s.Layout.Rows; r++ {
		for col := 0; col < s.Layout.Cols; col++ {
			p := origin.
				Add(u.Scale((float64(col) + 0.5) * s.Layout.PitchU)).
				Add(v.Scale((float64(r) + 0.5) * s.Layout.PitchV))
			pos = append(pos, p)
		}
	}
	return pos
}

// NumElements returns the element count.
func (s *Surface) NumElements() int { return s.Layout.NumElements() }

// ElementPositions returns the cached element centers in row-major order.
// The returned slice must not be modified.
func (s *Surface) ElementPositions() []geom.Vec3 { return s.positions }

// Normal returns the panel's unit normal (the side a reflective surface
// serves).
func (s *Surface) Normal() geom.Vec3 { return s.Panel.Normal() }

// ElementIndex converts (row, col) to the row-major element index.
func (s *Surface) ElementIndex(row, col int) int { return row*s.Layout.Cols + col }

// AreaM2 returns the element grid's physical area in square meters, the
// quantity the paper's Figure 4(c) sweeps.
func (s *Surface) AreaM2() float64 {
	return float64(s.Layout.Rows) * s.Layout.PitchV * float64(s.Layout.Cols) * s.Layout.PitchU
}

// Off returns the all-zero (mirror-like / pass-through) configuration.
func (s *Surface) Off() Config {
	return Config{Property: Phase, Values: make([]float64, s.NumElements())}
}

// SteeringConfig computes the phase configuration that coherently combines
// energy from point src to point dst: each element's phase shift cancels the
// propagation phase of its src→element→dst path so all element contributions
// add in phase at dst. This is the classic RIS beamforming codebook entry.
func (s *Surface) SteeringConfig(src, dst geom.Vec3, freqHz float64) Config {
	k := em.Wavenumber(freqHz)
	vals := make([]float64, s.NumElements())
	for i, p := range s.positions {
		d := src.Dist(p) + p.Dist(dst)
		// The propagation phase is -k·d; the element must add +k·d (mod 2π)
		// so the total phase is constant across elements.
		vals[i] = math.Mod(k*d, 2*math.Pi)
	}
	return Config{Property: Phase, Values: vals}
}
