package surface

import (
	"errors"
	"fmt"
	"math"
)

// Config is one surface configuration: a per-element array of signal
// property alteration values (row-major). For Phase the values are radians
// in [0, 2π); for Amplitude they are gains in [0, 1].
type Config struct {
	Property ControlProperty
	Values   []float64
}

// ErrConfigSize is returned when a config's element count does not match
// the target surface.
var ErrConfigSize = errors.New("surface: config element count mismatch")

// Clone returns a deep copy.
func (c Config) Clone() Config {
	v := make([]float64, len(c.Values))
	copy(v, c.Values)
	return Config{Property: c.Property, Values: v}
}

// Validate checks the config against a layout and property-specific ranges.
func (c Config) Validate(l Layout) error {
	if len(c.Values) != l.NumElements() {
		return fmt.Errorf("%w: have %d values, surface has %d elements",
			ErrConfigSize, len(c.Values), l.NumElements())
	}
	for i, v := range c.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("surface: config value %d is not finite", i)
		}
		if c.Property == Amplitude && (v < 0 || v > 1) {
			return fmt.Errorf("surface: amplitude value %d = %g outside [0,1]", i, v)
		}
	}
	return nil
}

// wrapPhase maps an angle to [0, 2π).
func wrapPhase(v float64) float64 {
	v = math.Mod(v, 2*math.Pi)
	if v < 0 {
		v += 2 * math.Pi
	}
	return v
}

// Normalize wraps phase values into [0, 2π) (no-op for other properties).
func (c Config) Normalize() Config {
	if c.Property != Phase {
		return c.Clone()
	}
	out := c.Clone()
	for i, v := range out.Values {
		out.Values[i] = wrapPhase(v)
	}
	return out
}

// Quantize snaps phase values to the 2^bits discrete states a design
// supports (e.g. 1-bit surfaces have states {0, π}). bits <= 0 means
// continuous control and returns a normalized copy.
func (c Config) Quantize(bits int) Config {
	out := c.Normalize()
	if bits <= 0 || c.Property != Phase {
		return out
	}
	step := phaseStep(bits)
	for i, v := range out.Values {
		out.Values[i] = snapPhase(v, step)
	}
	return out
}

// QuantizePhase is Quantize of one phase value, bit for bit: wrapped into
// [0, 2π), then, for bits > 0, snapped to the nearest of the 2^bits states.
func QuantizePhase(v float64, bits int) float64 {
	v = wrapPhase(v)
	if bits <= 0 {
		return v
	}
	return snapPhase(v, phaseStep(bits))
}

// phaseStep is the spacing of the 2^bits phase states.
func phaseStep(bits int) float64 { return 2 * math.Pi / float64(int(1)<<bits) }

// snapPhase rounds a wrapped phase to the nearest multiple of step.
func snapPhase(v, step float64) float64 { return wrapPhase(math.Round(v/step) * step) }

// circularMean returns the mean angle of phases (the argument of the phasor
// sum), in [0, 2π). Returns 0 for an empty or perfectly-cancelling set.
func circularMean(phases []float64) float64 {
	var sr, si float64
	for _, p := range phases {
		sr += math.Cos(p)
		si += math.Sin(p)
	}
	if sr == 0 && si == 0 {
		return 0
	}
	return wrapPhase(math.Atan2(si, sr))
}

// SharedPhase is circularMean of n copies of v, bit for bit — the value
// ProjectGranularity gives a phase line whose n elements all hold v — with
// one Cos and one Sin instead of n of each: the sums add the same terms in
// the same order.
func SharedPhase(v float64, n int) float64 {
	c, s := math.Cos(v), math.Sin(v)
	var sr, si float64
	for range n {
		sr += c
		si += s
	}
	if sr == 0 && si == 0 {
		return 0
	}
	return wrapPhase(math.Atan2(si, sr))
}

// ProjectGranularity returns the closest configuration realizable under the
// given control granularity: column-wise shares one value per column (the
// circular mean for phases, arithmetic mean otherwise), row-wise per row,
// and FixedPattern is the identity here (fixedness is a *reconfiguration*
// constraint enforced by drivers, not a shape constraint).
//
// The projection is idempotent: P(P(c)) == P(c).
func (c Config) ProjectGranularity(g Granularity, l Layout) Config {
	return c.ProjectGranularityExcept(g, l, nil)
}

// ProjectGranularityExcept is ProjectGranularity with the elements skip
// reports left out of their shared line's mean: an element that ignores its
// control line (a stuck actuator) has no say in the line's value. A line
// whose every element is skipped takes 0. A nil skip leaves out nothing.
func (c Config) ProjectGranularityExcept(g Granularity, l Layout, skip func(i int) bool) Config {
	out := c.Clone()
	mean := func(vals []float64) float64 {
		if c.Property == Phase {
			return circularMean(vals)
		}
		if len(vals) == 0 {
			return 0
		}
		var s float64
		for _, v := range vals {
			s += v
		}
		return s / float64(len(vals))
	}
	// share sets the n elements at i0, i0+step, … to the mean of those not
	// skipped.
	buf := make([]float64, 0, max(l.Rows, l.Cols))
	share := func(i0, step, n int) {
		buf = buf[:0]
		for j, i := 0, i0; j < n; j, i = j+1, i+step {
			if skip == nil || !skip(i) {
				buf = append(buf, c.Values[i])
			}
		}
		m := mean(buf)
		for j, i := 0, i0; j < n; j, i = j+1, i+step {
			out.Values[i] = m
		}
	}
	switch g {
	case ColumnWise:
		for col := 0; col < l.Cols; col++ {
			share(col, l.Cols, l.Rows)
		}
	case RowWise:
		for r := 0; r < l.Rows; r++ {
			share(r*l.Cols, 1, l.Cols)
		}
	}
	return out
}

// Codebook is a named set of locally-stored configurations — the surface's
// analogue of a switch's forwarding table or an 802.11ad beam codebook
// (paper §3.1). Programmable surfaces select among stored entries in real
// time from endpoint feedback; the control plane replaces entries
// asynchronously.
type Codebook struct {
	Entries []Config
	Labels  []string
}

// Add appends a labelled configuration and returns its index.
func (cb *Codebook) Add(label string, cfg Config) int {
	cb.Entries = append(cb.Entries, cfg.Clone())
	cb.Labels = append(cb.Labels, label)
	return len(cb.Entries) - 1
}

// Len returns the number of stored entries.
func (cb *Codebook) Len() int { return len(cb.Entries) }

// At returns entry i.
func (cb *Codebook) At(i int) (Config, error) {
	if i < 0 || i >= len(cb.Entries) {
		return Config{}, fmt.Errorf("surface: codebook index %d out of range [0,%d)", i, len(cb.Entries))
	}
	return cb.Entries[i], nil
}
