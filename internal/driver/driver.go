// Package driver implements the SurfOS hardware manager's device layer:
// a unified driver interface that masks the heterogeneity of metasurface
// hardware designs (paper §3.1) behind signal-property primitives —
// ShiftPhase, SetAmplitude, … — plus machine-readable hardware
// specifications and a registry covering every design in the paper's
// Table 1.
//
// A Driver wraps a placed surface with its design's constraints: control
// granularity (element-, column-, row-wise or fixed), phase quantization,
// reconfiguration latency, and cost model. Upper layers always program at
// the finest granularity (element-wise arrays); the driver projects the
// request onto what the hardware can realize, mirroring how the paper's
// unified configuration interface treats passive and programmable surfaces
// alike. Its ControlMap names the free variables behind those arrays, so
// planners can search the hardware's control space directly, and Realize
// turns a control-space answer into the configuration the panel realizes.
package driver

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"surfos/internal/em"
	"surfos/internal/rfsim"
	"surfos/internal/surface"
)

// Spec is a surface hardware design's machine-readable specification — the
// paper's "hardware specifications" a driver must "explicitly capture and
// expose ... to the upper layer" (§3.1).
type Spec struct {
	Model     string // design name, e.g. "mmWall"
	Reference string // publication venue/year, for the catalog

	// Operating band.
	FreqLowHz, FreqHighHz float64
	// Primary signal control property (Table 1 "Signal Control Mode").
	Control surface.ControlProperty
	// OpMode: transmissive, reflective, or both (Table 1 "T/R").
	OpMode surface.OpMode
	// Granularity of independent element control.
	Granularity surface.Granularity
	// Reconfigurable distinguishes programmable designs from passive
	// (fabrication-time, one-shot) ones.
	Reconfigurable bool
	// PhaseBits quantizes phase states (0 = continuous).
	PhaseBits int
	// ControlDelay is the latency to update a configuration on the device.
	// Meaningless for passive designs (Reconfigurable=false): the paper
	// likens those to ROM — "infinite control delay".
	ControlDelay time.Duration
	// CodebookSlots bounds how many configurations the device can store
	// locally (0 = unlimited). Passive designs hold exactly 1.
	CodebookSlots int
	// Cost model: CostUSD(n) = FixedCostUSD + n·CostPerElementUSD.
	CostPerElementUSD float64
	FixedCostUSD      float64
	// ElementEfficiency scales the per-element interaction amplitude.
	ElementEfficiency float64
	// Response is the wideband frequency response ("to avoid unintended
	// blocking", §3.1): how the panel treats out-of-band signals.
	Response *em.Material
}

// Validate checks internal consistency.
func (s Spec) Validate() error {
	if s.Model == "" {
		return errors.New("driver: spec needs a model name")
	}
	// Comparisons are written so that NaN fails them.
	if !(s.FreqLowHz > 0 && s.FreqHighHz >= s.FreqLowHz) || math.IsInf(s.FreqHighHz, 1) {
		return fmt.Errorf("driver: %s has invalid band [%g, %g]", s.Model, s.FreqLowHz, s.FreqHighHz)
	}
	if s.PhaseBits < 0 || s.PhaseBits > 16 {
		return fmt.Errorf("driver: %s has invalid phase bits %d", s.Model, s.PhaseBits)
	}
	if !(s.ElementEfficiency >= 0 && s.ElementEfficiency <= 1) {
		return fmt.Errorf("driver: %s has invalid efficiency %g", s.Model, s.ElementEfficiency)
	}
	if !s.Reconfigurable && s.Granularity != surface.FixedPattern {
		return fmt.Errorf("driver: %s is passive but granularity is %v", s.Model, s.Granularity)
	}
	if !(s.CostPerElementUSD >= 0 && s.FixedCostUSD >= 0) || math.IsInf(s.CostPerElementUSD+s.FixedCostUSD, 1) {
		return fmt.Errorf("driver: %s has negative or non-finite cost", s.Model)
	}
	return nil
}

// SupportsFreq reports whether f lies in the design's operating band.
func (s Spec) SupportsFreq(f float64) bool {
	return f >= s.FreqLowHz && f <= s.FreqHighHz
}

// CostUSD returns the hardware cost of an n-element panel.
func (s Spec) CostUSD(n int) float64 {
	return s.FixedCostUSD + float64(n)*s.CostPerElementUSD
}

// Errors returned by driver operations.
var (
	// ErrFixed is returned when reconfiguring a passive surface after
	// fabrication.
	ErrFixed = errors.New("driver: passive surface already fabricated")
	// ErrUnsupportedProperty is returned for a control property the design
	// does not implement.
	ErrUnsupportedProperty = errors.New("driver: control property not supported by this design")
	// ErrCodebookFull is returned when the device's local slots are
	// exhausted.
	ErrCodebookFull = errors.New("driver: codebook slots exhausted")
)

// Driver is one managed surface device. It is safe for concurrent use.
type Driver struct {
	spec Spec
	surf *surface.Surface
	// nLines and lines are the design's control lines over the layout
	// (surface.Layout.Lines): fixed at construction, shared read-only by
	// every ControlMap of a healthy panel.
	nLines int
	lines  []int

	mu         sync.Mutex
	codebook   surface.Codebook
	active     int  // index into codebook; -1 = off
	fabricated bool // passive: configuration burned in
	updates    int  // total accepted configuration writes
	// bias is a fixed element-wise phase profile built into the panel at
	// installation (mechanical tilt / element design), immutable once set.
	// Column- and row-wise designs realize elevation/azimuth focusing this
	// way: the shared per-column state rides on top of the fabricated
	// profile (mmWall's fixed vertical beam is the canonical example).
	bias []float64
	// faults is the optional injected fault model (nil = perfect hardware).
	faults *FaultModel
}

// New wraps a placed surface with a design spec. The surface's operating
// mode must match the spec.
func New(spec Spec, surf *surface.Surface) (*Driver, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if surf == nil {
		return nil, fmt.Errorf("driver: %s needs a surface", spec.Model)
	}
	if surf.Mode&spec.OpMode == 0 {
		return nil, fmt.Errorf("driver: %s is %v but surface %q is %v",
			spec.Model, spec.OpMode, surf.Name, surf.Mode)
	}
	d := &Driver{spec: spec, surf: surf, active: -1}
	d.nLines, d.lines = surf.Layout.Lines(spec.Granularity)
	return d, nil
}

// Spec returns the hardware specification.
func (d *Driver) Spec() Spec { return d.spec }

// Surface returns the underlying placed surface model.
func (d *Driver) Surface() *surface.Surface { return d.surf }

// SetFaults attaches (or, with nil, detaches) an injected fault model.
// All control operations and Project consult it from then on.
func (d *Driver) SetFaults(f *FaultModel) {
	d.mu.Lock()
	d.faults = f
	d.mu.Unlock()
}

// Faults returns the attached fault model (nil for perfect hardware).
func (d *Driver) Faults() *FaultModel {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.faults
}

// gate runs the per-operation fault check (no-op without a fault model).
func (d *Driver) gate() error {
	if f := d.Faults(); f != nil {
		return f.gate()
	}
	return nil
}

// Probe is the health heartbeat: a cheap control-plane round trip that
// fails when the device's controller is unreachable (and, like any control
// operation, may fail transiently over a flaky injected link). The hardware
// manager's health loop drives this.
func (d *Driver) Probe() error { return d.gate() }

// StuckElements returns the indices of elements frozen by actuator faults,
// ascending (nil for healthy hardware). The hardware manager exposes this
// as the device's element mask; ControlMap hands it to the optimizer and
// Project pins these elements.
func (d *Driver) StuckElements() []int {
	if f := d.Faults(); f != nil {
		return f.StuckElements()
	}
	return nil
}

// stuckMask returns the stuck elements and their frozen values (nil for
// healthy hardware).
func (d *Driver) stuckMask() map[int]float64 {
	if f := d.Faults(); f != nil {
		return f.stuckMask()
	}
	return nil
}

// pin overwrites cfg's stuck elements with their frozen values — the
// configuration the panel physically realizes regardless of what was
// requested.
func pin(cfg surface.Config, mask map[int]float64) surface.Config {
	if len(mask) == 0 {
		return cfg
	}
	out := cfg.Clone()
	for i, v := range mask {
		if i >= 0 && i < len(out.Values) {
			out.Values[i] = v
		}
	}
	return out
}

// ControlMap returns the panel's control space: which control line drives
// each element (granularity × layout), the fabricated bias, and the stuck
// elements at their frozen phases. Planning optimizes over the map's lines
// and expands the answer to elements, so a column-wise panel costs one
// variable per column and the optimizer already searches around a fault.
// A fabricated passive panel has no lines: every element is held at its
// burned-in phase, stuck elements at their frozen one.
func (d *Driver) ControlMap() rfsim.ControlMap {
	if held := d.burned(); held != nil {
		group := make([]int, len(held))
		for k := range group {
			group[k] = -1
		}
		return rfsim.NewControlMap(0, group, held)
	}
	d.mu.Lock()
	bias := d.bias
	d.mu.Unlock()
	stuck := d.stuckMask()
	group := d.lines
	var offset []float64
	if bias != nil || len(stuck) > 0 {
		offset = make([]float64, len(group))
		copy(offset, bias)
	}
	if len(stuck) > 0 {
		group = slices.Clone(group)
		for k, v := range stuck {
			if k >= 0 && k < len(group) {
				group[k], offset[k] = -1, v
			}
		}
	}
	return rfsim.NewControlMap(d.nLines, group, offset)
}

// burned returns a copy of a fabricated passive panel's pattern, stuck
// elements pinned on top, or nil for a panel that can still be configured.
func (d *Driver) burned() []float64 {
	if d.spec.Reconfigurable {
		return nil
	}
	d.mu.Lock()
	cfg, err := d.codebook.At(0)
	d.mu.Unlock()
	if err != nil {
		return nil
	}
	return slices.Clone(pin(cfg, d.stuckMask()).Values)
}

// EffectiveActive returns the configuration the panel physically presents
// to the channel right now: the active entry with stuck elements pinned.
// A dead device fails safe to its neutral all-zero profile (controller
// unreachable — the panel de-biases, contributing no programmed response),
// reported with ok=true so channel predictions can still evaluate it.
func (d *Driver) EffectiveActive() (cfg surface.Config, ok bool) {
	if f := d.Faults(); f != nil && f.Dead() {
		return surface.Config{
			Property: d.spec.Control,
			Values:   make([]float64, d.surf.NumElements()),
		}, true
	}
	active, _, ok := d.Active()
	if !ok {
		return surface.Config{}, false
	}
	return pin(active, d.stuckMask()), true
}

// SetBias installs the panel's fixed element-wise phase profile (see the
// bias field). It may be set once, before the first configuration write,
// and only for phase-control designs.
func (d *Driver) SetBias(vals []float64) error {
	if d.spec.Control != surface.Phase {
		return fmt.Errorf("driver: %s controls %v; bias applies to phase designs", d.spec.Model, d.spec.Control)
	}
	if len(vals) != d.surf.NumElements() {
		return fmt.Errorf("driver: bias has %d values, surface has %d elements", len(vals), d.surf.NumElements())
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.bias != nil {
		return fmt.Errorf("driver: %s bias already fabricated", d.spec.Model)
	}
	if d.fabricated {
		return fmt.Errorf("driver: %s already configured; bias must be set at installation", d.spec.Model)
	}
	d.bias = make([]float64, len(vals))
	copy(d.bias, vals)
	return nil
}

// Project returns the nearest configuration the hardware can realize:
// granularity sharing followed by phase quantization, computed relative to
// the fabricated bias profile when one is installed. It is idempotent.
// Stuck elements (actuator faults) have no say in their line's shared value
// and are pinned last: whatever the request, those elements realize their
// frozen value. Project(Expand(θ)) of the ControlMap is Expand of θ
// quantized, so a plan made in control space only loses quantization here.
func (d *Driver) Project(cfg surface.Config) surface.Config {
	stuck := d.stuckMask()
	var skip func(int) bool
	if len(stuck) > 0 {
		skip = func(i int) bool { _, ok := stuck[i]; return ok }
	}
	if cfg.Property != surface.Phase {
		return pin(cfg.ProjectGranularityExcept(d.spec.Granularity, d.surf.Layout, skip), stuck)
	}
	d.mu.Lock()
	bias := d.bias
	d.mu.Unlock()
	work := cfg.Clone()
	if bias != nil {
		for i := range work.Values {
			work.Values[i] -= bias[i]
		}
	}
	out := work.ProjectGranularityExcept(d.spec.Granularity, d.surf.Layout, skip).Quantize(d.spec.PhaseBits)
	if bias != nil {
		for i := range out.Values {
			out.Values[i] += bias[i]
		}
		out = out.Normalize()
	}
	return pin(out, stuck)
}

// lineValue is the phase Project gives an unbiased control line whose n
// driven elements all hold w: their shared value on a column- or row-wise
// design (SharedPhase, the projection's circular mean), quantized.
func (d *Driver) lineValue(w float64, n int) float64 {
	if g := d.spec.Granularity; g == surface.ColumnWise || g == surface.RowWise {
		w = surface.SharedPhase(w, n)
	}
	return surface.QuantizePhase(w, d.spec.PhaseBits)
}

// Realize returns the phase configuration the panel realizes for the
// control-line phases theta (one per line of ControlMap):
// Project(Expand(θ)) bit for bit. On an unbiased panel it is computed per
// line instead of per element — lineValue repeats the projection's
// arithmetic for a line whose driven elements all hold θ[g] — and stuck
// elements realize their frozen phase. A biased panel is projected, and a
// fabricated passive one, with no lines, realizes its pinned pattern.
func (d *Driver) Realize(theta []float64) surface.Config {
	if held := d.burned(); held != nil {
		return surface.Config{Property: surface.Phase, Values: held}
	}
	d.mu.Lock()
	biased := d.bias != nil
	d.mu.Unlock()
	if biased {
		return d.Project(surface.Config{Property: surface.Phase, Values: d.ControlMap().Expand(theta)})
	}
	stuck := d.stuckMask()
	driven := make([]int, d.nLines)
	for k, g := range d.lines {
		if _, ok := stuck[k]; !ok {
			driven[g]++
		}
	}
	line := make([]float64, d.nLines)
	for g, w := range theta[:d.nLines] {
		if len(stuck) > 0 {
			w += 0 // Expand adds a driven element's zero offset: −0 reaches Project as +0
		}
		line[g] = d.lineValue(w, driven[g])
	}
	vals := make([]float64, len(d.lines))
	for k, g := range d.lines {
		vals[k] = line[g]
	}
	return pin(surface.Config{Property: surface.Phase, Values: vals}, stuck)
}

// realized reports whether a codebook entry is already a fixed point of
// Project, so that storing it as is stores Project(cfg) bit for bit. It is
// when each control line's driven elements hold one phase q of the
// quantization grid and each stuck element its frozen phase: the line's
// shared value is then within rounding of q, far inside half a step, and
// quantizes back to q. The check is exact and does no trigonometry.
// Continuous designs, other properties, biased panels and negative zeros
// report false and are projected.
func (d *Driver) realized(cfg surface.Config, biased bool, stuck map[int]float64) bool {
	if cfg.Property != surface.Phase || d.spec.PhaseBits <= 0 || biased {
		return false
	}
	for k, v := range stuck {
		if k >= 0 && k < len(cfg.Values) && math.Float64bits(cfg.Values[k]) != math.Float64bits(v) {
			return false
		}
	}
	line := make([]float64, d.nLines) // NaN: no driven element seen yet
	for g := range line {
		line[g] = math.NaN()
	}
	for k, g := range d.lines {
		if _, ok := stuck[k]; ok {
			continue
		}
		v := cfg.Values[k]
		if math.IsNaN(line[g]) {
			line[g] = surface.QuantizePhase(v, d.spec.PhaseBits)
		}
		if math.Signbit(v) || math.Float64bits(v) != math.Float64bits(line[g]) {
			return false
		}
	}
	return true
}

// ShiftPhase programs a phase configuration — the unified primitive the
// paper names shift_phase(). The config is validated, projected onto the
// hardware's granularity and quantization, stored as the device's single
// live entry, and activated. For passive designs this is the one-time
// fabrication write; later calls return ErrFixed.
func (d *Driver) ShiftPhase(cfg surface.Config) error {
	if cfg.Property != surface.Phase {
		return fmt.Errorf("driver: ShiftPhase got %v config", cfg.Property)
	}
	return d.apply(cfg)
}

// SetAmplitude programs an amplitude configuration (set_amplitude()), for
// amplitude-control designs such as RFocus and LAVA.
func (d *Driver) SetAmplitude(cfg surface.Config) error {
	if cfg.Property != surface.Amplitude {
		return fmt.Errorf("driver: SetAmplitude got %v config", cfg.Property)
	}
	return d.apply(cfg)
}

// apply validates and installs a configuration as the single active entry.
func (d *Driver) apply(cfg surface.Config) error {
	if err := d.gate(); err != nil {
		return err
	}
	if cfg.Property != d.spec.Control {
		return fmt.Errorf("%w: %s controls %v, got %v",
			ErrUnsupportedProperty, d.spec.Model, d.spec.Control, cfg.Property)
	}
	if err := cfg.Validate(d.surf.Layout); err != nil {
		return err
	}
	proj := d.Project(cfg)
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.spec.Reconfigurable && d.fabricated {
		return ErrFixed
	}
	d.codebook = surface.Codebook{}
	d.codebook.Add("active", proj)
	d.active = 0
	d.fabricated = true
	d.updates++
	return nil
}

// StoreCodebook asynchronously replaces the device's locally stored
// configurations (the paper's control/data decoupling: the control plane
// pushes codebooks; the device picks entries in real time from endpoint
// feedback). Entry 0 becomes active. Passive surfaces accept exactly one
// entry, once. Each entry is stored as Project leaves it; an entry that is
// already realizable (Realize's output, say) is stored without projecting
// it again.
func (d *Driver) StoreCodebook(labels []string, cfgs []surface.Config) error {
	if err := d.gate(); err != nil {
		return err
	}
	if len(cfgs) == 0 || len(labels) != len(cfgs) {
		return fmt.Errorf("driver: codebook needs matching labels and configs")
	}
	if d.spec.CodebookSlots > 0 && len(cfgs) > d.spec.CodebookSlots {
		return fmt.Errorf("%w: %d entries for %d slots", ErrCodebookFull, len(cfgs), d.spec.CodebookSlots)
	}
	d.mu.Lock()
	biased := d.bias != nil
	d.mu.Unlock()
	stuck := d.stuckMask()
	projected := make([]surface.Config, len(cfgs))
	for i, cfg := range cfgs {
		if cfg.Property != d.spec.Control {
			return fmt.Errorf("%w: %s controls %v, got %v",
				ErrUnsupportedProperty, d.spec.Model, d.spec.Control, cfg.Property)
		}
		if err := cfg.Validate(d.surf.Layout); err != nil {
			return fmt.Errorf("driver: codebook entry %d: %w", i, err)
		}
		projected[i] = cfg
		if !d.realized(cfg, biased, stuck) {
			projected[i] = d.Project(cfg)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.spec.Reconfigurable {
		if d.fabricated {
			return ErrFixed
		}
		if len(cfgs) > 1 {
			return fmt.Errorf("%w: passive design stores a single pattern", ErrCodebookFull)
		}
	}
	d.codebook = surface.Codebook{}
	for i := range projected {
		d.codebook.Add(labels[i], projected[i])
	}
	d.active = 0
	d.fabricated = true
	d.updates++
	return nil
}

// Select activates stored codebook entry i — the device-local real-time
// reaction to endpoint feedback. Selection does not count as a control
// plane update and is rejected for passive hardware only when changing
// entries (a passive device has one entry).
func (d *Driver) Select(i int) error {
	if err := d.gate(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.codebook.At(i); err != nil {
		return err
	}
	d.active = i
	return nil
}

// Active returns the live configuration and its codebook label. ok is
// false when nothing is programmed yet.
func (d *Driver) Active() (cfg surface.Config, label string, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.active < 0 || d.active >= d.codebook.Len() {
		return surface.Config{}, "", false
	}
	c, _ := d.codebook.At(d.active)
	return c, d.codebook.Labels[d.active], true
}

// CodebookLen returns the number of stored configurations.
func (d *Driver) CodebookLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.codebook.Len()
}

// Updates returns how many control-plane writes the device has accepted.
func (d *Driver) Updates() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.updates
}

// CostUSD returns this panel's hardware cost under the design's cost model.
func (d *Driver) CostUSD() float64 { return d.spec.CostUSD(d.surf.NumElements()) }
