package broker

import (
	"fmt"
	"strconv"
	"strings"
	"text/template"
	"time"

	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/surface"
)

// GenerateSpec parses a datasheet-style specification sheet into a driver
// spec — the paper's §3.4 "hardware driver generation" path, where a model
// (an LLM in the paper, a deterministic parser here) extracts a
// machine-readable specification from vendor documentation. The sheet is a
// sequence of "key: value" lines:
//
//	model: AcmeSurface
//	reference: datasheet v2
//	band: 23-25 GHz
//	control: phase
//	mode: reflective
//	granularity: column
//	bits: 2
//	control_delay: 100us
//	cost_per_element: 2.5
//	fixed_cost: 100
//	efficiency: 0.8
//
// Unknown keys are rejected so typos surface immediately.
func GenerateSpec(sheet string) (driver.Spec, error) {
	spec := driver.Spec{
		Reconfigurable:    true,
		Granularity:       surface.ElementWise,
		Control:           surface.Phase,
		OpMode:            surface.Reflective,
		ElementEfficiency: 0.8,
	}
	seen := map[string]bool{}
	for ln, raw := range strings.Split(sheet, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return driver.Spec{}, fmt.Errorf("broker: spec sheet line %d: no key: %q", ln+1, line)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		if seen[key] {
			return driver.Spec{}, fmt.Errorf("broker: spec sheet line %d: duplicate key %q", ln+1, key)
		}
		seen[key] = true
		if err := applySpecField(&spec, key, val); err != nil {
			return driver.Spec{}, fmt.Errorf("broker: spec sheet line %d: %w", ln+1, err)
		}
	}
	if spec.Response == nil && spec.FreqLowHz > 0 {
		// Default in-band response when the sheet doesn't give one.
		spec.Response = em.MustMaterial(spec.Model+"-response",
			em.MaterialPoint{FreqHz: spec.FreqLowHz / 4, Reflection: 0.05, Transmission: 0.95},
			em.MaterialPoint{FreqHz: spec.FreqLowHz, Reflection: 0.6, Transmission: 0.3},
			em.MaterialPoint{FreqHz: spec.FreqHighHz, Reflection: 0.6, Transmission: 0.3},
		)
	}
	if err := spec.Validate(); err != nil {
		return driver.Spec{}, err
	}
	return spec, nil
}

func applySpecField(spec *driver.Spec, key, val string) error {
	switch key {
	case "model":
		spec.Model = val
	case "reference":
		spec.Reference = val
	case "band":
		lo, hi, err := parseBand(val)
		if err != nil {
			return err
		}
		spec.FreqLowHz, spec.FreqHighHz = lo, hi
	case "control":
		switch strings.ToLower(val) {
		case "phase":
			spec.Control = surface.Phase
		case "amplitude":
			spec.Control = surface.Amplitude
		case "polarization":
			spec.Control = surface.Polarization
		case "frequency":
			spec.Control = surface.Frequency
		default:
			return fmt.Errorf("unknown control property %q", val)
		}
	case "mode":
		switch strings.ToLower(val) {
		case "reflective", "r":
			spec.OpMode = surface.Reflective
		case "transmissive", "t":
			spec.OpMode = surface.Transmissive
		case "transflective", "t&r", "tr":
			spec.OpMode = surface.Transflective
		default:
			return fmt.Errorf("unknown mode %q", val)
		}
	case "granularity":
		switch strings.ToLower(val) {
		case "element", "element-wise":
			spec.Granularity = surface.ElementWise
		case "column", "column-wise":
			spec.Granularity = surface.ColumnWise
		case "row", "row-wise":
			spec.Granularity = surface.RowWise
		case "fixed", "passive":
			spec.Granularity = surface.FixedPattern
			spec.Reconfigurable = false
		default:
			return fmt.Errorf("unknown granularity %q", val)
		}
	case "bits":
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("bits: %w", err)
		}
		spec.PhaseBits = n
	case "control_delay":
		d, err := time.ParseDuration(val)
		if err != nil {
			return fmt.Errorf("control_delay: %w", err)
		}
		spec.ControlDelay = d
	case "cost_per_element":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("cost_per_element: %w", err)
		}
		spec.CostPerElementUSD = f
	case "fixed_cost":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("fixed_cost: %w", err)
		}
		spec.FixedCostUSD = f
	case "efficiency":
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return fmt.Errorf("efficiency: %w", err)
		}
		spec.ElementEfficiency = f
	default:
		return fmt.Errorf("unknown key %q", key)
	}
	return nil
}

// parseBand parses "23-25 GHz", "2.4GHz", "900 MHz - 6 GHz".
func parseBand(s string) (lo, hi float64, err error) {
	parts := strings.Split(s, "-")
	if len(parts) == 1 {
		f, err := parseFreq(parts[0])
		if err != nil {
			return 0, 0, err
		}
		// Single-frequency sheets get a ±2% band.
		return f * 0.98, f * 1.02, nil
	}
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("band %q: want LOW-HIGH", s)
	}
	lo, err = parseFreq(parts[0])
	if err != nil {
		return 0, 0, err
	}
	hi, err = parseFreq(parts[1])
	if err != nil {
		return 0, 0, err
	}
	// "23-25 GHz": the low part may have no unit; inherit the high part's
	// scale when the bare number would be below 1 kHz.
	if lo < 1e3 && hi >= 1e6 {
		lo *= hi / func() float64 {
			v, _ := strconv.ParseFloat(strings.TrimSpace(trimUnit(parts[1])), 64)
			return v
		}()
	}
	if lo > hi {
		return 0, 0, fmt.Errorf("band %q: low above high", s)
	}
	return lo, hi, nil
}

func trimUnit(s string) string {
	s = strings.TrimSpace(strings.ToLower(s))
	for _, u := range []string{"ghz", "mhz", "khz", "hz"} {
		s = strings.TrimSuffix(s, u)
	}
	return strings.TrimSpace(s)
}

func parseFreq(s string) (float64, error) {
	t := strings.TrimSpace(strings.ToLower(s))
	mult := 1.0
	switch {
	case strings.HasSuffix(t, "ghz"):
		mult = 1e9
	case strings.HasSuffix(t, "mhz"):
		mult = 1e6
	case strings.HasSuffix(t, "khz"):
		mult = 1e3
	case strings.HasSuffix(t, "hz"):
		mult = 1
	default:
		// bare number: caller may rescale
		v, err := strconv.ParseFloat(t, 64)
		return v, err
	}
	v, err := strconv.ParseFloat(trimUnit(t), 64)
	if err != nil {
		return 0, fmt.Errorf("frequency %q: %w", s, err)
	}
	return v * mult, nil
}

// driverTemplate renders a registration source file for a generated spec.
var driverTemplate = template.Must(template.New("driver").Parse(`// Code generated by the SurfOS driver generator; edit the spec sheet instead.

package drivers

import (
	"time"

	"surfos/internal/driver"
	"surfos/internal/surface"
)

// Register{{.Ident}} adds the {{printf "%q" .Model}} design to the driver catalog.
func Register{{.Ident}}() {
	driver.Register(driver.Spec{
		Model:             {{printf "%q" .Model}},
		Reference:         {{printf "%q" .Reference}},
		FreqLowHz:         {{.FreqLowHz}},
		FreqHighHz:        {{.FreqHighHz}},
		Control:           surface.{{.ControlIdent}},
		OpMode:            {{.OpModeExpr}},
		Granularity:       surface.{{.GranularityIdent}},
		Reconfigurable:    {{.Reconfigurable}},
		PhaseBits:         {{.PhaseBits}},
		ControlDelay:      {{.ControlDelayNs}} * time.Nanosecond,
		CostPerElementUSD: {{.CostPerElementUSD}},
		FixedCostUSD:      {{.FixedCostUSD}},
		ElementEfficiency: {{.ElementEfficiency}},
	})
}
`))

// GenerateDriverSource renders Go source registering the spec — the second
// half of the paper's automation story ("LLMs may further synthesize the
// driver code based on the specifications generated").
func GenerateDriverSource(spec driver.Spec) (string, error) {
	if err := spec.Validate(); err != nil {
		return "", err
	}
	ident := identFor(spec.Model)
	data := map[string]any{
		"Ident":             ident,
		"Model":             spec.Model,
		"Reference":         spec.Reference,
		"FreqLowHz":         fmt.Sprintf("%g", spec.FreqLowHz),
		"FreqHighHz":        fmt.Sprintf("%g", spec.FreqHighHz),
		"ControlIdent":      controlIdent(spec.Control),
		"OpModeExpr":        opModeExpr(spec.OpMode),
		"GranularityIdent":  granularityIdent(spec.Granularity),
		"Reconfigurable":    spec.Reconfigurable,
		"PhaseBits":         spec.PhaseBits,
		"ControlDelayNs":    spec.ControlDelay.Nanoseconds(),
		"CostPerElementUSD": spec.CostPerElementUSD,
		"FixedCostUSD":      spec.FixedCostUSD,
		"ElementEfficiency": spec.ElementEfficiency,
	}
	var b strings.Builder
	if err := driverTemplate.Execute(&b, data); err != nil {
		return "", err
	}
	return b.String(), nil
}

func identFor(model string) string {
	var b strings.Builder
	up := true
	for _, r := range model {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			if up {
				b.WriteString(strings.ToUpper(string(r)))
				up = false
			} else {
				b.WriteRune(r)
			}
		default:
			up = true
		}
	}
	return b.String()
}

func controlIdent(c surface.ControlProperty) string {
	switch c {
	case surface.Amplitude:
		return "Amplitude"
	case surface.Polarization:
		return "Polarization"
	case surface.Frequency:
		return "Frequency"
	case surface.Impedance:
		return "Impedance"
	case surface.Diffraction:
		return "Diffraction"
	}
	return "Phase"
}

func opModeExpr(m surface.OpMode) string {
	switch m {
	case surface.Transmissive:
		return "surface.Transmissive"
	case surface.Transflective:
		return "surface.Transflective"
	}
	return "surface.Reflective"
}

func granularityIdent(g surface.Granularity) string {
	switch g {
	case surface.ColumnWise:
		return "ColumnWise"
	case surface.RowWise:
		return "RowWise"
	case surface.FixedPattern:
		return "FixedPattern"
	}
	return "ElementWise"
}
