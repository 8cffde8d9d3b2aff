package broker

import (
	"errors"
	"go/parser"
	"go/token"
	"math"
	"testing"
)

// FuzzTranslate feeds arbitrary utterances to the intent translator: it must
// not panic, and it either matches a profile and returns at least one named
// call or reports ErrNoProfileMatch.
func FuzzTranslate(f *testing.F) {
	for _, s := range []string{
		"I want to start VR gaming in this room.",
		"I want to have an online meeting while charging my phone.",
		"the wifi is a dead zone in the bedroom",
		"charge my phone and also charging the other phone",
		"I need to send sensitive documents",
		"what is the meaning of life",
		"",
		"\xff\xfe ÉCRAN Ǆ",
	} {
		f.Add(s)
	}
	tr := NewTranslator()
	f.Fuzz(func(t *testing.T, utterance string) {
		calls, err := tr.Translate(utterance)
		if err != nil {
			if !errors.Is(err, ErrNoProfileMatch) {
				t.Fatalf("Translate(%q): unexpected error %v", utterance, err)
			}
			return
		}
		if len(calls) == 0 {
			t.Fatalf("Translate(%q) matched with no calls", utterance)
		}
		for _, c := range calls {
			if c.Function == "" {
				t.Fatalf("Translate(%q) returned an unnamed call %v", utterance, c)
			}
		}
	})
}

// FuzzGenerateSpec feeds arbitrary spec sheets to the driver generator: a
// sheet it accepts must yield a spec that passes Spec.Validate, whose
// numbers are finite (NaN and Inf render as identifiers, not Go literals),
// and that renders to driver source that parses as Go.
func FuzzGenerateSpec(f *testing.F) {
	for _, s := range []string{
		sampleSheet,
		"model: Cheapo\nband: 60GHz\ngranularity: fixed\ncost_per_element: 0.001",
		"model: Wide\nband: 900 MHz - 6 GHz",
		"model: X\nband: 24 GHz\nefficiency: NaN",
		"model: X\nband: 1-Inf GHz",
		"model: X\nband: 24GHz\nbits: 99",
		"model: \"q`\\\nreference: */ //\nband: 5GHz",
		"nokey",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, sheet string) {
		spec, err := GenerateSpec(sheet)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("accepted sheet %q gives an invalid spec: %v", sheet, err)
		}
		for _, v := range []float64{spec.FreqLowHz, spec.FreqHighHz, spec.CostPerElementUSD, spec.FixedCostUSD, spec.ElementEfficiency} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted sheet %q has a non-finite number: %+v", sheet, spec)
			}
		}
		src, err := GenerateDriverSource(spec)
		if err != nil {
			t.Fatalf("accepted sheet %q: source generation failed: %v", sheet, err)
		}
		if _, err := parser.ParseFile(token.NewFileSet(), "driver.go", src, 0); err != nil {
			t.Fatalf("accepted sheet %q renders source that does not parse: %v\n%s", sheet, err, src)
		}
	})
}
