package driver

import (
	"errors"
	"math"
	"os"
	"strconv"
	"testing"

	"surfos/internal/surface"
)

// faultSeed returns the suite's fault-injection seed: SURFOS_FAULT_SEED
// when set (`make test-faults` replays the suite at several), else def.
// Every assertion in this file is seed-robust by construction.
func faultSeed(def int64) int64 {
	if s := os.Getenv("SURFOS_FAULT_SEED"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil {
			return n
		}
	}
	return def
}

func faultyDriver(t *testing.T, seed int64) (*Driver, *FaultModel) {
	t.Helper()
	d, err := New(mustSpec(t, ModelLAIA), testSurface(t, surface.Transmissive, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	fm := NewFaultModel(seed)
	d.SetFaults(fm)
	return d, fm
}

func phaseConfig(n int, v float64) surface.Config {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = v
	}
	return surface.Config{Property: surface.Phase, Values: vals}
}

func TestFaultStuckElementPinnedByProject(t *testing.T) {
	d, fm := faultyDriver(t, faultSeed(1))
	fm.StickElement(3, 1.25)
	fm.StickElement(7, 0)

	got := d.Project(phaseConfig(16, math.Pi/2))
	if got.Values[3] != 1.25 || got.Values[7] != 0 {
		t.Fatalf("stuck elements not pinned: got [3]=%g [7]=%g", got.Values[3], got.Values[7])
	}
	for i, v := range got.Values {
		if i != 3 && i != 7 && math.Abs(v-math.Pi/2) > 1e-9 {
			t.Fatalf("healthy element %d disturbed: %g", i, v)
		}
	}

	// Pinning is idempotent through a second projection.
	again := d.Project(got)
	if again.Values[3] != 1.25 || again.Values[7] != 0 {
		t.Fatal("Project not idempotent over stuck elements")
	}

	// The applied (active) configuration realizes the pinned values.
	if err := d.ShiftPhase(phaseConfig(16, math.Pi/2)); err != nil {
		t.Fatal(err)
	}
	eff, ok := d.EffectiveActive()
	if !ok || eff.Values[3] != 1.25 {
		t.Fatalf("EffectiveActive ok=%v values=%v", ok, eff.Values)
	}

	fm.RepairElement(3)
	if got := d.Project(phaseConfig(16, math.Pi/2)); math.Abs(got.Values[3]-math.Pi/2) > 1e-9 {
		t.Fatalf("repaired element still pinned: %g", got.Values[3])
	}
	if se := d.StuckElements(); len(se) != 1 || se[0] != 7 {
		t.Fatalf("StuckElements = %v, want [7]", se)
	}
}

func TestFaultDeadDevice(t *testing.T) {
	d, fm := faultyDriver(t, faultSeed(1))
	if err := d.ShiftPhase(phaseConfig(16, math.Pi/2)); err != nil {
		t.Fatal(err)
	}
	fm.SetDead(true)

	if err := d.ShiftPhase(phaseConfig(16, 1)); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("ShiftPhase on dead device: %v", err)
	}
	if err := d.StoreCodebook([]string{"a"}, []surface.Config{phaseConfig(16, 1)}); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("StoreCodebook on dead device: %v", err)
	}
	if err := d.Select(0); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("Select on dead device: %v", err)
	}
	if err := d.Probe(); !errors.Is(err, ErrDeviceDead) {
		t.Fatalf("Probe on dead device: %v", err)
	}

	// Dead panel fails safe: neutral all-zero profile, still evaluable.
	eff, ok := d.EffectiveActive()
	if !ok {
		t.Fatal("EffectiveActive should report the fail-safe profile")
	}
	for i, v := range eff.Values {
		if v != 0 {
			t.Fatalf("dead panel element %d not neutral: %g", i, v)
		}
	}

	// Revival restores the last programmed configuration.
	fm.SetDead(false)
	eff, ok = d.EffectiveActive()
	if !ok || math.Abs(eff.Values[0]-math.Pi/2) > 1e-9 {
		t.Fatalf("after revival: ok=%v values[0]=%v", ok, eff.Values[0])
	}
	if err := d.Probe(); err != nil {
		t.Fatalf("Probe after revival: %v", err)
	}
}

func TestFaultTransientFailuresDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		d, fm := faultyDriver(t, seed)
		fm.SetFailProb(0.5)
		pattern := make([]bool, 40)
		for i := range pattern {
			err := d.ShiftPhase(phaseConfig(16, math.Pi/2))
			if err != nil && !errors.Is(err, ErrInjectedFailure) {
				t.Fatalf("call %d: unexpected error %v", i, err)
			}
			pattern[i] = err != nil
		}
		if fails := fm.InjectedFailures(); fails == 0 || fails == len(pattern) {
			t.Fatalf("fail count %d not in (0, %d): probability gate broken", fails, len(pattern))
		}
		return pattern
	}
	a, b := run(faultSeed(7)), run(faultSeed(7))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
}

func TestFaultUnconfiguredEffectiveActive(t *testing.T) {
	d, _ := faultyDriver(t, faultSeed(1))
	if _, ok := d.EffectiveActive(); ok {
		t.Fatal("unconfigured live device should have no effective config")
	}
	// And a driver with no fault model behaves identically to before.
	plain, err := New(mustSpec(t, ModelLAIA), testSurface(t, surface.Transmissive, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.ShiftPhase(phaseConfig(16, math.Pi/2)); err != nil {
		t.Fatal(err)
	}
	if eff, ok := plain.EffectiveActive(); !ok || math.Abs(eff.Values[2]-math.Pi/2) > 1e-9 {
		t.Fatalf("plain driver EffectiveActive: ok=%v %v", ok, eff.Values)
	}
	if plain.StuckElements() != nil || plain.Probe() != nil {
		t.Fatal("plain driver should report no faults")
	}
}

// A passive panel plans like any other until it is fabricated: its control
// map is the element map. Once fabricated it has no lines; every element is
// held at its burned-in phase, and Realize returns that pattern whatever it
// is asked. Elements stuck after fabrication are pinned on top.
func TestFabricatedPassiveControlMapStuck(t *testing.T) {
	d, err := New(mustSpec(t, ModelAutoMS), testSurface(t, surface.Reflective, 3, 3))
	if err != nil {
		t.Fatal(err)
	}
	if m := d.ControlMap(); !m.Identity() {
		t.Fatalf("unfabricated passive map is not the element map: %+v", m)
	}
	vals := make([]float64, 9)
	for k := range vals {
		vals[k] = 0.4 * float64(k)
	}
	if err := d.ShiftPhase(surface.Config{Property: surface.Phase, Values: vals}); err != nil {
		t.Fatal(err)
	}
	burned, _, _ := d.Active()
	check := func(want []float64) {
		t.Helper()
		m := d.ControlMap()
		if m.Groups != 0 || len(m.Group) != 9 {
			t.Fatalf("fabricated map has %d lines over %d elements, want 0 over 9", m.Groups, len(m.Group))
		}
		for k, g := range m.Group {
			if g != -1 {
				t.Fatalf("element %d drives line %d on a fabricated panel", k, g)
			}
		}
		if !sameBits(m.Offset, want) {
			t.Fatalf("held phases %v, want %v", m.Offset, want)
		}
		if got := d.Realize(nil); got.Property != surface.Phase || !sameBits(got.Values, want) {
			t.Fatalf("Realize = %v, want %v", got.Values, want)
		}
	}
	check(burned.Values)

	fm := NewFaultModel(faultSeed(1))
	d.SetFaults(fm)
	fm.StickElement(4, 2.5)
	pinned := append([]float64(nil), burned.Values...)
	pinned[4] = 2.5
	check(pinned)
	eff, _ := d.EffectiveActive()
	if !sameBits(eff.Values, pinned) {
		t.Errorf("EffectiveActive %v, held phases %v", eff.Values, pinned)
	}
	// The map is a copy: planning cannot rewrite the stored pattern.
	d.ControlMap().Offset[0] = 99
	if again, _, _ := d.Active(); !sameBits(again.Values, burned.Values) {
		t.Error("writing the control map changed the burned-in pattern")
	}
}
