package broker

import (
	"context"
	"go/parser"
	"go/token"
	"strings"
	"testing"
	"time"

	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/orchestrator"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// --- translation (Figure 6 parity) ---

func TestFigure6VRGaming(t *testing.T) {
	tr := NewTranslator()
	calls, err := tr.Translate("I want to start VR gaming in this room.")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`enhance_link("VR_headset", snr=30.0, latency=10.0)`,
		`enable_sensing("room_id", type="tracking", duration=3600)`,
		`optimize_coverage("room_id", median_snr=25)`,
	}
	if len(calls) != len(want) {
		t.Fatalf("got %d calls: %v", len(calls), calls)
	}
	for i, c := range calls {
		if c.String() != want[i] {
			t.Errorf("call %d = %s, want %s", i, c, want[i])
		}
	}
}

func TestFigure6MeetingWhileCharging(t *testing.T) {
	tr := NewTranslator()
	calls, err := tr.Translate("I want to have an online meeting while charging my phone.")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`enhance_link("laptop", snr=20.0, latency=50.0)`,
		`enable_sensing("meeting_room", type="tracking", duration=3600)`,
		`init_powering("phone", duration=3600)`,
	}
	got := make([]string, len(calls))
	for i, c := range calls {
		got[i] = c.String()
	}
	for _, w := range want {
		found := false
		for _, g := range got {
			if g == w {
				found = true
			}
		}
		if !found {
			t.Errorf("missing call %s in %v", w, got)
		}
	}
	if len(calls) != len(want) {
		t.Errorf("got %d calls %v, want %d", len(calls), got, len(want))
	}
}

func TestTranslateRoomAlias(t *testing.T) {
	tr := NewTranslator()
	tr.Rooms["bedroom"] = "target_room"
	calls, err := tr.Translate("the wifi is a dead zone in the bedroom")
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0].Function != FuncOptimizeCoverage {
		t.Fatalf("calls = %v", calls)
	}
	if room, _ := calls[0].Positional(0); room != "target_room" {
		t.Errorf("room = %v, want target_room", room)
	}
}

func TestTranslateNoMatch(t *testing.T) {
	tr := NewTranslator()
	if _, err := tr.Translate("what is the meaning of life"); err == nil {
		t.Error("nonsense demand matched")
	}
}

func TestTranslateCompoundAndDedupe(t *testing.T) {
	tr := NewTranslator()
	calls, err := tr.Translate("charge my phone and also charging the other phone")
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 {
		t.Errorf("duplicate powering calls not deduped: %v", calls)
	}
}

func TestTranslateSecurity(t *testing.T) {
	tr := NewTranslator()
	calls, err := tr.Translate("I need to send sensitive documents")
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0].Function != FuncSecureLink {
		t.Fatalf("calls = %v", calls)
	}
}

func TestCallRendering(t *testing.T) {
	c := Call{Function: "f", Args: []Arg{
		{Value: "x"}, {Name: "a", Value: 1.5}, {Name: "b", Value: 7}, {Name: "c", Value: true},
	}}
	if got := c.String(); got != `f("x", a=1.5, b=7, c=true)` {
		t.Errorf("render = %s", got)
	}
	if v, ok := c.Positional(0); !ok || v != "x" {
		t.Error("positional lookup broken")
	}
	if _, ok := c.Positional(1); ok {
		t.Error("phantom positional")
	}
	if v, ok := c.Named("b"); !ok || v != 7 {
		t.Error("named lookup broken")
	}
	if _, ok := c.Named("zz"); ok {
		t.Error("phantom named arg")
	}
}

func TestProfilesListed(t *testing.T) {
	tr := NewTranslator()
	names := tr.Profiles()
	if len(names) < 6 {
		t.Errorf("only %d profiles", len(names))
	}
	tr.AddProfile(Profile{Name: "custom", Keywords: []string{"zzz"}, Build: func(*Context) []Call {
		return []Call{{Function: "noop"}}
	}})
	if len(tr.Profiles()) != len(names)+1 {
		t.Error("AddProfile did not register")
	}
}

// --- dispatch ---

func dispatchRig(t *testing.T) *Broker {
	t.Helper()
	apt := scene.NewApartment()
	hw := hwmgr.New()

	spec, err := driver.Lookup(driver.ModelNRSurface)
	if err != nil {
		t.Fatal(err)
	}
	pitch := em.Wavelength(24e9) / 2
	m := apt.Mounts[scene.MountEastWall]
	s, err := surface.New("s0", m.Panel(16*pitch+0.02, 16*pitch+0.02),
		surface.Layout{Rows: 16, Cols: 16, PitchU: pitch, PitchV: pitch}, surface.Reflective, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := driver.New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.AddSurface("s0", scene.MountEastWall, d); err != nil {
		t.Fatal(err)
	}
	if err := hw.AddAP(&hwmgr.AccessPoint{ID: "ap0", Pos: apt.AP, FreqHz: 24e9, Budget: rfsim.DefaultBudget(), Antennas: 4}); err != nil {
		t.Fatal(err)
	}
	o, err := orchestrator.New(apt.Scene, hw, orchestrator.Options{
		OptIters: 30, GridStep: 1.5, SensingGridStep: 2.5, SensingBins: 11, SensingSubcarriers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTranslator()
	tr.DefaultRoom = "room_id"
	b, err := New(tr, o, Inventory{
		Devices: map[string]geom.Vec3{
			"VR_headset": geom.V(2.5, 5.5, 1.2),
			"laptop":     geom.V(3.0, 5.0, 1.0),
			"phone":      geom.V(5.0, 6.0, 1.0),
			"tv":         geom.V(1.5, 6.5, 1.5),
		},
		RoomRegions: map[string]string{
			"room_id":      scene.RegionTargetRoom,
			"meeting_room": scene.RegionTargetRoom,
		},
		EvePos: geom.V(6.0, 4.5, 1.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestHandleDemandCreatesTasks(t *testing.T) {
	b := dispatchRig(t)
	calls, tasks, err := b.HandleDemand(context.Background(), "time for some VR gaming here")
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 3 || len(tasks) != 3 {
		t.Fatalf("calls=%d tasks=%d", len(calls), len(tasks))
	}
	kinds := map[orchestrator.ServiceKind]bool{}
	for _, task := range tasks {
		kinds[task.Kind] = true
	}
	if !kinds[orchestrator.ServiceLink] || !kinds[orchestrator.ServiceSensing] || !kinds[orchestrator.ServiceCoverage] {
		t.Errorf("task kinds: %v", kinds)
	}
	// The link goal carried the translated thresholds.
	for _, task := range tasks {
		if g, ok := task.Goal.(orchestrator.LinkGoal); ok {
			if g.MinSNRdB != 30 || g.MaxLatency != 10*time.Millisecond {
				t.Errorf("link goal: %+v", g)
			}
		}
		if g, ok := task.Goal.(orchestrator.SensingGoal); ok {
			if g.Duration != time.Hour || g.Region != scene.RegionTargetRoom {
				t.Errorf("sensing goal: %+v", g)
			}
		}
	}
	// The created tasks schedule successfully end to end.
	if err := b.O.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		got, _ := b.O.Task(task.ID)
		if got.State != orchestrator.TaskRunning {
			t.Errorf("task %d (%v) state %v err=%v", got.ID, got.Kind, got.State, got.Err)
		}
	}
}

func TestDispatchUnknownDevice(t *testing.T) {
	b := dispatchRig(t)
	_, err := b.Dispatch(context.Background(), Call{Function: FuncEnhanceLink, Args: []Arg{{Value: "toaster"}}})
	if err == nil {
		t.Error("unknown device accepted")
	}
	_, err = b.Dispatch(context.Background(), Call{Function: "fly_to_moon"})
	if err == nil {
		t.Error("unknown function accepted")
	}
	_, err = b.Dispatch(context.Background(), Call{Function: FuncEnableSensing})
	if err == nil {
		t.Error("sensing without a room accepted")
	}
}

func TestSecureLinkDispatch(t *testing.T) {
	b := dispatchRig(t)
	task, err := b.Dispatch(context.Background(), Call{Function: FuncSecureLink, Args: []Arg{{Value: "laptop"}}})
	if err != nil {
		t.Fatal(err)
	}
	g := task.Goal.(orchestrator.SecurityGoal)
	if g.EvePos != b.Inv.EvePos {
		t.Errorf("eve pos = %v", g.EvePos)
	}
}

// --- driver generation ---

const sampleSheet = `
# Acme vendor datasheet extract
model: Acme Surface X1
reference: datasheet v2
band: 23-25 GHz
control: phase
mode: reflective
granularity: column
bits: 2
control_delay: 100us
cost_per_element: 2.5
fixed_cost: 100
efficiency: 0.8
`

func TestGenerateSpec(t *testing.T) {
	spec, err := GenerateSpec(sampleSheet)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Model != "Acme Surface X1" || spec.FreqLowHz != 23e9 || spec.FreqHighHz != 25e9 {
		t.Errorf("spec: %+v", spec)
	}
	if spec.Granularity != surface.ColumnWise || spec.PhaseBits != 2 {
		t.Errorf("constraints: %+v", spec)
	}
	if spec.ControlDelay != 100*time.Microsecond {
		t.Errorf("delay: %v", spec.ControlDelay)
	}
	if spec.Response == nil {
		t.Error("no default response synthesized")
	}
}

func TestGenerateSpecPassive(t *testing.T) {
	spec, err := GenerateSpec("model: Cheapo\nband: 60GHz\ngranularity: fixed\ncost_per_element: 0.001")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Reconfigurable {
		t.Error("fixed granularity should imply passive")
	}
	if spec.FreqLowHz >= spec.FreqHighHz {
		t.Errorf("single-frequency band: %g-%g", spec.FreqLowHz, spec.FreqHighHz)
	}
}

func TestGenerateSpecMixedUnits(t *testing.T) {
	spec, err := GenerateSpec("model: Wide\nband: 900 MHz - 6 GHz")
	if err != nil {
		t.Fatal(err)
	}
	if spec.FreqLowHz != 900e6 || spec.FreqHighHz != 6e9 {
		t.Errorf("band: %g-%g", spec.FreqLowHz, spec.FreqHighHz)
	}
}

func TestGenerateSpecErrors(t *testing.T) {
	cases := []string{
		"model: X\nband: 25-23 GHz",            // inverted band
		"model: X\nband: 24 GHz\nwarp: 9",      // unknown key
		"model: X\nband: 24GHz\nmodel: Y",      // duplicate key
		"model: X\nband: 24 GHz\nbits: many",   // bad number
		"model: X\nband: 24 GHz\ncontrol: uhf", // unknown control
		"just some words",                      // no key
		"model: X",                             // missing band → invalid spec
		"model: X\nband: 1-Inf GHz",            // non-finite band
		"model: X\nband: 24 GHz\nefficiency: NaN",
		"model: X\nband: 24 GHz\nfixed_cost: Inf",
	}
	for i, c := range cases {
		if _, err := GenerateSpec(c); err == nil {
			t.Errorf("case %d accepted: %q", i, c)
		}
	}
}

func TestGenerateDriverSourceCompiles(t *testing.T) {
	spec, err := GenerateSpec(sampleSheet)
	if err != nil {
		t.Fatal(err)
	}
	src, err := GenerateDriverSource(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, `"Acme Surface X1"`) || !strings.Contains(src, "RegisterAcmeSurfaceX1") {
		t.Errorf("source missing identifiers:\n%s", src)
	}
	if !strings.Contains(src, "surface.ColumnWise") {
		t.Error("granularity not rendered")
	}
	// The generated file must parse as valid Go.
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
		t.Errorf("generated source does not parse: %v\n%s", err, src)
	}
}

func TestGenerateDriverSourceRejectsInvalid(t *testing.T) {
	if _, err := GenerateDriverSource(driver.Spec{}); err == nil {
		t.Error("invalid spec rendered")
	}
}

func TestIdentFor(t *testing.T) {
	cases := map[string]string{
		"NR-Surface":  "NRSurface",
		"mmWall":      "MmWall",
		"acme x1 pro": "AcmeX1Pro",
	}
	for in, want := range cases {
		if got := identFor(in); got != want {
			t.Errorf("identFor(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestAdditionalProfiles(t *testing.T) {
	tr := NewTranslator()
	cases := map[string]string{
		"invite friends for game night on the console": FuncEnhanceLink,
		"please backup my photos overnight":            FuncEnhanceLink,
		"keep the tags alive with energy harvesting":   FuncInitPowering,
	}
	for utterance, wantFn := range cases {
		calls, err := tr.Translate(utterance)
		if err != nil {
			t.Errorf("%q: %v", utterance, err)
			continue
		}
		found := false
		for _, c := range calls {
			if c.Function == wantFn {
				found = true
			}
		}
		if !found {
			t.Errorf("%q produced %v, want a %s call", utterance, calls, wantFn)
		}
	}
}
