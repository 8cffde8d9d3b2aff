package orchestrator

import (
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
)

// rig is an apartment with an AP and surfaces at the standard mounts.
type rig struct {
	apt *scene.Apartment
	hw  *hwmgr.Manager
	o   *Orchestrator
}

func fastOpts() Options {
	return Options{
		OptIters:           60,
		GridStep:           1.2,
		SensingGridStep:    2.0,
		SensingBins:        15,
		SensingSubcarriers: 4,
	}
}

// addSurface mounts a model at a named apartment mount.
func addSurface(t *testing.T, apt *scene.Apartment, hw *hwmgr.Manager, id, model, mount string, rows, cols int) {
	t.Helper()
	spec, err := driver.Lookup(model)
	if err != nil {
		t.Fatal(err)
	}
	pitch := em.Wavelength(spec.FreqLowHz+(spec.FreqHighHz-spec.FreqLowHz)/2) / 2
	m := apt.Mounts[mount]
	panel := m.Panel(float64(cols)*pitch+0.02, float64(rows)*pitch+0.02)
	mode := spec.OpMode
	if mode == surface.Transflective {
		mode = surface.Reflective
	}
	s, err := surface.New(id, panel, surface.Layout{Rows: rows, Cols: cols, PitchU: pitch, PitchV: pitch}, mode, nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := driver.New(spec, s)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.AddSurface(id, mount, d); err != nil {
		t.Fatal(err)
	}
}

func newRig(t *testing.T, opts Options, models ...string) *rig {
	t.Helper()
	return newRigAt(t, opts, 24e9, models...)
}

// newRigAt is newRig with the AP on freqHz, for models outside the 24 GHz band.
func newRigAt(t *testing.T, opts Options, freqHz float64, models ...string) *rig {
	t.Helper()
	apt := scene.NewApartment()
	hw := hwmgr.New()
	mounts := []string{scene.MountEastWall, scene.MountNorthWall}
	for i, model := range models {
		addSurface(t, apt, hw, model+"-"+mounts[i%2], model, mounts[i%2], 24, 24)
	}
	if err := hw.AddAP(&hwmgr.AccessPoint{
		ID: "ap0", Pos: apt.AP, FreqHz: freqHz,
		Budget:   rfsim.DefaultBudget(),
		Antennas: 4,
	}); err != nil {
		t.Fatal(err)
	}
	o, err := New(apt.Scene, hw, opts)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{apt: apt, hw: hw, o: o}
}

func bedroomPoint() geom.Vec3 { return geom.V(2.5, 5.5, scene.EvalHeight) }

func TestSubmitValidation(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	if _, err := r.o.EnhanceLink(context.Background(), LinkGoal{}, 1); err == nil {
		t.Error("empty endpoint accepted")
	}
	if _, err := r.o.OptimizeCoverage(context.Background(), CoverageGoal{Region: "nope"}, 1); err == nil {
		t.Error("unknown region accepted")
	}
	if _, err := r.o.EnableSensing(context.Background(), SensingGoal{Region: "nope"}, 1); err == nil {
		t.Error("unknown sensing region accepted")
	}
	if _, err := r.o.InitPowering(context.Background(), PowerGoal{}, 1); err == nil {
		t.Error("empty power device accepted")
	}
	if _, err := r.o.SecureLink(context.Background(), SecurityGoal{}, 1); err == nil {
		t.Error("empty security endpoint accepted")
	}
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Error("nil scene/hw accepted")
	}
}

func TestSoloLinkTask(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, err := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "laptop", Pos: bedroomPoint(), MinSNRdB: 0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := r.o.Task(task.ID)
	if got.State != TaskRunning {
		t.Fatalf("task state = %v (err %v)", got.State, got.Err)
	}
	if got.Result == nil || got.Result.MetricName != "snr_db" {
		t.Fatalf("result = %+v", got.Result)
	}
	if got.Result.Strategy != StrategySolo || got.Result.Share != 1 {
		t.Errorf("solo result: %+v", got.Result)
	}
	// The surface must now hold an active configuration.
	dev, _ := r.o.HW.Surface(driver.ModelNRSurface + "-" + scene.MountEastWall)
	if _, _, ok := dev.Drv.Active(); !ok {
		t.Error("device has no active config after reconcile")
	}
	// Optimized SNR must comfortably beat the all-zero (mirror) config.
	plans := r.o.Plans()
	if len(plans) != 1 || plans[0].Strategy != StrategySolo {
		t.Fatalf("plans = %+v", plans)
	}
}

func TestLinkBeatsOffConfig(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	pos := bedroomPoint()
	task, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "e", Pos: pos}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := r.o.Task(task.ID)

	// Baseline: same sim, off config.
	dev, _ := r.o.HW.Surface(driver.ModelNRSurface + "-" + scene.MountEastWall)
	sim, err := rfsim.New(r.apt.Scene, 24e9, dev.Drv.Surface())
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := r.o.HW.AP("ap0")
	h, err := sim.NewTx(ap.Pos).Channel(pos).Eval([]surface.Config{dev.Drv.Surface().Off()})
	if err != nil {
		t.Fatal(err)
	}
	off := ap.Budget.SNRdB(h)
	// Reference: the classic steering codebook entry, projected onto the
	// same hardware constraints (column-wise, 2-bit). The optimizer must
	// at least match it, and both must clearly beat the mirror config.
	steer := dev.Drv.Project(dev.Drv.Surface().SteeringConfig(ap.Pos, pos, 24e9))
	hs, err := sim.NewTx(ap.Pos).Channel(pos).Eval([]surface.Config{steer})
	if err != nil {
		t.Fatal(err)
	}
	ref := ap.Budget.SNRdB(hs)
	if got.Result.Metric < ref-1 {
		t.Errorf("optimized SNR %.1f dB below projected steering %.1f dB", got.Result.Metric, ref)
	}
	if got.Result.Metric < off+3 {
		t.Errorf("optimized SNR %.1f dB not above off-config %.1f dB", got.Result.Metric, off)
	}
}

// TestQuantizedHardwareLinkPlan pins the production path on quantized
// devices: the continuous optimum (for a link, the closed-form solve), one
// projection onto the hardware's phase states. Every pushed config must
// already be realizable (a fixed point of the driver's projection, so the
// reported SNR is the SNR the
// panel delivers), and quantization must not cost more than the optimizer
// gained: the reported SNR is at least the all-zero-phase SNR.
func TestQuantizedHardwareLinkPlan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		model  string
		freqHz float64
	}{
		{"1-bit element-wise", driver.ModelRFlens, 5.4e9},
		{"2-bit element-wise", driver.ModelScatterMIMO, 5.4e9},
		{"2-bit column-wise", driver.ModelNRSurface, 24e9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			r := newRigAt(t, fastOpts(), tc.freqHz, tc.model)
			pos := bedroomPoint()
			task, err := r.o.EnhanceLink(ctx, LinkGoal{Endpoint: "e", Pos: pos}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.o.Reconcile(ctx); err != nil {
				t.Fatal(err)
			}
			got, _ := r.o.Task(task.ID)
			if got.State != TaskRunning {
				t.Fatalf("task state = %v (err %v)", got.State, got.Err)
			}

			dev, _ := r.o.HW.Surface(tc.model + "-" + scene.MountEastWall)
			spec, lay := dev.Drv.Spec(), dev.Drv.Surface().Layout
			step := 2 * math.Pi / float64(int(1)<<spec.PhaseBits)
			pushed := 0
			for _, plan := range r.o.Plans() {
				for _, e := range plan.Entries {
					cfg, ok := e.Configs[dev.ID]
					if !ok {
						continue
					}
					pushed++
					proj := dev.Drv.Project(cfg)
					for i, v := range cfg.Values {
						if math.Abs(proj.Values[i]-v) > 1e-9 {
							t.Fatalf("element %d: pushed %v, hardware realizes %v", i, v, proj.Values[i])
						}
						if k := v / step; math.Abs(k-math.Round(k)) > 1e-9 {
							t.Fatalf("element %d: phase %v is not one of the %d-bit states", i, v, spec.PhaseBits)
						}
						if spec.Granularity == surface.ColumnWise && v != cfg.Values[i%lay.Cols] {
							t.Fatalf("element %d: phase %v differs from its column's %v", i, v, cfg.Values[i%lay.Cols])
						}
					}
				}
			}
			if pushed == 0 {
				t.Fatal("no config pushed to the device")
			}

			ap, _ := r.o.HW.AP("ap0")
			tx, err := r.o.eng.Tx(ctx, r.o.specFor(tc.freqHz, []*hwmgr.Device{dev}), ap.Pos)
			if err != nil {
				t.Fatal(err)
			}
			h, err := tx.Channel(pos).Eval([]surface.Config{dev.Drv.Surface().Off()})
			if err != nil {
				t.Fatal(err)
			}
			if zero := ap.Budget.SNRdB(h); got.Result.Metric < zero {
				t.Errorf("planned SNR %.2f dB below the all-zero-phase SNR %.2f dB", got.Result.Metric, zero)
			}
		})
	}
}

func TestTDMSharesFollowPriority(t *testing.T) {
	opts := fastOpts()
	opts.Policy = PolicyTDM
	r := newRig(t, opts, driver.ModelNRSurface)
	t1, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: geom.V(1.5, 5.0, 1.2)}, 2)
	t2, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "b", Pos: geom.V(5.5, 6.0, 1.2)}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	g1, _ := r.o.Task(t1.ID)
	g2, _ := r.o.Task(t2.ID)
	if g1.State != TaskRunning || g2.State != TaskRunning {
		t.Fatalf("states: %v %v", g1.State, g2.State)
	}
	if g1.Result.Strategy != StrategyTDM {
		t.Errorf("strategy = %v", g1.Result.Strategy)
	}
	// Priority 2 task gets roughly twice the share.
	if g1.Result.Share <= g2.Result.Share {
		t.Errorf("shares: high-prio %v <= low-prio %v", g1.Result.Share, g2.Result.Share)
	}
	if math.Abs(g1.Result.Share+g2.Result.Share-1) > 1e-9 {
		t.Errorf("shares do not sum to 1: %v + %v", g1.Result.Share, g2.Result.Share)
	}
	// The device stores one codebook entry per task.
	dev, _ := r.o.HW.Surface(driver.ModelNRSurface + "-" + scene.MountEastWall)
	if dev.Drv.CodebookLen() != 2 {
		t.Errorf("codebook = %d entries", dev.Drv.CodebookLen())
	}
}

func TestTickRotatesTDM(t *testing.T) {
	opts := fastOpts()
	opts.Policy = PolicyTDM
	r := newRig(t, opts, driver.ModelNRSurface)
	r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: geom.V(1.5, 5.0, 1.2)}, 1)
	r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "b", Pos: geom.V(5.5, 6.0, 1.2)}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	dev, _ := r.o.HW.Surface(driver.ModelNRSurface + "-" + scene.MountEastWall)
	seen := map[string]bool{}
	for i := 0; i < 6; i++ {
		if err := r.o.Tick(context.Background(), 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		_, label, ok := dev.Drv.Active()
		if !ok {
			t.Fatal("no active config during rotation")
		}
		seen[label] = true
	}
	if len(seen) < 2 {
		t.Errorf("TDM rotation never switched entries: %v", seen)
	}
}

func TestJointMultitasking(t *testing.T) {
	opts := fastOpts()
	opts.Policy = PolicyJoint
	r := newRig(t, opts, driver.ModelNRSurface)
	tc, _ := r.o.OptimizeCoverage(context.Background(), CoverageGoal{Region: scene.RegionTargetRoom}, 1)
	tp, _ := r.o.InitPowering(context.Background(), PowerGoal{Device: "tag0", Pos: geom.V(5.0, 5.0, 1.2)}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	gc, _ := r.o.Task(tc.ID)
	gp, _ := r.o.Task(tp.ID)
	if gc.State != TaskRunning || gp.State != TaskRunning {
		t.Fatalf("states: %v(%v) %v(%v)", gc.State, gc.Err, gp.State, gp.Err)
	}
	if gc.Result.Strategy != StrategyJoint || gc.Result.Share != 1 || gp.Result.Share != 1 {
		t.Errorf("joint results: %+v %+v", gc.Result, gp.Result)
	}
	plans := r.o.Plans()
	if len(plans) != 1 || len(plans[0].Entries) != 1 {
		t.Fatalf("joint should produce one single-entry plan: %+v", plans)
	}
	if len(plans[0].Entries[0].TaskIDs) != 2 {
		t.Errorf("entry tasks = %v", plans[0].Entries[0].TaskIDs)
	}
}

func TestSDMAssignsNearestSurface(t *testing.T) {
	opts := fastOpts()
	opts.Policy = PolicySDM
	r := newRig(t, opts, driver.ModelNRSurface, driver.ModelNRSurface)
	// Task A near the east wall, task B near the north wall.
	ta, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: geom.V(6.5, 5.5, 1.2)}, 1)
	tb, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "b", Pos: geom.V(2.2, 6.5, 1.2)}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	ga, _ := r.o.Task(ta.ID)
	gb, _ := r.o.Task(tb.ID)
	if ga.State != TaskRunning || gb.State != TaskRunning {
		t.Fatalf("states: %v %v", ga.State, gb.State)
	}
	if len(ga.Result.Surfaces) != 1 || len(gb.Result.Surfaces) != 1 {
		t.Fatalf("SDM surfaces: %v %v", ga.Result.Surfaces, gb.Result.Surfaces)
	}
	eastID := driver.ModelNRSurface + "-" + scene.MountEastWall
	northID := driver.ModelNRSurface + "-" + scene.MountNorthWall
	if ga.Result.Surfaces[0] != eastID {
		t.Errorf("task a got %v, want east wall", ga.Result.Surfaces)
	}
	if gb.Result.Surfaces[0] != northID {
		t.Errorf("task b got %v, want north wall", gb.Result.Surfaces)
	}
	if ga.Result.Strategy != StrategySDM {
		t.Errorf("strategy = %v", ga.Result.Strategy)
	}
}

func TestAutoPolicyPassiveForcesJoint(t *testing.T) {
	opts := fastOpts()
	r := newRig(t, opts, driver.ModelNRSurface)
	// Add a passive 24 GHz surface (PMSat, transmissive band 20-30 GHz) on
	// the north mount.
	addSurface(t, r.apt, r.hw, "passive0", driver.ModelPMSat, scene.MountNorthWall, 24, 24)
	r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: geom.V(1.5, 5.0, 1.2)}, 1)
	r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "b", Pos: geom.V(5.5, 6.0, 1.2)}, 1)
	r.o.InitPowering(context.Background(), PowerGoal{Device: "tag", Pos: geom.V(4.0, 5.0, 1.2)}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	plans := r.o.Plans()
	if len(plans) != 1 || plans[0].Strategy != StrategyJoint {
		t.Fatalf("passive hardware should force joint multiplexing: %+v", plans)
	}
}

func TestSensingTaskLifecycle(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, err := r.o.EnableSensing(context.Background(), SensingGoal{
		Region: scene.RegionTargetRoom, Type: "tracking", Duration: time.Hour,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := r.o.Task(task.ID)
	if got.State != TaskRunning {
		t.Fatalf("state = %v err=%v", got.State, got.Err)
	}
	if got.Result.MetricName != "mean_loc_err_m" || math.IsNaN(got.Result.Metric) {
		t.Errorf("sensing result: %+v", got.Result)
	}
	// Advance past the deadline: the task completes and resources free.
	if err := r.o.Tick(context.Background(), 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	got, _ = r.o.Task(task.ID)
	if got.State != TaskDone {
		t.Errorf("state after expiry = %v", got.State)
	}
	if plans := r.o.Plans(); len(plans) != 0 {
		t.Errorf("plans not released after task expiry: %+v", plans)
	}
}

func TestIdleReleasesResources(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: bedroomPoint()}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(r.o.Plans()) != 1 {
		t.Fatal("expected one plan")
	}
	if err := r.o.SetIdle(task.ID, true); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if plans := r.o.Plans(); len(plans) != 0 {
		t.Errorf("idle task still holds plans: %+v", plans)
	}
	// Resume.
	if err := r.o.SetIdle(task.ID, false); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(r.o.Plans()) != 1 {
		t.Error("resumed task got no plan")
	}
}

func TestEndTaskReleasesPlan(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: bedroomPoint()}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := r.o.EndTask(task.ID); err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	if plans := r.o.Plans(); len(plans) != 0 {
		t.Errorf("ended task still scheduled: %+v", plans)
	}
	if err := r.o.EndTask(999); err == nil {
		t.Error("unknown task end accepted")
	}
}

func TestNoAPFails(t *testing.T) {
	apt := scene.NewApartment()
	hw := hwmgr.New()
	o, _ := New(apt.Scene, hw, fastOpts())
	o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: bedroomPoint()}, 1)
	if err := o.Reconcile(context.Background()); err == nil {
		t.Error("reconcile without APs should fail")
	}
}

func TestNoSurfaceForBandFailsTask(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	// Ask for 60 GHz: the NR-Surface cannot serve it and no AP carries it.
	task, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: bedroomPoint(), FreqHz: 60e9}, 1)
	_ = r.o.Reconcile(context.Background())
	got, _ := r.o.Task(task.ID)
	if got.State != TaskFailed {
		t.Errorf("state = %v, want failed", got.State)
	}
}

func TestSecurityTask(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	task, err := r.o.SecureLink(context.Background(), SecurityGoal{
		Endpoint: "laptop",
		UserPos:  geom.V(2.5, 5.5, 1.2),
		EvePos:   geom.V(5.5, 4.5, 1.2),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, _ := r.o.Task(task.ID)
	if got.State != TaskRunning {
		t.Fatalf("state = %v err=%v", got.State, got.Err)
	}
	if got.Result.MetricName != "user_eve_snr_gap_db" {
		t.Errorf("result = %+v", got.Result)
	}
	// Security optimization should improve the user-eve gap well beyond the
	// unconfigured surface (the surface cannot cancel the eavesdropper's
	// environment paths, so the absolute gap depends on geometry; the
	// service's job is shifting the balance).
	dev, _ := r.o.HW.Surface(driver.ModelNRSurface + "-" + scene.MountEastWall)
	sim, err := rfsim.New(r.apt.Scene, 24e9, dev.Drv.Surface())
	if err != nil {
		t.Fatal(err)
	}
	ap, _ := r.o.HW.AP("ap0")
	tc := sim.NewTx(ap.Pos)
	off := []surface.Config{dev.Drv.Surface().Off()}
	hu, _ := tc.Channel(geom.V(2.5, 5.5, 1.2)).Eval(off)
	he, _ := tc.Channel(geom.V(5.5, 4.5, 1.2)).Eval(off)
	baseGap := ap.Budget.SNRdB(hu) - ap.Budget.SNRdB(he)
	if got.Result.Metric < baseGap+5 {
		t.Errorf("optimized gap %.1f dB not >> baseline %.1f dB", got.Result.Metric, baseGap)
	}
}

func TestTaskAndStateStrings(t *testing.T) {
	if ServiceLink.String() != "link" || ServiceSensing.String() != "sensing" {
		t.Error("service names wrong")
	}
	if TaskPending.String() != "pending" || TaskFailed.String() != "failed" {
		t.Error("state names wrong")
	}
	if ServiceKind(99).String() == "" || TaskState(99).String() == "" {
		t.Error("unknown values should stringify")
	}
	if PolicyAuto.String() != "auto" || PolicyJoint.String() != "joint" {
		t.Error("policy names wrong")
	}
}

func TestPlanFrameApportionment(t *testing.T) {
	p := &Plan{Entries: []PlanEntry{{Share: 2}, {Share: 1}}}
	p.buildFrame()
	if len(p.frame) != frameSlots {
		t.Fatalf("frame = %v", p.frame)
	}
	if math.Abs(p.shareOf(0)-2.0/3) > 0.1 || math.Abs(p.shareOf(1)-1.0/3) > 0.1 {
		t.Errorf("shares: %v %v", p.shareOf(0), p.shareOf(1))
	}
	// Rotation covers both entries.
	seen := map[int]bool{}
	for i := 0; i < frameSlots; i++ {
		seen[p.nextSlot()] = true
	}
	if !seen[0] || !seen[1] {
		t.Errorf("rotation missed entries: %v", seen)
	}
	// Single entry short-circuits.
	p1 := &Plan{Entries: []PlanEntry{{Share: 1}}}
	p1.buildFrame()
	if p1.nextSlot() != 0 {
		t.Error("single-entry frame broken")
	}
	// Empty plan.
	p0 := &Plan{}
	p0.buildFrame()
	if p0.nextSlot() != -1 {
		t.Error("empty frame should return -1")
	}
	if p0.shareOf(0) != 0 {
		t.Error("empty shareOf should be 0")
	}
}

// fixedFrame is the frame rule before every entry was guaranteed a slot:
// largest-remainder apportionment over exactly frameSlots slots. It is the
// reference the current rule must reproduce wherever it starved nobody.
func fixedFrame(shares []float64) (frame []int, starved bool) {
	var total float64
	for _, s := range shares {
		total += s
	}
	counts := make([]int, len(shares))
	rem := make([]float64, len(shares))
	used := 0
	for i, s := range shares {
		exact := s / total * frameSlots
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		used += counts[i]
	}
	for ; used < frameSlots; used++ {
		best := 0
		for i := range rem {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
	}
	for _, c := range counts {
		starved = starved || c == 0
	}
	for len(frame) < frameSlots {
		for i := range counts {
			if counts[i] > 0 {
				frame = append(frame, i)
				counts[i]--
			}
		}
	}
	return frame, starved
}

func TestPlanFrameProperties(t *testing.T) {
	// Property: for 1-24 entries with shares 1-9, the frame has
	// max(frameSlots, entries) slots, every entry appears, realized shares
	// sum to 1, and wherever the fixed-length rule starved nobody the
	// frame is element for element the one it built.
	check := func(shares []float64) bool {
		p := &Plan{}
		for _, s := range shares {
			p.Entries = append(p.Entries, PlanEntry{Share: s})
		}
		p.buildFrame()
		if len(p.Entries) == 1 {
			return len(p.frame) == 1
		}
		if len(p.frame) != max(frameSlots, len(p.Entries)) {
			return false
		}
		var total float64
		seen := make([]bool, len(p.Entries))
		for _, idx := range p.frame {
			if idx < 0 || idx >= len(p.Entries) {
				return false
			}
			seen[idx] = true
		}
		for i := range p.Entries {
			if !seen[i] {
				return false
			}
			total += p.shareOf(i)
		}
		if math.Abs(total-1) > 1e-9 {
			return false
		}
		if old, starved := fixedFrame(shares); !starved && !reflect.DeepEqual(p.frame, old) {
			return false
		}
		return true
	}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		shares := make([]float64, len(raw))
		for i, r := range raw {
			shares[i] = float64(r%9) + 1
		}
		return check(shares)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// The cases the fixed-length frame starved: equal shares past
	// frameSlots, and one heavy entry among light ones.
	for n := 1; n <= 24; n++ {
		equal := make([]float64, n)
		for i := range equal {
			equal[i] = 1
		}
		if !check(equal) {
			t.Errorf("%d equal shares: frame breaks the property", n)
		}
	}
	if !check([]float64{9, 1, 1, 1, 1, 1, 1, 1}) {
		t.Error("shares 9,1,1,1,1,1,1,1: frame breaks the property")
	}
}

func TestReconcileSurvivesPrefabricatedPassive(t *testing.T) {
	// Failure injection: a passive surface that was already fabricated
	// with some pattern cannot accept the orchestrator's configuration;
	// scheduling must proceed (the device keeps its burned-in pattern)
	// rather than failing the task.
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	addSurface(t, r.apt, r.hw, "prefab", driver.ModelPMSat, scene.MountNorthWall, 8, 8)
	dev, _ := r.hw.Surface("prefab")
	burned := surface.Config{Property: surface.Phase, Values: make([]float64, 64)}
	if err := dev.Drv.ShiftPhase(burned); err != nil {
		t.Fatal(err)
	}

	task, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: bedroomPoint()}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatalf("reconcile with prefabricated passive: %v", err)
	}
	got, _ := r.o.Task(task.ID)
	if got.State != TaskRunning {
		t.Fatalf("task state %v err=%v", got.State, got.Err)
	}
	// The passive kept its original pattern.
	cfg, _, ok := dev.Drv.Active()
	if !ok {
		t.Fatal("passive lost its configuration")
	}
	for i, v := range cfg.Values {
		if v != 0 {
			t.Fatalf("passive pattern changed at %d: %v", i, v)
		}
	}
	if dev.Drv.Updates() != 1 {
		t.Errorf("passive accepted %d updates, want 1", dev.Drv.Updates())
	}
	// The task's SNR is the one the panels present: planned around the
	// burned-in pattern, not at phases the passive panel never shows.
	if len(got.Result.Surfaces) != 2 {
		t.Fatalf("task served by %v, want both panels", got.Result.Surfaces)
	}
	_, ch, devs, lb := linkObjective(t, r, 24e9, bedroomPoint())
	cfgs := make([]surface.Config, len(devs))
	for i, d := range devs {
		if cfgs[i], ok = d.Drv.EffectiveActive(); !ok {
			t.Fatalf("%s has no active configuration", d.ID)
		}
	}
	h, err := ch.Eval(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if want := lb.SNRdB(h); math.Abs(got.Result.Metric-want) > 1e-9 {
		t.Errorf("task reports %.4f dB, the panels deliver %.4f dB", got.Result.Metric, want)
	}
}

func TestTickWithoutPlansIsSafe(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	if err := r.o.Tick(context.Background(), time.Second); err != nil {
		t.Fatalf("tick on empty orchestrator: %v", err)
	}
	if r.o.Now().IsZero() {
		t.Error("clock did not advance")
	}
}

func TestTaskLookupErrors(t *testing.T) {
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	if _, err := r.o.Task(42); err == nil {
		t.Error("unknown task id accepted")
	}
	if err := r.o.SetIdle(42, true); err == nil {
		t.Error("idle on unknown task accepted")
	}
}

func TestFrequencyDivisionAcrossBands(t *testing.T) {
	// Two APs on different bands, band-matched surfaces: tasks at each
	// frequency schedule into independent plans — frequency-division
	// multiplexing across the shared environment.
	r := newRig(t, fastOpts(), driver.ModelNRSurface) // 24 GHz on east wall
	addSurface(t, r.apt, r.hw, "wifi5", driver.ModelScatterMIMO, scene.MountNorthWall, 12, 12)
	if err := r.hw.AddAP(&hwmgr.AccessPoint{
		ID: "ap5", Pos: geom.V(1.0, 1.0, 2.2), FreqHz: 5.5e9,
		Budget: rfsim.LinkBudget{TxPowerDBm: 15, AntennaGainDB: 6, NoiseFigureDB: 6, BandwidthHz: 80e6},
	}); err != nil {
		t.Fatal(err)
	}

	t24, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "mm", Pos: bedroomPoint(), FreqHz: 24e9}, 1)
	t5, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "wifi", Pos: geom.V(4.5, 6.0, 1.2), FreqHz: 5.5e9}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}

	g24, _ := r.o.Task(t24.ID)
	g5, _ := r.o.Task(t5.ID)
	if g24.State != TaskRunning || g5.State != TaskRunning {
		t.Fatalf("states: %v(%v) %v(%v)", g24.State, g24.Err, g5.State, g5.Err)
	}
	plans := r.o.Plans()
	if len(plans) != 2 {
		t.Fatalf("want 2 frequency plans, got %+v", plans)
	}
	freqs := map[float64]string{}
	for _, p := range plans {
		freqs[p.FreqHz] = p.APID
	}
	if freqs[24e9] != "ap0" || freqs[5.5e9] != "ap5" {
		t.Errorf("plan frequencies: %v", freqs)
	}
	// Each task's surfaces match its band.
	if g24.Result.Surfaces[0] == g5.Result.Surfaces[0] {
		t.Errorf("bands share a surface: %v vs %v", g24.Result.Surfaces, g5.Result.Surfaces)
	}
}

func TestRuntimeAdaptationToEnvironmentChange(t *testing.T) {
	// The paper's OS-vs-library argument (§5): "events such as furniture
	// movement ... can require dynamic reconfiguration of surface states."
	// A wardrobe appears in the beam path; re-reconciling re-optimizes the
	// configuration against the changed environment.
	r := newRig(t, fastOpts(), driver.ModelNRSurface)
	pos := bedroomPoint()
	task, _ := r.o.EnhanceLink(context.Background(), LinkGoal{Endpoint: "a", Pos: pos}, 1)
	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	before, _ := r.o.Task(task.ID)
	snrBefore := before.Result.Metric

	dev, _ := r.o.HW.Surface(driver.ModelNRSurface + "-" + scene.MountEastWall)
	updatesBefore := dev.Drv.Updates()
	cfgBefore, _, _ := dev.Drv.Active()

	// Someone parks a metal cabinet between the surface and the endpoint,
	// perpendicular to the beam path.
	mid := dev.Drv.Surface().Panel.Center().Lerp(pos, 0.5)
	r.apt.AddWall("new-cabinet", geom.RectXY(
		geom.V(mid.X, mid.Y-0.6, 0), geom.V(0, 1, 0), geom.V(0, 0, 1), 1.2, 2.2), em.Metal)

	if err := r.o.Reconcile(context.Background()); err != nil {
		t.Fatal(err)
	}
	after, _ := r.o.Task(task.ID)
	if after.State != TaskRunning {
		t.Fatalf("task state after change: %v (%v)", after.State, after.Err)
	}
	// The environment got worse; the achieved SNR reflects reality.
	if after.Result.Metric >= snrBefore {
		t.Errorf("blockage did not reduce SNR: %.1f -> %.1f", snrBefore, after.Result.Metric)
	}
	// The control plane pushed a new configuration in response.
	if dev.Drv.Updates() <= updatesBefore {
		t.Error("no reconfiguration after the environment changed")
	}
	cfgAfter, _, _ := dev.Drv.Active()
	same := true
	for i := range cfgBefore.Values {
		if math.Abs(cfgBefore.Values[i]-cfgAfter.Values[i]) > 1e-9 {
			same = false
			break
		}
	}
	if same {
		t.Error("configuration unchanged despite blockage")
	}
}
