package experiments

import (
	"context"
	"fmt"
	"strings"

	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/hwmgr"
	"surfos/internal/orchestrator"
	"surfos/internal/scene"
	"surfos/internal/surface"
	"surfos/internal/telemetry"
)

// ChaosPhase is one row of the chaos experiment's timeline: the link
// task's achieved SNR and placement at one point of the kill/revive cycle.
type ChaosPhase struct {
	Label    string
	SNRdB    float64
	Surfaces []string
	Strategy string
}

// ChaosResult is the control-plane robustness experiment: a link task
// served by two surfaces, one of which is killed mid-task and later
// revived. The health tracker notices the death on the next heartbeat,
// the event bus carries the transition, and the orchestrator re-plans —
// first onto the surviving surface alone, then back onto both. The
// timeline records the achieved SNR before the fault, during it (after
// self-healing), and after recovery.
type ChaosResult struct {
	Profile Profile
	Victim  string
	// Before/During/After are the healthy, post-death, and post-recovery
	// snapshots of the task.
	Before, During, After ChaosPhase
	// Events is the ordered device/replan event trail observed on the bus.
	Events []string
}

// chaosParams scales the experiment.
type chaosParams struct {
	rows, cols int
	iters      int
}

func chaosFor(p Profile) chaosParams {
	if p == Full {
		return chaosParams{rows: 24, cols: 24, iters: 150}
	}
	return chaosParams{rows: 16, cols: 16, iters: 60}
}

// deployNRPanel registers one rows×cols NR-Surface panel at a mount spot
// — the panel every control-plane experiment (chaos, restart, failover,
// mobility) deploys.
func deployNRPanel(hw *hwmgr.Manager, id, mount string, spot scene.MountSpot, rows, cols int) error {
	spec, err := driver.Lookup(driver.ModelNRSurface)
	if err != nil {
		return err
	}
	pitch := em.Wavelength(spec.FreqLowHz+(spec.FreqHighHz-spec.FreqLowHz)/2) / 2
	panel := spot.Panel(float64(cols)*pitch+0.02, float64(rows)*pitch+0.02)
	s, err := surface.New(id, panel, surface.Layout{Rows: rows, Cols: cols, PitchU: pitch, PitchV: pitch}, spec.OpMode, nil)
	if err != nil {
		return err
	}
	d, err := driver.New(spec, s)
	if err != nil {
		return err
	}
	return hw.AddSurface(id, mount, d)
}

// RunChaos executes the kill/revive cycle. Everything is synchronous and
// seeded — heartbeats are driven by explicit ProbeAll calls and bus events
// are drained in order — so the timeline (and its rendering) is
// deterministic and golden-checkable.
func RunChaos(ctx context.Context, p Profile) (*ChaosResult, error) {
	pl, err := newRestartPlane(p)
	if err != nil {
		return nil, err
	}
	defer pl.unsub()
	orch, hw, ch := pl.orch, pl.hw, pl.ch
	east, err := hw.Surface("east")
	if err != nil {
		return nil, err
	}

	out := &ChaosResult{Profile: p, Victim: "east"}
	// heal drains the pending bus events in order, feeding device
	// transitions to the self-healing handler exactly as the daemon's
	// event loop would — but synchronously.
	heal := func() error {
		for {
			select {
			case ev := <-ch:
				switch ev.State {
				case telemetry.DeviceDead, telemetry.DeviceDegraded,
					telemetry.DeviceRecovered, telemetry.Replanned:
					out.Events = append(out.Events, ev.State)
				}
				if err := orch.HandleDeviceEvent(ctx, ev); err != nil {
					return err
				}
			default:
				return nil
			}
		}
	}

	task, err := pl.tvLink(ctx)
	if err != nil {
		return nil, err
	}
	if err := orch.Reconcile(ctx); err != nil {
		return nil, err
	}
	snapshot := func(label string) (ChaosPhase, error) {
		got, err := orch.Task(task.ID)
		if err != nil {
			return ChaosPhase{}, err
		}
		if got.State != orchestrator.TaskRunning || got.Result == nil {
			return ChaosPhase{}, fmt.Errorf("experiments: task %s at %q (err %v)", got.State, label, got.Err)
		}
		return ChaosPhase{
			Label: label, SNRdB: got.Result.Metric,
			Surfaces: got.Result.Surfaces, Strategy: got.Result.Strategy,
		}, nil
	}
	if out.Before, err = snapshot("before fault"); err != nil {
		return nil, err
	}

	// Kill the east surface: the next heartbeat marks it dead, and the
	// event-driven re-plan migrates the task onto the survivor.
	fm := driver.NewFaultModel(1)
	fm.SetDead(true)
	east.Drv.SetFaults(fm)
	hw.ProbeAll()
	if err := heal(); err != nil {
		return nil, err
	}
	if out.During, err = snapshot("during fault"); err != nil {
		return nil, err
	}

	// Revive it: recovery re-includes the surface on the next re-plan.
	fm.SetDead(false)
	hw.ProbeAll()
	if err := heal(); err != nil {
		return nil, err
	}
	if out.After, err = snapshot("after recovery"); err != nil {
		return nil, err
	}
	return out, nil
}

// ShapeCheck verifies the robustness claims: the task survives the whole
// cycle, healing costs SNR (one surface cannot beat two), and recovery
// restores the pre-fault quality. Returns "" when all hold.
func (r *ChaosResult) ShapeCheck() string {
	var probs []string
	if len(r.Before.Surfaces) < 2 {
		probs = append(probs, fmt.Sprintf("pre-fault plan uses %d surface(s), want both", len(r.Before.Surfaces)))
	}
	for _, s := range r.During.Surfaces {
		if s == r.Victim {
			probs = append(probs, "dead surface still scheduled during the fault")
		}
	}
	if r.During.SNRdB > r.Before.SNRdB+0.1 {
		probs = append(probs, fmt.Sprintf("SNR during fault %.2f dB beats pre-fault %.2f dB", r.During.SNRdB, r.Before.SNRdB))
	}
	if r.After.SNRdB < r.Before.SNRdB-0.5 {
		probs = append(probs, fmt.Sprintf("post-recovery SNR %.2f dB below pre-fault %.2f dB", r.After.SNRdB, r.Before.SNRdB))
	}
	var dead, replanned, recovered bool
	for _, e := range r.Events {
		switch e {
		case telemetry.DeviceDead:
			dead = true
		case telemetry.Replanned:
			replanned = true
		case telemetry.DeviceRecovered:
			recovered = true
		}
	}
	if !dead || !replanned || !recovered {
		probs = append(probs, fmt.Sprintf("event trail incomplete: %v", r.Events))
	}
	return strings.Join(probs, "; ")
}

// Render prints the kill/revive timeline.
func (r *ChaosResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chaos: link task survives the death and recovery of surface %q (%s profile)\n\n", r.Victim, r.Profile)
	t := &Table{Header: []string{"phase", "SNR", "strategy", "surfaces"}}
	for _, ph := range []ChaosPhase{r.Before, r.During, r.After} {
		t.Add(ph.Label, fmt.Sprintf("%.2f dB", ph.SNRdB), ph.Strategy, strings.Join(ph.Surfaces, "+"))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\nevent trail: %s\n", strings.Join(r.Events, " -> "))
	if s := r.ShapeCheck(); s != "" {
		fmt.Fprintf(&b, "\nSHAPE CHECK FAILED: %s\n", s)
	} else {
		b.WriteString("\nshape check: task ran throughout; healing costs SNR, recovery restores it\n")
	}
	return b.String()
}
