package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/orchestrator"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/store"
	"surfos/internal/telemetry"
)

// RestartRow is one task's snapshot in the restart experiment's before/
// after tables.
type RestartRow struct {
	ID       int
	Kind     string
	State    string
	Metric   float64
	Name     string // metric name ("" when the task carries no result)
	Surfaces []string
}

// RestartResult is the durability experiment: a control plane journals
// four tasks (two running, one idled, one ended), is killed hard — no
// final snapshot, and a torn half-record appended to the WAL to simulate
// a crash mid-write — and a brand-new control plane recovers from the
// state directory alone. The recovered epoch must re-admit exactly the
// submitted-but-not-ended tasks under their original IDs, re-plan them
// from scratch, and land the same SNR (the scene did not change, and the
// optimizer is deterministic).
type RestartResult struct {
	Profile Profile
	// Before is every task just before the kill; After is the task table of
	// the recovered epoch after its recovery reconcile.
	Before, After []RestartRow
	// WALSeq is the journal's last durable sequence number at kill time.
	WALSeq uint64
	// RecoveredLive is how many live (submitted-and-not-ended) tasks the
	// store handed the new epoch.
	RecoveredLive int
	// IdleID and EndedID name the parked and terminated tasks, so the
	// shape check can assert their fates by ID.
	IdleID, EndedID int
}

// restartPlane is one control-plane epoch of the experiment.
type restartPlane struct {
	hw    *hwmgr.Manager
	orch  *orchestrator.Orchestrator
	ch    <-chan telemetry.TaskEvent
	unsub func()
}

// newRestartPlane builds a fresh two-surface control plane over the
// reference apartment — identically for every epoch of the restart and
// failover experiments, and for the chaos experiment's single one.
func newRestartPlane(p Profile) (*restartPlane, error) {
	par := chaosFor(p)
	apt := scene.NewApartment()
	hw := hwmgr.New()
	for _, pn := range [][2]string{{"east", scene.MountEastWall}, {"north", scene.MountNorthWall}} {
		if err := deployNRPanel(hw, pn[0], pn[1], apt.Mounts[pn[1]], par.rows, par.cols); err != nil {
			return nil, err
		}
	}
	if err := hw.AddAP(&hwmgr.AccessPoint{
		ID: "ap0", Pos: apt.AP, FreqHz: 24e9,
		Budget: rfsim.DefaultBudget(), Antennas: 4,
	}); err != nil {
		return nil, err
	}
	orch, err := orchestrator.New(apt.Scene, hw, orchestrator.Options{
		OptIters: par.iters, GridStep: 1.2,
	})
	if err != nil {
		return nil, err
	}
	bus := telemetry.NewEventBus()
	orch.SetEventBus(bus)
	hw.SetEventBus(bus)
	ch, unsub := bus.Subscribe(256)
	return &restartPlane{hw: hw, orch: orch, ch: ch, unsub: unsub}, nil
}

// tvLink files the resident link every apartment experiment opens with.
func (pl *restartPlane) tvLink(ctx context.Context) (*orchestrator.Task, error) {
	return pl.orch.EnhanceLink(ctx, orchestrator.LinkGoal{
		Endpoint: "tv", Pos: geom.V(2.5, 5.5, scene.EvalHeight),
	}, 1)
}

// runMix is the scripted workload the restart and failover experiments
// journal before the kill: the tv link and target-room coverage stay
// running, a laptop link is idled and a phone link ended, with a reconcile
// before and after. It returns the idled and ended task IDs.
func (pl *restartPlane) runMix(ctx context.Context) (idleID, endedID int, err error) {
	if _, err := pl.tvLink(ctx); err != nil {
		return 0, 0, err
	}
	if _, err := pl.orch.OptimizeCoverage(ctx, orchestrator.CoverageGoal{
		Region: scene.RegionTargetRoom,
	}, 1); err != nil {
		return 0, 0, err
	}
	idleTask, err := pl.orch.EnhanceLink(ctx, orchestrator.LinkGoal{
		Endpoint: "laptop", Pos: geom.V(3.0, 5.0, scene.EvalHeight),
	}, 1)
	if err != nil {
		return 0, 0, err
	}
	endedTask, err := pl.orch.EnhanceLink(ctx, orchestrator.LinkGoal{
		Endpoint: "phone", Pos: geom.V(5.0, 6.0, scene.EvalHeight),
	}, 2)
	if err != nil {
		return 0, 0, err
	}
	if err := pl.orch.Reconcile(ctx); err != nil {
		return 0, 0, err
	}
	if err := pl.orch.SetIdle(idleTask.ID, true); err != nil {
		return 0, 0, err
	}
	if err := pl.orch.EndTask(endedTask.ID); err != nil {
		return 0, 0, err
	}
	return idleTask.ID, endedTask.ID, pl.orch.Reconcile(ctx)
}

// drainInto feeds every pending bus event to the journal, synchronously —
// the daemon does the same through Journal.Run, but the experiment keeps
// the timeline deterministic by never letting events queue across steps.
func (pl *restartPlane) drainInto(j *store.Journal) error {
	for {
		select {
		case ev := <-pl.ch:
			if err := j.Consume(ev); err != nil {
				return err
			}
		default:
			return nil
		}
	}
}

// recoverFrom is an epoch's recovery: re-admit the recovered state's live
// tasks through orchestrator.Readmit — the hook boot recovery and standby
// promotion call, so IDs compacted out of the journal stay burned here
// too — and run the recovery re-plan. It returns how many live tasks the
// state held; a spec that no longer restores fails the experiment.
func (pl *restartPlane) recoverFrom(ctx context.Context, state *store.State) (int, error) {
	live := state.Live()
	specs := make([]orchestrator.RestoreSpec, len(live))
	for i, tr := range live {
		specs[i] = orchestrator.RestoreSpec{ID: tr.ID, Spec: tr.Spec, LastState: tr.State}
	}
	if res := pl.orch.Readmit(specs, state.MaxTaskID, nil); len(res.Dropped) > 0 {
		return 0, fmt.Errorf("experiments: task(s) %v not restored", res.Dropped)
	}
	return len(live), pl.orch.Reconcile(ctx)
}

// rows snapshots the task table, sorted by ID (Tasks already sorts).
func (pl *restartPlane) rows() []RestartRow {
	var out []RestartRow
	for _, t := range pl.orch.Tasks() {
		r := RestartRow{ID: t.ID, Kind: t.Kind.String(), State: t.State.String()}
		if t.Result != nil {
			r.Metric = t.Result.Metric
			r.Name = t.Result.MetricName
			r.Surfaces = t.Result.Surfaces
		}
		out = append(out, r)
	}
	return out
}

// RunRestart executes the kill/recover cycle against a throwaway state
// directory. Everything is synchronous and seeded, so the before/after
// tables are deterministic and golden-checkable (the state directory path
// never appears in the rendering).
func RunRestart(ctx context.Context, p Profile) (*RestartResult, error) {
	dir, err := os.MkdirTemp("", "surfos-restart-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// --- epoch 1: journal a working task mix, then die without warning ---
	pl, err := newRestartPlane(p)
	if err != nil {
		return nil, err
	}
	defer pl.unsub()
	journal, err := store.OpenJournal(dir)
	if err != nil {
		return nil, err
	}

	out := &RestartResult{Profile: p}
	if out.IdleID, out.EndedID, err = pl.runMix(ctx); err != nil {
		return nil, err
	}
	if err := pl.drainInto(journal); err != nil {
		return nil, err
	}
	out.Before = pl.rows()
	out.WALSeq = journal.Seq()

	// Hard kill: no Journal.Snapshot, no graceful close — and a torn
	// half-record appended to the WAL, exactly what a crash mid-write
	// leaves behind. Recovery must discard it silently.
	if err := journal.Close(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(filepath.Join(dir, "wal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.WriteString(`{"seq":9999,"kind":"task_state","da`); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	// --- epoch 2: a brand-new control plane recovers from the directory ---
	pl2, err := newRestartPlane(p)
	if err != nil {
		return nil, err
	}
	defer pl2.unsub()
	journal2, err := store.OpenJournal(dir)
	if err != nil {
		return nil, err
	}
	defer journal2.Close()
	if out.RecoveredLive, err = pl2.recoverFrom(ctx, journal2.State()); err != nil {
		return nil, err
	}
	if err := pl2.drainInto(journal2); err != nil {
		return nil, err
	}
	if err := journal2.Snapshot(); err != nil {
		return nil, err
	}
	out.After = pl2.rows()
	return out, nil
}

// ShapeCheck verifies the durability claims: the ended task stays dead,
// the idled task comes back parked, every other task comes back running
// under its original ID with its pre-crash SNR. Returns "" when all hold.
func (r *RestartResult) ShapeCheck() string {
	var probs []string
	before := map[int]RestartRow{}
	liveBefore := 0
	for _, row := range r.Before {
		before[row.ID] = row
		if row.State != "done" && row.State != "failed" {
			liveBefore++
		}
	}
	if r.RecoveredLive != liveBefore {
		probs = append(probs, fmt.Sprintf("recovered %d live task(s), want %d", r.RecoveredLive, liveBefore))
	}
	after := map[int]RestartRow{}
	for _, row := range r.After {
		after[row.ID] = row
	}
	if _, ok := after[r.EndedID]; ok {
		probs = append(probs, fmt.Sprintf("ended task %d was resurrected", r.EndedID))
	}
	if row, ok := after[r.IdleID]; !ok {
		probs = append(probs, fmt.Sprintf("idled task %d was not restored", r.IdleID))
	} else if row.State != "idle" {
		probs = append(probs, fmt.Sprintf("idled task %d restored as %q, want idle", r.IdleID, row.State))
	}
	for id, b := range before {
		if id == r.EndedID || id == r.IdleID || b.State != "running" {
			continue
		}
		a, ok := after[id]
		if !ok {
			probs = append(probs, fmt.Sprintf("running task %d was not restored", id))
			continue
		}
		if a.State != "running" {
			probs = append(probs, fmt.Sprintf("task %d restored as %q, want running", id, a.State))
			continue
		}
		if d := a.Metric - b.Metric; d > 0.01 || d < -0.01 {
			probs = append(probs, fmt.Sprintf("task %d %s %.2f after restart, was %.2f", id, a.Name, a.Metric, b.Metric))
		}
	}
	return strings.Join(probs, "; ")
}

// Render prints the kill/recover tables.
func (r *RestartResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Restart: journaled tasks survive a hard daemon kill (%s profile)\n\n", r.Profile)
	table := func(title string, rows []RestartRow) {
		fmt.Fprintf(&b, "%s\n", title)
		t := &Table{Header: []string{"task", "kind", "state", "metric", "surfaces"}}
		for _, row := range rows {
			metric := "-"
			if row.Name != "" {
				metric = fmt.Sprintf("%s=%.2f", row.Name, row.Metric)
			}
			t.Add(fmt.Sprintf("%d", row.ID), row.Kind, row.State, metric, strings.Join(row.Surfaces, "+"))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	table("before kill (journaled):", r.Before)
	fmt.Fprintf(&b, "hard kill: %d WAL record(s) durable, torn half-record appended, no final snapshot\n\n", r.WALSeq)
	table(fmt.Sprintf("after recovery (%d live task(s) replayed):", r.RecoveredLive), r.After)
	if s := r.ShapeCheck(); s != "" {
		fmt.Fprintf(&b, "SHAPE CHECK FAILED: %s\n", s)
	} else {
		b.WriteString("shape check: ended stays ended, idle stays idle, running tasks re-planned to the same SNR\n")
	}
	return b.String()
}
