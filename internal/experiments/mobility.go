package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/orchestrator"
	"surfos/internal/rfsim"
	"surfos/internal/scenario"
	"surfos/internal/scene"
	"surfos/internal/telemetry"
)

// MobilityResult is the churn-hardening experiment: a three-room strip
// (one interference domain per room, AP in room 0) driven by a seeded
// discrete-event scenario — Poisson task arrivals and departures, a
// screen wall thrashing in room 1, and a user walking their link task
// across the room-0/room-1 boundary — with every event re-planning the
// domains it touched.
//
// The claims it demonstrates: a wall edit in room 1 re-keys rooms 0/2's
// cached traces instead of evicting them (per-region invalidation); and
// the walker crosses shards through an explicit handoff with zero task
// loss.
type MobilityResult struct {
	Profile Profile
	Seed    int64
	// Timeline is the executed event log on the virtual clock.
	Timeline []string
	// Workload counts.
	Arrivals   int
	Departures int
	Walks      int
	Toggles    int
	// Handoffs is how many walks crossed an interference-domain boundary.
	Handoffs int
	// Replans is the shard reconciles the run made, summed over shards.
	Replans uint64
	// TxMisses/TxCarried are the channel engine's trace re-builds vs.
	// traces carried across scene revisions without re-tracing.
	TxMisses  uint64
	TxCarried uint64
	// AnchorMigrations counts migrations of the anchor tasks in the rooms
	// the churn never touched (must be 0); FailedTasks counts task
	// failures anywhere (must be 0).
	AnchorMigrations int
	FailedTasks      int
	// RunningAtEnd/DoneAtEnd partition the submitted tasks after the
	// final reconcile.
	RunningAtEnd int
	DoneAtEnd    int
}

// mobilityParams scales the experiment.
type mobilityParams struct {
	rows, cols int
	iters      int
}

func mobilityFor(p Profile) mobilityParams {
	if p == Full {
		return mobilityParams{rows: 16, cols: 16, iters: 120}
	}
	return mobilityParams{rows: 8, cols: 8, iters: 40}
}

// mobilityScreen is the drywall screen that thrashes inside room 1.
func mobilityScreen(off float64) *geom.Quad {
	x := scene.RoomW + 1.5 + off
	return geom.RectXY(geom.V(x, 1.5, 0), geom.V(0, 1, 0), geom.V(0, 0, 1), 2, 2.2)
}

// RunMobility executes the seeded churn scenario. The event loop is
// single-threaded on a virtual clock and every random draw comes from
// the scenario RNG, so the same seed replays the identical timeline —
// the rendering is golden-checkable per seed.
func RunMobility(ctx context.Context, p Profile, seed int64) (*MobilityResult, error) {
	par := mobilityFor(p)
	strip := scene.NewRoomStrip(3)
	hw := hwmgr.New()
	for room := 0; room < 3; room++ {
		id := scene.RoomMountNorth(room)
		if err := deployNRPanel(hw, id, id, strip.Mounts[id], par.rows, par.cols); err != nil {
			return nil, err
		}
	}
	if err := hw.AddAP(&hwmgr.AccessPoint{
		ID: "ap0", Pos: strip.AP, FreqHz: 24e9,
		Budget: rfsim.DefaultBudget(), Antennas: 4,
	}); err != nil {
		return nil, err
	}
	// A dedicated engine so the trace-cache counters below belong to this
	// run alone.
	eng := engine.New(engine.Options{})
	orch, err := orchestrator.New(strip.Scene, hw, orchestrator.Options{
		OptIters: par.iters, GridStep: 1.2, Engine: eng,
	})
	if err != nil {
		return nil, err
	}
	bus := telemetry.NewEventBus()
	events, unsub := bus.Subscribe(8192)
	defer unsub()
	orch.SetEventBus(bus)

	sc := scenario.New(seed)
	drv := scenario.NewDriver(sc, orch)

	out := &MobilityResult{Profile: p, Seed: seed}

	// Anchors: one long-lived link per room. Rooms 0 and 2 never see an
	// edit or a walker — their tasks must neither migrate nor re-trace.
	for room := 0; room < 3; room++ {
		drv.Arrive(0, fmt.Sprintf("anchor%d", room), orchestrator.ServiceLink,
			orchestrator.LinkGoal{Endpoint: fmt.Sprintf("anchor%d", room), Pos: scene.RoomCenter(room)}, 2)
	}
	out.Arrivals += 3

	// Poisson arrivals in the untouched rooms, each departing 700ms
	// later. Pre-drawn at schedule time: the draw count never depends on
	// what the scenario does at run time.
	for i, at := range scenario.PoissonTimes(sc.Rand(), 500*time.Millisecond, 2500*time.Millisecond) {
		name := fmt.Sprintf("poisson%d", i)
		room := 2 * (i % 2)
		drv.Arrive(200*time.Millisecond+at, name, orchestrator.ServiceLink,
			orchestrator.LinkGoal{Endpoint: name, Pos: scene.RoomCenter(room)}, 1)
		drv.Depart(200*time.Millisecond+at+700*time.Millisecond, name)
		out.Arrivals++
		out.Departures++
	}

	// Room-1 wall churn: six screen toggles 100ms apart.
	const toggles = 6
	for i := 0; i < toggles; i++ {
		off := 0.3 * float64(i%3)
		fn := func(s *scene.Scene) error { return s.MoveWall("screen_1", mobilityScreen(off)) }
		if i == 0 {
			fn = func(s *scene.Scene) error {
				s.AddWall("screen_1", mobilityScreen(off), em.Drywall)
				return nil
			}
		}
		drv.Edit(time.Second+time.Duration(i)*100*time.Millisecond,
			fmt.Sprintf("toggle wall #%d", i), []int{1}, fn)
	}
	out.Toggles = toggles

	// The walker: a link task whose user strolls from room 0's center to
	// room 1's, crossing the domain boundary mid-path.
	drv.Arrive(1800*time.Millisecond, "walker", orchestrator.ServiceLink,
		orchestrator.LinkGoal{Endpoint: "walker", Pos: scene.RoomCenter(0)}, 1)
	out.Arrivals++
	const steps = 5
	from, to := scene.RoomCenter(0), scene.RoomCenter(1)
	for i := 1; i <= steps; i++ {
		pos := from.Add(to.Sub(from).Scale(float64(i) / steps))
		drv.Walk(2*time.Second+time.Duration(i-1)*250*time.Millisecond, "walker", pos)
	}
	out.Walks = steps

	// Epilogue: re-plan every domain so the final table is settled.
	drv.Reconcile(4200 * time.Millisecond)

	if err := sc.Run(ctx); err != nil {
		return nil, err
	}

	for _, rec := range sc.Timeline() {
		out.Timeline = append(out.Timeline, rec.String())
	}
	out.Handoffs = drv.Handoffs()
	for _, sh := range orch.ShardStats() {
		out.Replans += sh.Reconciles
	}
	cs := eng.CacheStats()
	out.TxMisses, out.TxCarried = cs.TxMisses, cs.TxCarried

	// Drain the event trail: anchor tasks in the untouched rooms must
	// never migrate, and nothing may fail.
	unsub()
	anchorIDs := map[int]bool{}
	for _, room := range []int{0, 2} {
		if id, ok := drv.TaskID(fmt.Sprintf("anchor%d", room)); ok {
			anchorIDs[id] = true
		}
	}
	for ev := range events {
		switch ev.State {
		case telemetry.TaskMigrated:
			if anchorIDs[ev.TaskID] {
				out.AnchorMigrations++
			}
		case telemetry.TaskFailed:
			out.FailedTasks++
		}
	}
	for _, t := range orch.Tasks() {
		switch t.State {
		case orchestrator.TaskRunning:
			out.RunningAtEnd++
		case orchestrator.TaskDone:
			out.DoneAtEnd++
		}
	}
	return out, nil
}

// ShapeCheck verifies the churn-hardening claims. Returns "" when all
// hold.
func (r *MobilityResult) ShapeCheck() string {
	var probs []string
	if r.Handoffs == 0 {
		probs = append(probs, "walker crossed the domain boundary without a handoff")
	}
	if r.AnchorMigrations != 0 {
		probs = append(probs, fmt.Sprintf("%d migration(s) of anchors in untouched rooms", r.AnchorMigrations))
	}
	if r.FailedTasks != 0 {
		probs = append(probs, fmt.Sprintf("%d task(s) failed under churn", r.FailedTasks))
	}
	if r.TxCarried == 0 {
		probs = append(probs, "no traces carried across revisions — room-1 edits re-traced everything")
	}
	// Every re-trace the churn can justify: one per (domain, revision)
	// the edits actually touched, plus the initial traces. Carried
	// revisions must dominate re-traces for the untouched rooms.
	if r.TxMisses > uint64(3+r.Toggles+2*r.Walks+10) {
		probs = append(probs, fmt.Sprintf("%d trace rebuilds for %d toggles — per-region invalidation not holding", r.TxMisses, r.Toggles))
	}
	if want := r.Arrivals - r.Departures; r.RunningAtEnd != want {
		probs = append(probs, fmt.Sprintf("%d task(s) running at end, want %d — tasks lost", r.RunningAtEnd, want))
	}
	if r.DoneAtEnd != r.Departures {
		probs = append(probs, fmt.Sprintf("%d task(s) done, want %d departures", r.DoneAtEnd, r.Departures))
	}
	return strings.Join(probs, "; ")
}

// Render prints the virtual-time timeline and the churn summary. No
// wall-clock values appear: the output is byte-identical per seed.
func (r *MobilityResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Mobility: re-plans under scripted churn (%s profile, seed %d)\n\n", r.Profile, r.Seed)
	b.WriteString("timeline (virtual):\n")
	for _, line := range r.Timeline {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	b.WriteByte('\n')
	t := &Table{Header: []string{"metric", "value"}}
	t.Add("arrivals / departures", fmt.Sprintf("%d / %d", r.Arrivals, r.Departures))
	t.Add("wall toggles (room 1)", fmt.Sprintf("%d", r.Toggles))
	t.Add("walker steps / handoffs", fmt.Sprintf("%d / %d", r.Walks, r.Handoffs))
	t.Add("re-plans run", fmt.Sprintf("%d", r.Replans))
	t.Add("traces rebuilt / carried", fmt.Sprintf("%d / %d", r.TxMisses, r.TxCarried))
	t.Add("anchor migrations (rooms 0/2)", fmt.Sprintf("%d", r.AnchorMigrations))
	t.Add("tasks running / done at end", fmt.Sprintf("%d / %d", r.RunningAtEnd, r.DoneAtEnd))
	b.WriteString(t.String())
	if s := r.ShapeCheck(); s != "" {
		fmt.Fprintf(&b, "\nSHAPE CHECK FAILED: %s\n", s)
	} else {
		b.WriteString("\nshape check: untouched rooms stayed hot, handoff lost nothing\n")
	}
	return b.String()
}
