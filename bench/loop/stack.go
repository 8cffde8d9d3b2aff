package main

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"surfos"
	"surfos/internal/ctrlproto"
	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/metrics"
	"surfos/internal/orchestrator"
	"surfos/internal/scene"
	"surfos/internal/store"
	"surfos/internal/telemetry"
)

// fixture is the environment a workload runs in.
type fixture int

const (
	// apartment is surfosd's default deployment: the two-room apartment,
	// two 24x24 NR-Surface panels, a 16-antenna AP, default options.
	apartment fixture = iota
	// strip is the BenchmarkReconcile fixture: a 4-room strip, two 16x16
	// panels per room (one interference domain each), a 4-antenna AP,
	// Options{OptIters: 40, GridStep: 1.5}, plus one movable drywall screen
	// per room for the wall-edit ops.
	strip
)

const (
	stripRooms       = 4
	residentsPerRoom = 16
	residents        = stripRooms * residentsPerRoom
)

// stack is the control plane cmd/surfosd.newDaemon assembles, minus the
// text northbound and the southbound device agents (neither is on the
// loop): hardware manager and drivers, a private engine (so every set-up
// starts with cold caches), the orchestrator with the governor off, the
// broker, the task-event bus with its monitor, self-heal and journal
// consumers, and the framed control agent on loopback TCP.
type stack struct {
	ctx    context.Context
	cancel context.CancelFunc
	fix    fixture
	scene  *scene.Scene
	ap     geom.Vec3
	hw     *surfos.Hardware
	eng    *engine.Engine
	orch   *orchestrator.Orchestrator
	events *telemetry.EventBus
	ctrl   *ctrlproto.CtrlAgent
	addr   string
	// reg is set on traced runs only (surfosd registers metrics only with
	// -metrics): per-layer counters are parsed from its text exposition.
	reg *metrics.Registry

	stops    []func()
	healDone chan struct{}

	journal     *store.Journal
	journalCh   <-chan telemetry.TaskEvent
	journalStop func()
	journalDone chan struct{}
	// finalSeq is the journal's last sequence number once close has
	// drained it.
	finalSeq uint64

	// logged collects what the control agent would have written to the
	// daemon log; a reconcile error only ever surfaces there.
	logMu  sync.Mutex
	logged []string
}

// screenName and screenQuad describe room r's movable drywall screen.
func screenName(room int) string { return fmt.Sprintf("screen_%d", room) }

func screenQuad(room int, off float64) *geom.Quad {
	x := scene.RoomW*float64(room) + 1.5 + off
	return geom.RectXY(geom.V(x, 1.5, 0), geom.V(0, 1, 0), geom.V(0, 0, 1), 2, 2.2)
}

// stripDevice names panel j (0 east, 1 north) of room r.
func stripDevice(room, j int) string { return fmt.Sprintf("r%d-%d", room, j) }

func newStack(fix fixture, traced bool) (*stack, error) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &stack{
		ctx: ctx, cancel: cancel, fix: fix,
		hw:     surfos.NewHardware(),
		eng:    engine.New(engine.Options{}),
		events: surfos.NewTaskEventBus(),
	}
	ok := false
	defer func() {
		if !ok {
			s.close(kill)
		}
	}()
	s.hw.SetEventBus(s.events)
	mon := surfos.NewMonitor()
	s.stops = append(s.stops, mon.Run(ctx, surfos.NewTelemetryBus()), mon.RunTaskEvents(ctx, s.events))

	opts := orchestrator.Options{Engine: s.eng}
	antennas := 16
	switch fix {
	case apartment:
		apt := surfos.NewApartment()
		s.scene, s.ap = apt.Scene, apt.AP
		for i, mount := range []string{surfos.MountEastWall, surfos.MountNorthWall} {
			id := fmt.Sprintf("s%d-%s", i, surfos.ModelNRSurface)
			if _, err := surfos.Deploy(s.hw, id, surfos.ModelNRSurface, apt.Mounts[mount], 24, 24); err != nil {
				return nil, err
			}
		}
	case strip:
		st := surfos.NewRoomStrip(stripRooms)
		s.scene, s.ap = st.Scene, st.AP
		for r := 0; r < stripRooms; r++ {
			st.AddWall(screenName(r), screenQuad(r, 0), em.Drywall)
			for j, mount := range []string{surfos.RoomMountEast(r), surfos.RoomMountNorth(r)} {
				if _, err := surfos.Deploy(s.hw, stripDevice(r, j), surfos.ModelNRSurface, st.Mounts[mount], 16, 16); err != nil {
					return nil, err
				}
			}
		}
		opts.OptIters, opts.GridStep = 40, 1.5
		antennas = 4
	}
	if err := s.hw.AddAP(&surfos.AccessPoint{
		ID: "ap0", Pos: s.ap, FreqHz: 24e9, Budget: surfos.DefaultBudget(), Antennas: antennas,
	}); err != nil {
		return nil, err
	}
	orch, err := orchestrator.New(s.scene, s.hw, opts)
	if err != nil {
		return nil, err
	}
	orch.SetEventBus(s.events)
	s.orch = orch
	if traced {
		s.reg = metrics.NewRegistry()
		orch.RegisterMetrics(s.reg)
	}

	healCh, healStop := s.events.SubscribeOpts(telemetry.SubOptions[telemetry.TaskEvent]{Name: "selfheal", Buffer: 256})
	s.stops = append(s.stops, healStop)
	s.healDone = make(chan struct{})
	go func() {
		defer close(s.healDone)
		orch.RunDeviceEvents(ctx, healCh)
	}()

	ctrl, err := ctrlproto.NewCtrlAgent(orch)
	if err != nil {
		return nil, err
	}
	if fix == apartment {
		// surfosd's inventory, verbatim.
		tr := surfos.NewTranslator()
		tr.Rooms["bedroom"] = "room_id"
		ctrl.Broker, err = surfos.NewBroker(tr, orch, surfos.Inventory{
			Devices: map[string]surfos.Vec3{
				"VR_headset": surfos.V(2.5, 5.5, 1.2),
				"laptop":     surfos.V(3.0, 5.0, 1.0),
				"phone":      surfos.V(5.0, 6.0, 1.0),
				"tv":         surfos.V(1.5, 6.5, 1.5),
				"sensor":     surfos.V(6.2, 6.2, 0.8),
				"console":    surfos.V(2.0, 6.0, 0.6),
			},
			RoomRegions: map[string]string{
				"room_id":      surfos.RegionTargetRoom,
				"meeting_room": surfos.RegionTargetRoom,
			},
			EvePos: surfos.V(6.0, 4.5, 1.2),
		})
		if err != nil {
			return nil, err
		}
	}
	ctrl.Events = s.events
	ctrl.Reconcile = orch.Reconcile
	ctrl.ReconcileTask = orch.ReconcileTask
	ctrl.ControlHealth = s.controlHealth
	ctrl.Ctx = ctx
	ctrl.Logf = func(format string, args ...any) {
		s.logMu.Lock()
		s.logged = append(s.logged, fmt.Sprintf(format, args...))
		s.logMu.Unlock()
	}
	s.ctrl = ctrl
	ok = true
	return s, nil
}

// controlHealth is surfosd's health section: bus drops, journal progress,
// shard and tenant state. It takes the orchestrator lock twice, which is
// what makes a HealthFull read beside writes worth measuring.
func (s *stack) controlHealth() ctrlproto.ControlHealthInfo {
	info := ctrlproto.ControlHealthInfo{BusDropped: s.events.Dropped()}
	if s.journal != nil {
		info.JournalSeq = s.journal.Seq()
		info.JournalLag = uint32(len(s.journalCh))
		if err := s.journal.Err(); err != nil {
			info.JournalErr = err.Error()
		}
	}
	for _, sh := range s.orch.ShardStats() {
		info.Shards = append(info.Shards, ctrlproto.ShardHealthInfo{
			Domain: uint32(sh.Domain), Surfaces: sh.Surfaces,
			Tasks: uint32(sh.Tasks), Running: uint32(sh.Running),
			Reconciles: sh.Reconciles, LastReconcileNanos: uint64(sh.LastReconcile),
		})
	}
	for _, t := range s.orch.TenantStats() {
		info.Tenants = append(info.Tenants, ctrlproto.TenantHealthInfo{
			Tenant: t.Tenant, Active: uint32(t.Active), Rejected: t.Rejected,
			MaxActive: uint32(t.Quota.MaxActive), Weight: t.Quota.Weight,
		})
	}
	return info
}

// openState is surfosd's boot recovery (openState + attachState): recover
// the journal from dir, re-admit every live task under its original ID,
// attach a live journal to the event bus (fsync per record, the store's
// default), re-plan, snapshot. It returns how many tasks were restored.
func (s *stack) openState(dir string, tr *tracer) (int, error) {
	sp := tr.begin("store.open_recover")
	st, recovered, err := store.Open(dir)
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("state %s: %w", dir, err)
	}
	var specs []orchestrator.RestoreSpec
	for _, t := range recovered.Live() {
		specs = append(specs, orchestrator.RestoreSpec{ID: t.ID, Spec: t.Spec, LastState: t.State})
	}
	sp = tr.begin("orchestrator.readmit")
	res := s.orch.Readmit(specs, recovered.MaxTaskID, nil)
	tr.end(sp)
	if len(res.Dropped) > 0 {
		st.Close()
		return 0, fmt.Errorf("state %s: %d journaled task(s) no longer validate", dir, len(res.Dropped))
	}
	journal := store.NewJournal(st, recovered)
	journal.SetEventBus(s.events)
	ch, unsub := s.events.SubscribeOpts(telemetry.SubOptions[telemetry.TaskEvent]{
		Name: "journal", Buffer: store.JournalBuffer,
	})
	s.journal, s.journalCh, s.journalStop = journal, ch, unsub
	s.journalDone = make(chan struct{})
	go func() {
		defer close(s.journalDone)
		journal.Run(s.ctx, ch)
	}()
	if res.Restored > 0 {
		sp = tr.begin("orchestrator.reconcile")
		err := s.orch.Reconcile(s.ctx)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("recovery reconcile: %w", err)
		}
	}
	sp = tr.begin("store.snapshot")
	err = journal.Snapshot()
	tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("state %s: snapshot: %w", dir, err)
	}
	return res.Restored, nil
}

// listen starts the control agent on an ephemeral loopback port.
func (s *stack) listen() error {
	addr, err := s.ctrl.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.addr = addr.String()
	return nil
}

// exit is how a stack goes down.
type exit int

const (
	// clean is surfosd's shutdown: drain the journal's backlog to disk, cut
	// the final snapshot.
	clean exit = iota
	// crash drains the backlog and keeps the WAL tail: no final snapshot.
	crash
	// kill abandons the backlog where it is. finalSeq then counts the
	// records the journal had accepted, written or not.
	kill
)

// close shuts the stack down: drop the northbound, settle the journal as
// how says, stop the bus consumers. It returns the journal's sticky error,
// agent log lines and bus drops as one error so no caller can miss them.
func (s *stack) close(how exit) error {
	var errs []error
	// Per-subscriber accounting is gone once the subscribers are: read it
	// while they are all still attached.
	subs := s.events.Stats()
	if s.ctrl != nil {
		s.ctrl.Close()
	}
	if s.journal != nil {
		if how == kill {
			s.cancel() // Run returns without draining
			<-s.journalDone
		}
		s.journalStop() // closes the channel; Run drains what is buffered
		<-s.journalDone
		if how == clean {
			if err := s.journal.Snapshot(); err != nil {
				errs = append(errs, fmt.Errorf("final snapshot: %w", err))
			}
		}
		if err := s.journal.Err(); err != nil {
			errs = append(errs, fmt.Errorf("journal: %w", err))
		}
		// Every event left in the subscription is a task event here, one
		// record each.
		s.finalSeq = s.journal.Seq() + uint64(len(s.journalCh))
		if err := s.journal.Close(); err != nil {
			errs = append(errs, fmt.Errorf("journal close: %w", err))
		}
	}
	for _, stop := range s.stops {
		stop()
	}
	s.cancel()
	if s.healDone != nil {
		<-s.healDone
	}
	s.logMu.Lock()
	for _, line := range s.logged {
		errs = append(errs, errors.New(line))
	}
	s.logMu.Unlock()
	if n := s.events.Dropped(); n > 0 {
		errs = append(errs, fmt.Errorf("event bus dropped %d event(s); subscribers at close: %+v", n, subs))
	}
	return errors.Join(errs...)
}
