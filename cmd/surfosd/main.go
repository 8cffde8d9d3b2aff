// Command surfosd runs a SurfOS control-plane daemon over the reference
// two-room apartment: it deploys surfaces from the hardware catalog,
// exposes each device through a southbound control-protocol agent (as a
// remote surface controller would), and serves the framed northbound task
// API for operators and applications.
//
// Usage:
//
//	surfosd [-listen 127.0.0.1:7090] [-surfaces NR-Surface@east_wall,NR-Surface@north_wall]
//	        [-state-dir DIR] [-metrics ADDR] [-max-conns N]
//	        [-admit-max N] [-tenant-quota NAME=MAX[:WEIGHT],...]
//	        [-health-interval 2s] [-fault-seed N] [-fault-fail P] [-fault-stuck N] [-fault-latency D]
//
// The -listen port is the one northbound: every connection is a framed
// ctrlproto.CtrlAgent session — surfctl's task, health, report and
// diagnose commands, watch streams, and replication primaries. At most
// -max-conns are served at once; one over the cap has its first request
// answered with a "busy" error and is closed.
// With -metrics set, Prometheus text metrics (reconcile latency, journal
// progress and lag, device health, admission rejections, event-bus
// backpressure) are served at http://ADDR/metrics.
//
// With -state-dir set, the daemon journals every task spec and lifecycle
// transition to an append-only write-ahead log in DIR and, at boot,
// recovers: every task that was submitted and not ended when the previous
// daemon died is re-admitted under its original ID and re-planned against
// the current surface and health state. Empty (the default) disables
// durability entirely, preserving the in-memory-only behavior.
//
// On SIGINT/SIGTERM the daemon shuts down gracefully: it stops accepting,
// closes the northbound sessions and waits for their handlers, finishes
// the current reconcile, snapshots and fsyncs the journal, and exits.
//
// The -fault-* flags attach a deterministic fault injector to every deployed
// driver (seeded fault-seed+i for device i): -fault-fail sets the transient
// control-failure probability, -fault-stuck freezes every Nth element at π,
// and -fault-latency delays every control write. The health heartbeat loop
// (-health-interval; 0 disables) probes devices, feeds the health tracker,
// and the orchestrator re-plans around devices that die.
//
// Every mutating verb re-plans the interference domain it touched before
// it replies. The orchestrator runs one reconcile pass at a time and folds
// every request that arrives during a pass into the next one, so a burst
// of churn costs one more pass, not one pass per request.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"surfos"
	"surfos/internal/ctrlproto"
	"surfos/internal/hwmgr"
	"surfos/internal/metrics"
	"surfos/internal/orchestrator"
	"surfos/internal/store"
	"surfos/internal/telemetry"
)

// The northbound connection cap rejects rather than queues, so a client
// gets an immediate "busy" error instead of a hang. A rejected connection
// gets busyReplyTimeout to send the request the error answers.
const (
	defaultMaxNorthboundConns = 64
	busyReplyTimeout          = time.Second
)

// daemonOptions is the fault-injection and health-loop configuration; the
// zero value injects nothing and runs no heartbeat (tests probe manually).
type daemonOptions struct {
	// faultSeed seeds device i's injector with faultSeed+i, so runs replay.
	faultSeed int64
	// faultProb is the per-control-write transient failure probability.
	faultProb float64
	// faultStuck freezes every Nth element at π (0 disables).
	faultStuck int
	// faultLatency delays every control write.
	faultLatency time.Duration
	// healthEvery is the heartbeat probe interval (0 disables the loop).
	healthEvery time.Duration
	// admitMax caps live tasks across all tenants (0 disables).
	admitMax int
	// quotas holds per-tenant admission quotas from -tenant-quota.
	quotas map[string]surfos.TenantQuota
	// maxConns caps concurrent northbound connections (0 = default).
	maxConns int
	// replicateTo lists follower -listen addresses to ship the WAL to
	// (comma-separated; empty disables replication).
	replicateTo string
	// follow runs the daemon as a warm standby: it receives replication
	// on its -listen port, rejects mutations, and promotes on lease expiry.
	follow bool
	// leaseTTL is the leadership lease duration (0 = default 3s).
	leaseTTL time.Duration
}

func (o daemonOptions) injecting() bool {
	return o.faultProb > 0 || o.faultStuck > 0 || o.faultLatency > 0
}

type daemon struct {
	// ctx is the daemon's lifetime context: canceled at the very end of
	// shutdown (after the sessions end), it aborts in-flight
	// reconciliation (returning the best-so-far configurations).
	ctx    context.Context
	apt    *surfos.Apartment
	hw     *surfos.Hardware
	orch   *surfos.Orchestrator
	agents []*ctrlproto.Agent
	// task lifecycle events: the orchestrator publishes, the monitor and
	// northbound watchers consume
	events    *surfos.TaskEventBus
	eventStop func()
	// healStop unsubscribes the self-healing consumer from the event bus
	healStop func()
	ctrl     *ctrlproto.CtrlAgent

	// Durability (nil without -state-dir): the journal owns the state dir
	// from boot — a standby's is its replica — and, once subscribed, turns
	// the task event bus into specs and transitions. stateMu guards the
	// subscription: a standby attaches it at promotion, racing
	// health/metrics readers.
	journal     *store.Journal
	stateMu     sync.Mutex
	journalCh   <-chan telemetry.TaskEvent
	journalStop func()
	journalDone chan struct{}

	// Replication: standby gates mutations (true on a follower until it
	// promotes, and on a fenced ex-primary); follower is the warm replica
	// in -follow mode; replAcked tracks each follower's acked sequence on
	// the primary.
	standby     atomic.Bool
	follower    *store.Follower
	followDir   string
	holder      string
	replicating bool
	promotions  atomic.Uint64
	fenced      atomic.Bool
	lastRenew   atomic.Int64 // unix nanos of the last acked renewal's send (primary lease)
	replMu      sync.Mutex
	replAcked   map[string]uint64

	// Northbound sessions: the semaphore caps concurrency (its length is
	// the open-connection gauge) and the WaitGroup is the shutdown barrier.
	connWG  sync.WaitGroup
	connSem chan struct{}
}

func newDaemon(ctx context.Context, surfaceList string, opts daemonOptions) (*daemon, error) {
	maxConns := opts.maxConns
	if maxConns <= 0 {
		maxConns = defaultMaxNorthboundConns
	}
	d := &daemon{
		ctx:       ctx,
		apt:       surfos.NewApartment(),
		hw:        surfos.NewHardware(),
		events:    surfos.NewTaskEventBus(),
		replAcked: map[string]uint64{},
		connSem:   make(chan struct{}, maxConns),
	}
	// Health transitions (device_degraded/device_dead/device_recovered) are
	// published on the task-event bus: the monitor folds them into diagnosis
	// and northbound watchers see healing alongside scheduling.
	d.hw.SetEventBus(d.events)
	// Link-task predictions become monitoring expectations the moment the
	// scheduler marks the task running — no per-command wiring needed.
	// Endpoint reports reach the monitor through the northbound's report
	// verb.
	mon := surfos.NewMonitor()
	d.eventStop = mon.RunTaskEvents(ctx, d.events)
	for i, item := range strings.Split(surfaceList, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		model, mountName, ok := strings.Cut(item, "@")
		if !ok {
			return nil, fmt.Errorf("surface %q: want MODEL@MOUNT", item)
		}
		mount, exists := d.apt.Mounts[mountName]
		if !exists {
			return nil, fmt.Errorf("unknown mount %q", mountName)
		}
		id := fmt.Sprintf("s%d-%s", i, model)
		drv, err := surfos.Deploy(d.hw, id, model, mount, 24, 24)
		if err != nil {
			return nil, err
		}
		if opts.injecting() {
			fm := surfos.NewFaultModel(opts.faultSeed + int64(i))
			fm.SetFailProb(opts.faultProb)
			fm.SetLatency(opts.faultLatency)
			if opts.faultStuck > 0 {
				for e := 0; e < drv.Surface().NumElements(); e += opts.faultStuck {
					fm.StickElement(e, math.Pi)
				}
			}
			drv.SetFaults(fm)
			log.Printf("fault injector on %s: seed=%d fail=%g stuck-every=%d latency=%s",
				id, opts.faultSeed+int64(i), opts.faultProb, opts.faultStuck, opts.faultLatency)
		}
		// Expose the device through the southbound protocol, the way a
		// physically remote surface controller would be managed.
		agent, err := ctrlproto.NewAgent(id, mountName, drv)
		if err != nil {
			return nil, err
		}
		addr, err := agent.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.agents = append(d.agents, agent)
		log.Printf("deployed %s at %s (southbound agent %s)", id, mountName, addr)
	}

	if err := d.hw.AddAP(&surfos.AccessPoint{
		ID: "ap0", Pos: d.apt.AP, FreqHz: 24e9,
		Budget: surfos.DefaultBudget(), Antennas: 16,
	}); err != nil {
		return nil, err
	}

	orch, err := surfos.NewOrchestrator(d.apt.Scene, d.hw, surfos.Options{})
	if err != nil {
		return nil, err
	}
	orch.SetEventBus(d.events)
	d.orch = orch
	if opts.admitMax > 0 {
		orch.SetAdmissionLimit(opts.admitMax)
		log.Printf("admission: global live-task cap %d", opts.admitMax)
	}
	for name, q := range opts.quotas {
		orch.SetTenantQuota(name, q)
		log.Printf("admission: tenant %q max-active=%d weight=%g", name, q.MaxActive, q.Weight)
	}

	// Self-healing: device health transitions trigger a re-plan, migrating
	// tasks off dead surfaces and back when they recover. Named so bus
	// drop attribution (health output, metrics) can point at the consumer.
	healCh, healUnsub := d.events.SubscribeOpts(telemetry.SubOptions[telemetry.TaskEvent]{
		Name: "selfheal", Buffer: 256,
	})
	d.healStop = healUnsub
	go orch.RunDeviceEvents(ctx, healCh)
	if opts.healthEvery > 0 {
		go d.hw.RunHealth(ctx, opts.healthEvery)
	}

	tr := surfos.NewTranslator()
	tr.Rooms["bedroom"] = "room_id"
	br, err := surfos.NewBroker(tr, orch, surfos.Inventory{
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

	// The northbound task API: every -listen connection is served here.
	ctrl, err := ctrlproto.NewCtrlAgent(orch)
	if err != nil {
		return nil, err
	}
	ctrl.Broker = br
	ctrl.Events = d.events
	ctrl.Monitor = mon
	ctrl.Reconcile = orch.Reconcile
	// Task-scoped mutations re-plan only the task's interference domain.
	ctrl.ReconcileTask = orch.ReconcileTask
	ctrl.ControlHealth = d.controlHealth
	// Standby daemons (followers, fenced ex-primaries) reject mutations
	// with StatusNotLeader so clients rotate to the promoted primary.
	ctrl.Standby = d.standby.Load
	ctrl.Ctx = ctx
	ctrl.Logf = log.Printf
	d.ctrl = ctrl
	return d, nil
}

// controlHealth assembles the control plane's own health snapshot for the
// binary health reply: telemetry bus backpressure, journal progress, and
// the orchestrator's shard and tenant state.
func (d *daemon) controlHealth() ctrlproto.ControlHealthInfo {
	info := ctrlproto.ControlHealthInfo{BusDropped: d.events.Dropped()}
	if j := d.journal; j != nil {
		info.JournalSeq = j.Seq()
		// Lag is the journal subscription backlog: events published but
		// not yet persisted.
		info.JournalLag = uint32(d.journalBacklog())
		if err := j.Err(); err != nil {
			info.JournalErr = err.Error()
		}
	}
	for _, s := range d.orch.ShardStats() {
		info.Shards = append(info.Shards, ctrlproto.ShardHealthInfo{
			Domain:             uint32(s.Domain),
			Surfaces:           s.Surfaces,
			Tasks:              uint32(s.Tasks),
			Running:            uint32(s.Running),
			Reconciles:         s.Reconciles,
			LastReconcileNanos: uint64(s.LastReconcile),
		})
	}
	for _, t := range d.orch.TenantStats() {
		info.Tenants = append(info.Tenants, ctrlproto.TenantHealthInfo{
			Tenant:    t.Tenant,
			Active:    uint32(t.Active),
			Rejected:  t.Rejected,
			MaxActive: uint32(t.Quota.MaxActive),
			Weight:    t.Quota.Weight,
		})
	}
	return info
}

// registerMetrics wires every subsystem's exporter into one registry:
// reconcile latency and shard/tenant admission state from the
// orchestrator, device health from the hardware manager, per-subscriber
// fan-out accounting from the event bus, journal progress from the store,
// plus the two daemon-local gauges (journal subscription lag and open
// northbound connections). Call after openState so the journal exporters
// attach.
func (d *daemon) registerMetrics(reg *metrics.Registry) {
	d.orch.RegisterMetrics(reg)
	d.hw.RegisterMetrics(reg)
	d.events.RegisterMetrics(reg)
	if d.journal != nil {
		d.journal.RegisterMetrics(reg)
		reg.GaugeFunc("surfos_journal_lag",
			"Journal subscription backlog: events published but not yet persisted.",
			func() float64 { return float64(d.journalBacklog()) })
	}
	d.registerReplMetrics(reg)
	reg.GaugeFunc("surfos_northbound_connections",
		"Open northbound connections.",
		func() float64 { return float64(len(d.connSem)) })
}

// healthStateFor maps a journaled health transition back to the tracker's
// state.
func healthStateFor(transition string) hwmgr.HealthState {
	switch transition {
	case telemetry.DeviceDead:
		return hwmgr.Dead
	case telemetry.DeviceDegraded:
		return hwmgr.Degraded
	}
	return hwmgr.Healthy
}

// openState recovers the journal from dir and attaches it to the event
// bus: device health is rehydrated first (so the recovery re-plan sees
// the world as it was), then every submitted-but-not-ended task is
// re-admitted under its original ID, re-planned from scratch against the
// current surfaces, and the recovered state is immediately snapshotted so
// the WAL restarts compact.
func (d *daemon) openState(dir string) error {
	j, err := store.OpenJournal(dir)
	if err != nil {
		return fmt.Errorf("state %s: %w", dir, err)
	}
	d.journal = j
	return d.attachState(dir)
}

// attachState makes the daemon's journal live: re-admit its live tasks
// via the shared orchestrator hook, subscribe it to the event bus,
// reconcile, snapshot. Boot recovery and standby promotion both land
// here, which is what makes failover reproduce exactly the plans a
// rebooted primary would compute.
func (d *daemon) attachState(dir string) error {
	journal := d.journal
	recovered := journal.State()
	for _, dr := range recovered.DeviceHealth() {
		d.hw.RehydrateHealth(dr.DeviceID, healthStateFor(dr.State), dr.Err)
		if dr.State != telemetry.DeviceRecovered {
			log.Printf("state: rehydrated %s as %s", dr.DeviceID, healthStateFor(dr.State))
		}
	}
	var specs []orchestrator.RestoreSpec
	for _, tr := range recovered.Live() {
		specs = append(specs, orchestrator.RestoreSpec{ID: tr.ID, Spec: tr.Spec, LastState: tr.State})
	}
	res := d.orch.Readmit(specs, recovered.MaxTaskID, log.Printf)
	// A spec that no longer validates (renamed region, changed scene)
	// must not block the rest of the recovery; journal it failed so it is
	// not retried forever. A write error here is sticky and fails the
	// snapshot below.
	for _, id := range res.Dropped {
		_ = journal.Consume(telemetry.TaskEvent{Time: time.Now(), TaskID: id, State: telemetry.TaskFailed})
	}
	// The restoration events above predate the subscription: the journal
	// already holds those tasks, so the upcoming snapshot is exactly
	// "live tasks at recovery". Announce the first journaling failure
	// immediately — durability loss must not wait for the shutdown
	// snapshot to surface — and mirror it as a journal_failed bus event
	// so it reaches /metrics and watchers.
	journal.SetLogf(log.Printf)
	journal.SetEventBus(d.events)
	// The journal must keep the synchronous drop-newest policy: a published
	// event is either in the channel (and will be persisted) or counted
	// dropped at publish time — a ring would defer that decision.
	ch, unsub := d.events.SubscribeOpts(telemetry.SubOptions[telemetry.TaskEvent]{
		Name: "journal", Buffer: store.JournalBuffer,
	})
	done := make(chan struct{})
	d.stateMu.Lock()
	d.journalCh = ch
	d.journalStop = unsub
	d.journalDone = done
	d.stateMu.Unlock()
	go func() {
		defer close(done)
		journal.Run(d.ctx, ch)
	}()
	if res.Restored > 0 {
		if err := d.orch.Reconcile(d.ctx); err != nil {
			log.Printf("state: recovery reconcile: %v", err)
		}
	}
	if err := journal.Snapshot(); err != nil {
		return fmt.Errorf("state %s: snapshot: %w", dir, err)
	}
	// Read the sequence through the journal's lock: the pump goroutine
	// above may already be appending events that raced in during recovery.
	log.Printf("state: recovered %d task(s) from %s (journal seq %d)", res.Restored, dir, journal.Seq())
	return nil
}

// journalBacklog reports the journal subscription's buffered event count.
func (d *daemon) journalBacklog() int {
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	if d.journalCh == nil {
		return 0
	}
	return len(d.journalCh)
}

// closeState performs the journal's clean shutdown: stop consuming, drain
// buffered events, compact into a final snapshot, and fsync everything.
// A standby never subscribed its journal and closes it without a
// snapshot: the replica stays exactly what the primary shipped. A second
// call is a no-op.
func (d *daemon) closeState() {
	d.stateMu.Lock()
	stop, done := d.journalStop, d.journalDone
	d.journalStop, d.journalDone = nil, nil
	d.stateMu.Unlock()
	if stop != nil {
		// Unsubscribing closes the channel; Run drains what is buffered and
		// exits, so every event published before this point is journaled.
		stop()
		<-done
		if err := d.journal.Snapshot(); err != nil {
			log.Printf("state: final snapshot: %v", err)
		}
		if n := d.events.Dropped(); n > 0 {
			log.Printf("state: warning: %d task event(s) dropped on full subscriber buffers", n)
		}
	}
	// A follower owns its journal: closing the follower closes it and
	// keeps a lease that lapses during shutdown from promoting.
	var err error
	switch {
	case d.follower != nil:
		err = d.follower.Close()
	case d.journal != nil:
		err = d.journal.Close()
	}
	if err != nil {
		log.Printf("state: close: %v", err)
	}
}

func (d *daemon) close() {
	d.closeState()
	if d.ctrl != nil {
		d.ctrl.Close()
	}
	if d.healStop != nil {
		d.healStop()
	}
	if d.eventStop != nil {
		d.eventStop()
	}
	for _, a := range d.agents {
		a.Close()
	}
}

// serveConn serves one northbound session on a slot of the connection
// cap. A connection over the cap is not queued: its first request is
// answered with a busy error frame, then it is closed.
func (d *daemon) serveConn(conn net.Conn) {
	defer conn.Close()
	select {
	case d.connSem <- struct{}{}:
		defer func() { <-d.connSem }()
	default:
		n := cap(d.connSem)
		log.Printf("northbound %v: rejected: connection limit (%d) reached", conn.RemoteAddr(), n)
		// Best effort: the connection closes whether or not the reply
		// gets through.
		_ = conn.SetDeadline(time.Now().Add(busyReplyTimeout))
		if f, err := ctrlproto.ReadFrame(conn); err == nil {
			_ = ctrlproto.WriteFrame(conn, ctrlproto.Frame{Type: ctrlproto.MsgError, Corr: f.Corr, Payload: ctrlproto.ErrorMsg{
				Code: ctrlproto.StatusInternal,
				Text: fmt.Sprintf("busy: %d northbound connections already open, retry later", n),
			}.Encode()})
		}
		return
	}
	d.ctrl.ServeConn(conn)
}

// acceptLoop serves northbound connections until the listener closes.
func (d *daemon) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if !errors.Is(err, net.ErrClosed) {
				log.Printf("accept: %v", err)
			}
			return
		}
		d.connWG.Add(1)
		go func() {
			defer d.connWG.Done()
			d.serveConn(conn)
		}()
	}
}

// run is the daemon's whole lifecycle. Every failure after newDaemon
// returns through normal error handling, so the deferred close releases
// agents, listeners and the journal even on a late listen error — the
// log.Fatalf in main fires only after cleanup has run.
func run(listen, metricsAddr, surfaceList, stateDir string, opts daemonOptions) error {
	// Lifetime context: canceled last, after the sessions end, so an in-flight
	// reconcile finishes rather than aborting mid-commit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := newDaemon(ctx, surfaceList, opts)
	if err != nil {
		return err
	}
	defer d.close()

	leaseTTL := opts.leaseTTL
	if leaseTTL <= 0 {
		leaseTTL = defaultLeaseTTL
	}
	if (opts.follow || opts.replicateTo != "") && stateDir == "" {
		return errors.New("-follow and -replicate-to require -state-dir")
	}
	if opts.follow && opts.replicateTo != "" {
		return errors.New("-follow and -replicate-to are mutually exclusive")
	}
	// The lease holder identity travels in heartbeats and the journaled
	// epoch record; the northbound address is the most useful name for it.
	d.holder = listen
	d.replicating = opts.replicateTo != ""

	if stateDir != "" {
		if opts.follow {
			if err := d.openFollower(stateDir, leaseTTL); err != nil {
				return err
			}
		} else if err := d.openState(stateDir); err != nil {
			return err
		}
	}

	if opts.replicateTo != "" {
		if err := d.startReplication(splitList(opts.replicateTo), leaseTTL); err != nil {
			return err
		}
	}

	if metricsAddr != "" {
		reg := metrics.NewRegistry()
		d.registerMetrics(reg)
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics: %w", err)
		}
		srv := &http.Server{Handler: mux}
		go func() { _ = srv.Serve(mln) }()
		defer srv.Close()
		log.Printf("metrics listening on http://%s/metrics", mln.Addr())
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	log.Printf("northbound listening on %s", ln.Addr())
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		d.acceptLoop(ln)
	}()

	select {
	case <-sigCtx.Done():
		log.Printf("signal received: stopping accept, draining")
	case <-acceptDone:
		// Listener died without a signal — shut down the same way.
		log.Printf("northbound listener closed: shutting down")
	}
	// Graceful shutdown: stop accepting, close every session (a watch
	// stream is idle by design and would never end on its own; a request
	// already executing still finishes under the live ctx, it only loses
	// its reply), wait for the session handlers, journal the tail, and
	// only then cancel the lifetime ctx.
	ln.Close()
	<-acceptDone
	d.ctrl.Close()
	d.connWG.Wait()
	d.closeState() // final snapshot + fsync while ctx is still live
	return nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:7090", "northbound listen address (surfctl and replication primaries)")
	metricsAddr := flag.String("metrics", "", "Prometheus metrics listen address (serves /metrics; empty disables)")
	surfaceList := flag.String("surfaces",
		"NR-Surface@east_wall,NR-Surface@north_wall",
		"comma-separated MODEL@MOUNT deployments")
	stateDir := flag.String("state-dir", "", "journal directory for durable task state (empty disables)")
	healthEvery := flag.Duration("health-interval", 2*time.Second, "device heartbeat probe interval (0 disables)")
	faultSeed := flag.Int64("fault-seed", 1, "fault injector seed (device i uses seed+i)")
	faultProb := flag.Float64("fault-fail", 0, "probability each control write fails transiently")
	faultStuck := flag.Int("fault-stuck", 0, "freeze every Nth element at pi (0 disables)")
	faultLatency := flag.Duration("fault-latency", 0, "added latency per control write")
	admitMax := flag.Int("admit-max", 0, "global live-task admission cap (0 disables)")
	tenantQuotas := flag.String("tenant-quota", "", "per-tenant admission quotas, NAME=MAX[:WEIGHT],...")
	maxConns := flag.Int("max-conns", defaultMaxNorthboundConns, "northbound concurrent-connection cap")
	replicateTo := flag.String("replicate-to", "", "comma-separated follower -listen addresses to ship the journal to (empty disables)")
	follow := flag.Bool("follow", false, "run as a warm standby: replay replication received on -listen, promote on lease expiry")
	leaseTTL := flag.Duration("lease-ttl", defaultLeaseTTL, "leadership lease duration (standby promotes this long after the last heartbeat)")
	flag.Parse()

	quotas, err := parseTenantQuotas(*tenantQuotas)
	if err != nil {
		log.Fatalf("surfosd: -tenant-quota: %v", err)
	}
	if err := run(*listen, *metricsAddr, *surfaceList, *stateDir, daemonOptions{
		faultSeed:    *faultSeed,
		faultProb:    *faultProb,
		faultStuck:   *faultStuck,
		faultLatency: *faultLatency,
		healthEvery:  *healthEvery,
		admitMax:     *admitMax,
		quotas:       quotas,
		maxConns:     *maxConns,
		replicateTo:  *replicateTo,
		follow:       *follow,
		leaseTTL:     *leaseTTL,
	}); err != nil {
		log.Fatalf("surfosd: %v", err)
	}
}

// parseTenantQuotas parses the -tenant-quota flag: a comma-separated list
// of NAME=MAX or NAME=MAX:WEIGHT entries ("" yields no quotas).
func parseTenantQuotas(spec string) (map[string]surfos.TenantQuota, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	quotas := map[string]surfos.TenantQuota{}
	for _, item := range strings.Split(spec, ",") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		name, val, ok := strings.Cut(item, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("entry %q: want NAME=MAX[:WEIGHT]", item)
		}
		maxStr, weightStr, hasWeight := strings.Cut(val, ":")
		max, err := strconv.Atoi(maxStr)
		if err != nil || max < 0 {
			return nil, fmt.Errorf("entry %q: bad max %q", item, maxStr)
		}
		q := surfos.TenantQuota{MaxActive: max}
		if hasWeight {
			w, err := strconv.ParseFloat(weightStr, 64)
			if err != nil || w < 0 {
				return nil, fmt.Errorf("entry %q: bad weight %q", item, weightStr)
			}
			q.Weight = w
		}
		quotas[name] = q
	}
	return quotas, nil
}
