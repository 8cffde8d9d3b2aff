// Package surfos is a metasurface operating system for programmable radio
// environments — a Go implementation of the system envisioned in "SurfOS:
// Towards an Operating System for Programmable Radio Environments"
// (HotNets '24).
//
// SurfOS manages heterogeneous metasurface hardware behind three
// abstraction layers:
//
//   - Hardware manager (NewHardware, Deploy): drivers expose unified
//     configuration primitives and machine-readable specs for every
//     supported surface design (the paper's Table 1 catalog).
//   - Surface orchestrator (NewOrchestrator): environment-wide service
//     APIs — EnhanceLink, OptimizeCoverage, EnableSensing, InitPowering,
//     SecureLink — each creating a schedulable task; the orchestrator
//     multiplexes tasks over time/frequency/space slices and jointly
//     optimizes shared configurations.
//   - Service broker (NewBroker): translates natural-language user demands
//     into service calls and dispatches them.
//
// The package also exposes the substrates the control plane is built on: a
// ray-traced wireless channel simulator (rfsim), an AoA-based localization
// stack (sensing), and gradient/stochastic configuration optimizers
// (optimize).
//
// Quick start:
//
//	apt := surfos.NewApartment()
//	hw := surfos.NewHardware()
//	drv, _ := surfos.Deploy(hw, "s0", surfos.ModelNRSurface,
//	    apt.Mounts[surfos.MountEastWall], 32, 32)
//	hw.AddAP(&surfos.AccessPoint{ID: "ap0", Pos: apt.AP, FreqHz: 24e9,
//	    Budget: surfos.DefaultBudget(), Antennas: 16})
//	ctx := context.Background()
//	orch, _ := surfos.NewOrchestrator(apt.Scene, hw, surfos.Options{})
//	task, _ := orch.EnhanceLink(ctx, surfos.LinkGoal{
//	    Endpoint: "laptop", Pos: surfos.V(2.5, 5.5, 1.2)}, 1)
//	orch.Reconcile(ctx)
//	task, _ = orch.Task(task.ID) // accessors return snapshots; re-fetch
//	fmt.Println(task.Result.Metric, "dB") // achieved SNR
//
// All service and planning entry points take a context.Context; canceling
// it stops in-flight optimization early and returns the best configuration
// found so far (see internal/optimize). Channel evaluation is memoized and
// parallelized by the shared engine (internal/engine).
package surfos

import (
	"context"
	"fmt"

	"surfos/internal/broker"
	"surfos/internal/deploy"
	"surfos/internal/driver"
	"surfos/internal/em"
	"surfos/internal/engine"
	"surfos/internal/geom"
	"surfos/internal/hwmgr"
	"surfos/internal/monitor"
	"surfos/internal/orchestrator"
	"surfos/internal/rfsim"
	"surfos/internal/scene"
	"surfos/internal/surface"
	"surfos/internal/telemetry"
)

// Geometry and scene types.
type (
	// Vec3 is a 3D point or direction in meters.
	Vec3 = geom.Vec3
	// Scene is a 3D environment of material walls and named regions.
	Scene = scene.Scene
	// Apartment is the two-room reference environment from the paper's §4.
	Apartment = scene.Apartment
	// Office is the open-plan office reference environment.
	Office = scene.Office
	// RoomStrip is the multi-room reference environment: N isolated rooms
	// in a row, one interference domain each.
	RoomStrip = scene.RoomStrip
	// MountSpot is a pre-determined surface deployment location.
	MountSpot = scene.MountSpot
	// Region is a named volume services can target.
	Region = scene.Region
)

// Surface and hardware types.
type (
	// Surface is one placed metasurface panel.
	Surface = surface.Surface
	// Config is a per-element array of signal property alteration values.
	Config = surface.Config
	// Layout is a surface's element grid.
	Layout = surface.Layout
	// Driver wraps a surface with its hardware design's constraints.
	Driver = driver.Driver
	// Spec is a hardware design's machine-readable specification.
	Spec = driver.Spec
	// Hardware is the hardware manager: the device/AP/sensor inventory.
	Hardware = hwmgr.Manager
	// AccessPoint is managed non-surface radio infrastructure.
	AccessPoint = hwmgr.AccessPoint
	// Sensor is an external measurement device.
	Sensor = hwmgr.Sensor
	// FaultModel injects deterministic hardware faults into one driver:
	// stuck elements, controller death, probabilistic or slow control
	// writes. Attach with Driver.SetFaults.
	FaultModel = driver.FaultModel
	// DeviceHealth is one device's health snapshot from the hardware
	// manager's heartbeat loop.
	DeviceHealth = hwmgr.DeviceHealth
	// HealthState classifies a device as healthy, degraded, or dead.
	HealthState = hwmgr.HealthState
)

// Control plane types.
type (
	// Orchestrator is the central control plane.
	Orchestrator = orchestrator.Orchestrator
	// Options tunes the orchestrator.
	Options = orchestrator.Options
	// MultiplexPolicy selects how same-band tasks share hardware.
	MultiplexPolicy = orchestrator.MultiplexPolicy
	// Task is a scheduled service request (akin to an OS process).
	Task = orchestrator.Task
	// TaskState is a task's scheduling state.
	TaskState = orchestrator.TaskState
	// LinkGoal parameterizes EnhanceLink.
	LinkGoal = orchestrator.LinkGoal
	// CoverageGoal parameterizes OptimizeCoverage.
	CoverageGoal = orchestrator.CoverageGoal
	// SensingGoal parameterizes EnableSensing.
	SensingGoal = orchestrator.SensingGoal
	// PowerGoal parameterizes InitPowering.
	PowerGoal = orchestrator.PowerGoal
	// SecurityGoal parameterizes SecureLink.
	SecurityGoal = orchestrator.SecurityGoal
	// Broker is the service broker daemon.
	Broker = broker.Broker
	// Translator converts natural-language demands to service calls.
	Translator = broker.Translator
	// Inventory is the broker's endpoint/room knowledge base.
	Inventory = broker.Inventory
	// Call is a rendered service invocation.
	Call = broker.Call
	// LinkBudget converts channel gains into SNR and capacity.
	LinkBudget = rfsim.LinkBudget
	// PlacementRequest describes a deployment planning problem (§5
	// deployment automation).
	PlacementRequest = deploy.Request
	// Placement is one evaluated candidate mount.
	Placement = deploy.Candidate
	// Monitor is the network monitoring/diagnosis service.
	Monitor = monitor.Monitor
	// Expectation is a predicted endpoint SNR the monitor checks reports
	// against.
	Expectation = monitor.Expectation
	// Finding is one diagnosis result.
	Finding = monitor.Finding
	// TelemetryBus fans endpoint reports out to subscribers.
	TelemetryBus = telemetry.Bus
	// Report is one endpoint feedback sample.
	Report = telemetry.Report
	// TaskEventBus fans task lifecycle events out to subscribers.
	TaskEventBus = telemetry.EventBus
	// TaskEvent is one task lifecycle transition.
	TaskEvent = telemetry.TaskEvent
	// Service is the pluggable per-service module the orchestrator's
	// scheduler core consumes; register implementations with
	// RegisterService to extend SurfOS with new service kinds.
	Service = orchestrator.Service
	// ServiceKind identifies a registered service module.
	ServiceKind = orchestrator.ServiceKind
	// Plan is one access point's deployed scheduling decision.
	Plan = orchestrator.Plan
	// TenantQuota bounds one tenant's admission (hard cap + fair-share
	// weight).
	TenantQuota = orchestrator.TenantQuota
	// TenantStat is one tenant's admission bookkeeping.
	TenantStat = orchestrator.TenantStat
	// ShardStat is one interference-domain shard's load snapshot.
	ShardStat = orchestrator.ShardStat
	// MoveResult reports what a MoveTask did (handoff bookkeeping).
	MoveResult = orchestrator.MoveResult
	// Engine is the shared channel-evaluation engine: a memoized ray-trace
	// cache plus a worker pool for grid-shaped evaluation.
	Engine = engine.Engine
	// EngineOptions tunes an Engine.
	EngineOptions = engine.Options
)

// Diagnosis verdicts.
const (
	VerdictHealthy         = monitor.Healthy
	VerdictEndpointBlocked = monitor.EndpointBlocked
	VerdictDeviceDegraded  = monitor.DeviceDegraded
	VerdictStale           = monitor.Stale
	VerdictDeviceDead      = monitor.DeviceDead
)

// Device health states.
const (
	HealthHealthy  = hwmgr.Healthy
	HealthDegraded = hwmgr.Degraded
	HealthDead     = hwmgr.Dead
)

// Catalog model names (the paper's Table 1).
const (
	ModelLAIA        = driver.ModelLAIA
	ModelRFocus      = driver.ModelRFocus
	ModelLLAMA       = driver.ModelLLAMA
	ModelLAVA        = driver.ModelLAVA
	ModelScatterMIMO = driver.ModelScatterMIMO
	ModelRFlens      = driver.ModelRFlens
	ModelDiffract    = driver.ModelDiffract
	ModelScrolls     = driver.ModelScrolls
	ModelMMWall      = driver.ModelMMWall
	ModelNRSurface   = driver.ModelNRSurface
	ModelPMSat       = driver.ModelPMSat
	ModelMilliMirror = driver.ModelMilliMirror
	ModelAutoMS      = driver.ModelAutoMS
)

// Multiplexing policies.
const (
	PolicyAuto  = orchestrator.PolicyAuto
	PolicyTDM   = orchestrator.PolicyTDM
	PolicyJoint = orchestrator.PolicyJoint
	PolicySDM   = orchestrator.PolicySDM
)

// Task scheduling states.
const (
	TaskStatePending = orchestrator.TaskPending
	TaskStateRunning = orchestrator.TaskRunning
	TaskStateIdle    = orchestrator.TaskIdle
	TaskStateDone    = orchestrator.TaskDone
	TaskStateFailed  = orchestrator.TaskFailed
)

// Built-in service kinds.
const (
	ServiceLink     = orchestrator.ServiceLink
	ServiceCoverage = orchestrator.ServiceCoverage
	ServiceSensing  = orchestrator.ServiceSensing
	ServicePowering = orchestrator.ServicePowering
	ServiceSecurity = orchestrator.ServiceSecurity
)

// Task lifecycle event states.
const (
	TaskSubmitted = telemetry.TaskSubmitted
	TaskScheduled = telemetry.TaskScheduled
	TaskRunning   = telemetry.TaskRunning
	TaskIdle      = telemetry.TaskIdle
	TaskResumed   = telemetry.TaskResumed
	TaskDone      = telemetry.TaskDone
	TaskFailed    = telemetry.TaskFailed
	// Device health transitions share the task event bus so one --watch
	// stream shows both scheduling and self-healing activity.
	DeviceDegraded  = telemetry.DeviceDegraded
	DeviceDead      = telemetry.DeviceDead
	DeviceRecovered = telemetry.DeviceRecovered
	Replanned       = telemetry.Replanned
)

// Typed orchestrator errors: every failure path wraps one of these
// sentinels, so callers branch with errors.Is instead of string matching.
// They survive the control-protocol wire hop (internal/ctrlproto maps
// them to status codes and back).
var (
	ErrUnknownTask        = orchestrator.ErrUnknownTask
	ErrUnknownService     = orchestrator.ErrUnknownService
	ErrGoalInvalid        = orchestrator.ErrGoalInvalid
	ErrNoAccessPoint      = orchestrator.ErrNoAccessPoint
	ErrNoActiveSurfaces   = orchestrator.ErrNoActiveSurfaces
	ErrNoSchedulableTasks = orchestrator.ErrNoSchedulableTasks
	ErrOptimizeStopped    = orchestrator.ErrOptimizeStopped
	ErrAdmissionRejected  = orchestrator.ErrAdmissionRejected
	// ErrDeviceDead is what every control operation against an unreachable
	// device controller returns; the health tracker maps it straight to
	// HealthDead and the orchestrator re-plans around the device.
	ErrDeviceDead = driver.ErrDeviceDead
)

// RegisterService installs a service module under its kind; the scheduler
// core picks it up with no further wiring ("writing a new service" in the
// README walks through a full example).
func RegisterService(s Service) error { return orchestrator.RegisterService(s) }

// RegisteredServices lists the installed service kinds in order.
func RegisteredServices() []ServiceKind { return orchestrator.RegisteredServices() }

// NewTaskEventBus creates a task lifecycle event bus; attach it to an
// orchestrator with SetEventBus.
func NewTaskEventBus() *TaskEventBus { return telemetry.NewEventBus() }

// NewFaultModel creates a deterministic fault injector; attach it to a
// deployed driver with SetFaults. The zero configuration injects nothing.
func NewFaultModel(seed int64) *FaultModel { return driver.NewFaultModel(seed) }

// Apartment location names.
const (
	MountEastWall    = scene.MountEastWall
	MountNorthWall   = scene.MountNorthWall
	RegionLivingRoom = scene.RegionLivingRoom
	RegionTargetRoom = scene.RegionTargetRoom
)

// Office location names.
const (
	MountMeetingGlass = scene.MountMeetingGlass
	MountWestPillar   = scene.MountWestPillar
	RegionOpenArea    = scene.RegionOpenArea
	RegionMeetingRoom = scene.RegionMeetingRoom
)

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// NewApartment builds the paper's two-room reference environment.
func NewApartment() *Apartment { return scene.NewApartment() }

// NewOffice builds the open-plan office reference environment.
func NewOffice() *Office { return scene.NewOffice() }

// NewRoomStrip builds an n-room multi-domain reference environment.
func NewRoomStrip(n int) *RoomStrip { return scene.NewRoomStrip(n) }

// RoomMountEast and RoomMountNorth name room i's wall mounts in a
// RoomStrip; RoomCenter is room i's evaluation point.
func RoomMountEast(i int) string  { return scene.RoomMountEast(i) }
func RoomMountNorth(i int) string { return scene.RoomMountNorth(i) }
func RoomCenter(i int) Vec3       { return scene.RoomCenter(i) }

// DefaultTenant is the tenant legacy (single-tenant) submissions are
// accounted to.
const DefaultTenant = orchestrator.DefaultTenant

// NewHardware creates an empty hardware manager.
func NewHardware() *Hardware { return hwmgr.New() }

// NewOrchestrator builds the central control plane over a scene and
// hardware inventory.
func NewOrchestrator(sc *Scene, hw *Hardware, opts Options) (*Orchestrator, error) {
	return orchestrator.New(sc, hw, opts)
}

// NewTranslator builds the demand translator with the default profile
// library.
func NewTranslator() *Translator { return broker.NewTranslator() }

// NewBroker connects a translator to an orchestrator.
func NewBroker(t *Translator, o *Orchestrator, inv Inventory) (*Broker, error) {
	return broker.New(t, o, inv)
}

// DefaultBudget returns a typical indoor mmWave link budget.
func DefaultBudget() LinkBudget { return rfsim.DefaultBudget() }

// Catalog returns every registered hardware design, ordered as in the
// paper's Table 1.
func Catalog() []Spec { return driver.Catalog() }

// LookupModel returns the catalog spec for a model name.
func LookupModel(model string) (Spec, error) { return driver.Lookup(model) }

// Deploy instantiates a catalog design as a rows×cols panel on a mount and
// registers it with the hardware manager under the given ID. The element
// pitch is λ/2 at the design's band center.
func Deploy(hw *Hardware, id, model string, mount MountSpot, rows, cols int) (*Driver, error) {
	spec, err := driver.Lookup(model)
	if err != nil {
		return nil, err
	}
	return DeploySpec(hw, id, spec, mount, rows, cols)
}

// DeploySpec is Deploy for a custom (e.g. generated) specification.
func DeploySpec(hw *Hardware, id string, spec Spec, mount MountSpot, rows, cols int) (*Driver, error) {
	center := spec.FreqLowHz + (spec.FreqHighHz-spec.FreqLowHz)/2
	pitch := em.Wavelength(center) / 2
	return DeploySpecPitch(hw, id, spec, mount, rows, cols, pitch)
}

// DeploySpecPitch is DeploySpec with an explicit element pitch (sparse
// apertures trade grating lobes for width, useful for sensing surfaces).
func DeploySpecPitch(hw *Hardware, id string, spec Spec, mount MountSpot, rows, cols int, pitch float64) (*Driver, error) {
	if hw == nil {
		return nil, fmt.Errorf("surfos: nil hardware manager")
	}
	panel := mount.Panel(float64(cols)*pitch+0.02, float64(rows)*pitch+0.02)
	mode := spec.OpMode
	if mode == surface.Transflective {
		mode = surface.Reflective
	}
	s, err := surface.New(id, panel, surface.Layout{
		Rows: rows, Cols: cols, PitchU: pitch, PitchV: pitch,
	}, mode, nil)
	if err != nil {
		return nil, err
	}
	d, err := driver.New(spec, s)
	if err != nil {
		return nil, err
	}
	if err := hw.AddSurface(id, mount.Name, d); err != nil {
		return nil, err
	}
	return d, nil
}

// PlanDeployment evaluates candidate mounts for a new surface in parallel
// and returns them ranked by achieved coverage — the paper's §5 deployment
// automation. Canceling ctx aborts unstarted candidates.
func PlanDeployment(ctx context.Context, req PlacementRequest) ([]Placement, error) {
	return deploy.Plan(ctx, req)
}

// NewMonitor creates the monitoring/diagnosis service.
func NewMonitor() *Monitor { return monitor.New() }

// NewEngine creates a private channel-evaluation engine (most callers
// should share DefaultEngine instead, maximizing trace-cache reuse).
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// DefaultEngine returns the process-wide shared engine.
func DefaultEngine() *Engine { return engine.Default() }

// NewTelemetryBus creates an endpoint feedback bus.
func NewTelemetryBus() *TelemetryBus { return telemetry.NewBus() }

// GenerateSpec parses a datasheet-style sheet into a hardware spec (the
// driver-generation automation path).
func GenerateSpec(sheet string) (Spec, error) { return broker.GenerateSpec(sheet) }

// GenerateDriverSource renders Go registration source for a spec.
func GenerateDriverSource(spec Spec) (string, error) { return broker.GenerateDriverSource(spec) }
