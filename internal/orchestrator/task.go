// Package orchestrator is the SurfOS surface orchestrator (paper §3.2):
// the universal central control plane. It exposes environment-wide service
// request APIs — EnhanceLink, OptimizeCoverage, EnableSensing,
// InitPowering, SecureLink, and the generic Submit — each creating a task
// (akin to an OS process), and schedules all surface hardware globally:
// multiplexing tasks across time, frequency and space slices, optimizing
// configurations (including joint multitask optimization over a single
// shared configuration), and pushing the results to devices through the
// hardware manager.
//
// The package is split along the mechanism/policy line: scheduler.go is
// the service-agnostic core (grouping, strategy pick, optimization,
// commit), while each service_*.go file is one pluggable policy module
// implementing the Service interface, registered in service.go's table.
package orchestrator

import (
	"fmt"
	"time"
)

// ServiceKind identifies a surface service (paper Figure 3's service
// interface row).
type ServiceKind uint8

// Built-in services. Extensions register further kinds via
// RegisterService.
const (
	ServiceLink ServiceKind = iota + 1
	ServiceCoverage
	ServiceSensing
	ServicePowering
	ServiceSecurity
)

// String implements fmt.Stringer via the service registry.
func (k ServiceKind) String() string {
	if name, ok := serviceName(k); ok {
		return name
	}
	return fmt.Sprintf("service(%d)", uint8(k))
}

// TaskState is the lifecycle state of a service task.
type TaskState uint8

// Task states. Pending tasks await scheduling; Running tasks hold resource
// slices; Idle tasks keep their identity but release hardware (paper §3.2:
// "setting a task idle when not used and releasing resources"); Done and
// Failed are terminal.
const (
	TaskPending TaskState = iota
	TaskRunning
	TaskIdle
	TaskDone
	TaskFailed
)

// String implements fmt.Stringer.
func (s TaskState) String() string {
	switch s {
	case TaskPending:
		return "pending"
	case TaskRunning:
		return "running"
	case TaskIdle:
		return "idle"
	case TaskDone:
		return "done"
	case TaskFailed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Result captures a task's achieved service metrics after scheduling.
type Result struct {
	// Metric is the task's headline number: achieved SNR (link), median
	// SNR (coverage), mean localization error in meters (sensing),
	// received power dBm (powering), or user-eve SNR gap dB (security).
	Metric float64
	// MetricName documents the unit for logs and the CLI.
	MetricName string
	// Satisfied reports whether the goal's threshold was met (always true
	// for goals without thresholds).
	Satisfied bool
	// Share is the task's time share on its surfaces (1.0 when it owns
	// them or shares via joint configuration multiplexing).
	Share float64
	// Surfaces lists the device IDs serving the task.
	Surfaces []string
	// Strategy names the multiplexing decision that placed this task.
	Strategy string
}

// clone deep-copies a result.
func (r *Result) clone() *Result {
	if r == nil {
		return nil
	}
	cp := *r
	cp.Surfaces = append([]string(nil), r.Surfaces...)
	return &cp
}

// Task is one scheduled service request — the orchestrator's process
// abstraction.
type Task struct {
	ID       int
	Kind     ServiceKind
	Priority int // higher = more important; default 1
	State    TaskState
	Created  time.Time
	Deadline time.Time // zero = no deadline
	// Goal holds the service-specific parameters (one of the *Goal types).
	Goal any
	// FreqHz is the resolved operating frequency.
	FreqHz float64
	// Result is populated by Reconcile while the task runs.
	Result *Result
	// Err records the failure reason for TaskFailed.
	Err error
	// Tenant is the submitting tenant (DefaultTenant unless multi-tenant
	// admission control is in use).
	Tenant string
	// Domain is the interference-domain shard owning the task. Routing is
	// derived from the goal's spatial target against the current scene
	// partition, so it may change when walls move (a TaskMigrated event
	// marks the hand-off).
	Domain int

	// svc is the task's resolved service module (immutable after submit).
	svc Service
	// respec marks a goal re-targeted in place (a within-domain move)
	// whose spec no event has carried yet.
	respec bool
}

// clone returns a defensive snapshot of the task: accessors hand these
// out so callers never observe fields mutated under the orchestrator's
// lock during Tick/Reconcile.
func (t *Task) clone() *Task {
	cp := *t
	cp.Result = t.Result.clone()
	return &cp
}

// endpoint returns the goal's served endpoint name ("" when anonymous).
func (t *Task) endpoint() string {
	if n, ok := t.Goal.(EndpointNamer); ok {
		return n.EndpointName()
	}
	return ""
}

// active reports whether the task competes for resources.
func (t *Task) active() bool {
	return t.State == TaskPending || t.State == TaskRunning
}
