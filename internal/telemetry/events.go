package telemetry

import "time"

// Task lifecycle phases published on the event bus. They mirror the
// orchestrator's task states, plus the transient "submitted"/"scheduled"
// markers emitted while a task moves through the pipeline.
const (
	TaskSubmitted = "submitted" // task accepted into the table
	TaskScheduled = "scheduled" // task placed into a committed plan
	TaskRunning   = "running"   // configurations applied, result available
	TaskIdle      = "idle"      // parked, hardware released
	TaskResumed   = "resumed"   // un-parked, awaiting reschedule
	TaskDone      = "done"      // completed or explicitly ended
	TaskFailed    = "failed"    // unschedulable or errored
	TaskMigrated  = "migrated"  // moved to a different interference-domain shard
	TaskHandoff   = "handoff"   // a moving endpoint crossed a domain boundary; re-homed live
)

// Device health phases share the task-event bus (TaskID 0, DeviceID set)
// so one `surfctl tasks --watch` stream shows tasks and the healing that
// reshuffles them.
const (
	DeviceDegraded  = "device_degraded"  // stuck elements or repeated control failures
	DeviceDead      = "device_dead"      // heartbeat lost; excluded from planning
	DeviceRecovered = "device_recovered" // heartbeat back; re-included
	Replanned       = "replanned"        // orchestrator re-planned around a health change
)

// Control-plane infrastructure events (TaskID 0, DeviceID empty).
const (
	// JournalFailed is published once when the durability journal hits its
	// first (sticky) write error: new tasks are no longer durable. Err
	// carries the write error text.
	JournalFailed = "journal_failed"
	// Promoted is published once when a standby takes over leadership
	// after the primary's lease expired. Metric carries the new epoch.
	Promoted = "promoted"
)

// TaskEvent is one task lifecycle transition. Events are advisory — the
// orchestrator's task table remains the source of truth — so consumers
// (monitors, CLIs, loggers) may drop or lag without affecting scheduling.
type TaskEvent struct {
	Time   time.Time
	TaskID int
	Kind   string // service kind name ("link", "coverage", ...)
	State  string // one of the Task* phase constants above
	FreqHz float64

	// Endpoint is the served endpoint/device name when the goal names one
	// ("" otherwise). Monitors key expectations on it.
	Endpoint string

	// Plan placement, populated for scheduled/running events.
	Strategy string
	Surfaces []string
	Share    float64

	// Result metrics, populated for running events.
	Metric     float64
	MetricName string

	// Err carries the failure reason text for failed events.
	Err string

	// Spec is the task's durable submission spec (the orchestrator's
	// TaskSpec JSON), attached to events that (re)define the task: a
	// submission, a handoff, a starved task's re-queue, and the first
	// scheduled event after a within-domain move. Journals persist it so
	// a restarted control plane re-admits the task as it last stood;
	// other consumers may ignore it.
	Spec []byte

	// DeviceID names the surface for device health events (Device* and
	// Replanned states); empty for plain task lifecycle events.
	DeviceID string

	// Tenant is the submitting tenant ("default" unless multi-tenant
	// admission control is in use).
	Tenant string
	// Domain is the interference-domain shard owning the task when the
	// event was emitted (0 in single-domain scenes).
	Domain int
}

// EventBus is a fan-out publish/subscribe channel for task lifecycle
// events, with the same drop-on-full semantics as the report Bus.
type EventBus struct {
	core bus[TaskEvent]
}

// NewEventBus creates an empty task-event bus.
func NewEventBus() *EventBus { return &EventBus{} }

// Subscribe registers a synchronous drop-newest subscriber with the given
// channel buffer. The returned cancel function unsubscribes and closes the
// channel.
func (b *EventBus) Subscribe(buffer int) (<-chan TaskEvent, func()) {
	return b.core.subscribe(buffer)
}

// SubscribeOpts registers a named subscriber with an explicit backpressure
// policy. The returned cancel function unsubscribes; the channel closes
// once the subscription has fully shut down.
func (b *EventBus) SubscribeOpts(o SubOptions[TaskEvent]) (<-chan TaskEvent, func()) {
	return b.core.subscribeOpts(o)
}

// Stats snapshots per-subscriber delivery and drop accounting.
func (b *EventBus) Stats() []SubStats { return b.core.stats() }

// Publish delivers an event to every subscriber, dropping for any whose
// buffer is full.
func (b *EventBus) Publish(ev TaskEvent) { b.core.publish(ev) }

// Subscribers returns the current subscriber count.
func (b *EventBus) Subscribers() int { return b.core.subscribers() }

// Dropped returns how many events were discarded on full subscriber
// buffers since the bus was created.
func (b *EventBus) Dropped() uint64 { return b.core.droppedCount() }
