package orchestrator

import (
	"context"
	"errors"

	"surfos/internal/telemetry"
)

// Self-healing: the orchestrator consumes device health transitions (from
// the hardware manager's heartbeat loop or the scheduler's own apply path)
// and re-plans around them. A dead device's tasks migrate to surviving
// surfaces on the next reconcile; a recovered device is folded back in and
// tasks starved of hardware while it was down are resubmitted.

// HandleDeviceEvent reacts to one device health transition by re-planning
// the interference domain owning the device — a dead device re-plans its
// room, not the building (unknown devices fall back to a full pass).
// Non-health events are ignored, so the handler can safely consume a mixed
// task/device event stream. After the re-plan it emits a Replanned event
// naming the device that triggered it, so watchers see the healing step
// itself, not just its task-level consequences.
func (o *Orchestrator) HandleDeviceEvent(ctx context.Context, ev telemetry.TaskEvent) error {
	switch ev.State {
	case telemetry.DeviceDead, telemetry.DeviceDegraded, telemetry.DeviceRecovered:
	default:
		return nil
	}
	domain, known := o.DomainForDevice(ev.DeviceID)
	if ev.State == telemetry.DeviceRecovered {
		if known {
			o.requeueStarved(domain)
		} else {
			o.requeueStarved(-1)
		}
	}
	var err error
	if known {
		err = o.ReconcileDomain(ctx, domain)
	} else {
		err = o.Reconcile(ctx)
	}
	o.emitReplanned(ev.DeviceID)
	return err
}

// RunDeviceEvents consumes a bus subscription until ctx is cancelled or the
// channel closes, self-healing on every device health transition. Run it in
// its own goroutine; subscribe with enough buffer that a reconcile-burst of
// task events does not drown the health transitions.
func (o *Orchestrator) RunDeviceEvents(ctx context.Context, ch <-chan telemetry.TaskEvent) {
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			_ = o.HandleDeviceEvent(ctx, ev)
		}
	}
}

// requeueStarved resubmits tasks that failed only because no surface could
// serve their band — the one task failure a recovered device can cure.
// domain restricts the requeue to the recovered device's shard (a device
// coming back in one room cannot cure starvation in another); pass -1
// for all domains.
func (o *Orchestrator) requeueStarved(domain int) {
	o.mu.Lock()
	for _, t := range o.tasks {
		if domain >= 0 && t.Domain != domain {
			continue
		}
		if t.State == TaskFailed && errors.Is(t.Err, ErrNoActiveSurfaces) {
			t.State = TaskPending
			t.Err = nil
			// The spec revives the task in a journal that recorded it
			// failed, or compacted it away since.
			o.emitSpecLocked(t, telemetry.TaskResumed)
		}
	}
	o.mu.Unlock()
}

// emitReplanned publishes the healing marker event.
func (o *Orchestrator) emitReplanned(deviceID string) {
	o.mu.Lock()
	if o.events != nil {
		o.events.Publish(telemetry.TaskEvent{
			Time:     o.now,
			State:    telemetry.Replanned,
			DeviceID: deviceID,
		})
	}
	o.mu.Unlock()
}
