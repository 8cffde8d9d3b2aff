package ctrlproto

import (
	"fmt"
	"io"
	"time"

	"surfos/internal/hwmgr"
	"surfos/internal/orchestrator"
)

// Operator rendering: the task and health lines surfctl prints.

// RenderTask writes one task row. Tenant and domain print only when
// non-default, keeping single-tenant single-domain output byte-identical
// to older releases.
func RenderTask(w io.Writer, t TaskInfo) {
	fmt.Fprintf(w, "task %d kind=%s prio=%d state=%s", t.ID, t.Kind, t.Priority, t.State)
	if t.Tenant != "" && t.Tenant != orchestrator.DefaultTenant {
		fmt.Fprintf(w, " tenant=%s", t.Tenant)
	}
	if t.Domain != 0 {
		fmt.Fprintf(w, " domain=%d", t.Domain)
	}
	if t.HasResult {
		fmt.Fprintf(w, " %s=%.2f share=%.2f strategy=%s surfaces=%v",
			t.MetricName, t.Metric, t.Share, t.Strategy, t.Surfaces)
	}
	if t.Err != "" {
		fmt.Fprintf(w, " err=%q", t.Err)
	}
	fmt.Fprintln(w)
}

// healthInfos converts hardware-manager health snapshots to their wire
// form for the control agent's MsgHealth reply.
func healthInfos(hs []hwmgr.DeviceHealth) []HealthInfo {
	var out []HealthInfo
	for _, h := range hs {
		info := HealthInfo{
			DeviceID:            h.ID,
			State:               h.State.String(),
			ConsecutiveFailures: uint32(h.ConsecutiveFailures),
			TotalFailures:       uint32(h.TotalFailures),
			LastErr:             h.LastErr,
		}
		for _, idx := range h.StuckElements {
			info.StuckElements = append(info.StuckElements, uint32(idx))
		}
		out = append(out, info)
	}
	return out
}

// RenderDeviceHealth writes one line per device. Callers handle the
// empty-set message themselves.
func RenderDeviceHealth(w io.Writer, devs []HealthInfo) {
	for _, d := range devs {
		fmt.Fprintf(w, "device %s state=%s", d.DeviceID, d.State)
		if len(d.StuckElements) > 0 {
			fmt.Fprintf(w, " stuck=%d%v", len(d.StuckElements), d.StuckElements)
		}
		if d.ConsecutiveFailures > 0 || d.TotalFailures > 0 {
			fmt.Fprintf(w, " failures=%d/%d", d.ConsecutiveFailures, d.TotalFailures)
		}
		if d.LastErr != "" {
			fmt.Fprintf(w, " err=%q", d.LastErr)
		}
		fmt.Fprintln(w)
	}
}

// RenderControlHealth writes the control plane's own health section:
// per-shard load and latency, tenant admission accounting, telemetry
// backpressure, and journal progress (once there is any).
func RenderControlHealth(w io.Writer, ch ControlHealthInfo) {
	for _, s := range ch.Shards {
		fmt.Fprintf(w, "shard %d surfaces=%d tasks=%d running=%d reconciles=%d last=%s\n",
			s.Domain, len(s.Surfaces), s.Tasks, s.Running, s.Reconciles,
			time.Duration(s.LastReconcileNanos))
	}
	for _, t := range ch.Tenants {
		fmt.Fprintf(w, "tenant %s active=%d rejected=%d", t.Tenant, t.Active, t.Rejected)
		if t.MaxActive > 0 {
			fmt.Fprintf(w, " max=%d", t.MaxActive)
		}
		fmt.Fprintln(w)
	}
	if ch.BusDropped > 0 {
		fmt.Fprintf(w, "bus dropped=%d\n", ch.BusDropped)
	}
	if ch.JournalSeq > 0 || ch.JournalLag > 0 || ch.JournalErr != "" {
		fmt.Fprintf(w, "journal seq=%d lag=%d", ch.JournalSeq, ch.JournalLag)
		if ch.JournalErr != "" {
			fmt.Fprintf(w, " err=%q", ch.JournalErr)
		}
		fmt.Fprintln(w)
	}
}
