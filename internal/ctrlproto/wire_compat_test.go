package ctrlproto

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"surfos/internal/orchestrator"
)

// Wire-compatibility tests for the appended multi-tenant/sharding fields:
// tenant and domain ride along on task payloads, and the health reply
// grew a trailing control-plane section. Both ends of the protocol live
// in this repo, so appended fields are decoded unconditionally; the one
// invariant to pin is that old-style payloads (without the appendix)
// still decode.

func TestTaskInfoTenantDomainRoundTrip(t *testing.T) {
	in := TasksReply{Tasks: []TaskInfo{
		{
			ID: 7, Kind: "link", State: "running", Priority: 2, FreqHz: 24e9,
			HasResult: true, Metric: 11.5, MetricName: "snr_db", Share: 0.5,
			Satisfied: true, Strategy: "tdm", Surfaces: []string{"s0", "s1"},
			Tenant: "acme", Domain: 3,
		},
		{ID: 8, Kind: "coverage", State: "pending", Priority: 1},
	}}
	out, err := DecodeTasksReply(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestSubmitMsgTenantRoundTrip(t *testing.T) {
	in := SubmitMsg{
		Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2},
		MinSNRdB: 3, Priority: 2, Tenant: "acme",
	}
	out, err := DecodeSubmitMsg(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestTaskEventMsgTenantDomainRoundTrip(t *testing.T) {
	in := TaskEventMsg{
		UnixNanos: 12345, TaskID: 9, Kind: "link", State: "migrated",
		FreqHz: 24e9, Endpoint: "laptop", Surfaces: []string{"room1_north"},
		Tenant: "acme", Domain: 1,
	}
	out, err := DecodeTaskEventMsg(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

func TestHealthReplyControlSectionRoundTrip(t *testing.T) {
	in := HealthReply{
		Devices: []HealthInfo{{
			DeviceID: "s0", State: "healthy", StuckElements: []uint32{1, 4},
			ConsecutiveFailures: 0, TotalFailures: 2, LastErr: "tx fail",
		}},
		HasControl: true,
		Control: ControlHealthInfo{
			BusDropped: 3, JournalSeq: 42, JournalLag: 2, JournalErr: "disk full",
			Shards: []ShardHealthInfo{
				{Domain: 0, Surfaces: []string{"room0_north"}, Tasks: 2, Running: 1, Reconciles: 9, LastReconcileNanos: 1500000},
				{Domain: 1, Surfaces: []string{"room1_north"}, Tasks: 1, Running: 1, Reconciles: 9, LastReconcileNanos: 900000},
			},
			Tenants: []TenantHealthInfo{
				{Tenant: "acme", Active: 2, Rejected: 5, MaxActive: 2, Weight: 1.5},
				{Tenant: "default", Active: 1},
			},
		},
	}
	out, err := DecodeHealthReply(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// TestHealthReplyLegacyPayloadDecodes pins backward compatibility: a
// devices-only payload — what an agent without the control-plane hook
// emits, byte-identical to the pre-sharding encoding — must decode with
// HasControl=false and a zero Control.
func TestHealthReplyLegacyPayloadDecodes(t *testing.T) {
	legacy := HealthReply{Devices: []HealthInfo{
		{DeviceID: "s0", State: "healthy"},
		{DeviceID: "s1", State: "dead", LastErr: "boom"},
	}}
	out, err := DecodeHealthReply(legacy.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.HasControl {
		t.Fatal("devices-only payload decoded with HasControl=true")
	}
	if !reflect.DeepEqual(out.Control, (ControlHealthInfo{})) {
		t.Fatalf("devices-only payload produced control state: %+v", out.Control)
	}
	if !reflect.DeepEqual(legacy.Devices, out.Devices) {
		t.Fatalf("device list mismatch:\n in: %+v\nout: %+v", legacy.Devices, out.Devices)
	}
}

// TestAdmissionRejectedSurvivesWireHop submits over a real agent pipe
// against a quota'd orchestrator: the typed rejection must come back
// errors.Is-able with its own status code, so surfctl can map it to a
// distinct exit code.
func TestAdmissionRejectedSurvivesWireHop(t *testing.T) {
	r := newCtrlRig(t)
	r.orch.SetTenantQuota("acme", orchestrator.TenantQuota{MaxActive: 1})
	ctx := context.Background()

	submit := SubmitMsg{Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2}, Priority: 1, Tenant: "acme"}
	info, err := r.client.SubmitTask(ctx, submit)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tenant != "acme" {
		t.Fatalf("submitted task tenant = %q, want acme", info.Tenant)
	}

	_, err = r.client.SubmitTask(ctx, submit)
	if !errors.Is(err, orchestrator.ErrAdmissionRejected) {
		t.Fatalf("over-quota submit err = %v, want errors.Is ErrAdmissionRejected", err)
	}
	var we *WireError
	if !errors.As(err, &we) || we.Status != StatusAdmissionRejected {
		t.Fatalf("wire error = %+v, want StatusAdmissionRejected", err)
	}
	if errors.Is(err, orchestrator.ErrUnknownTask) {
		t.Error("admission rejection aliased to ErrUnknownTask across the wire")
	}

	// The untenanted legacy submit path is unaffected by the quota.
	if _, err := r.client.SubmitTask(ctx, SubmitMsg{Kind: "link", Endpoint: "pc", Pos: [3]float64{2.0, 5.0, 1.2}, Priority: 1}); err != nil {
		t.Fatalf("default-tenant submit: %v", err)
	}
}

// TestHealthFullControlSection drives the control-plane health hook over
// the pipe: with the hook set the client sees shard and tenant state;
// without it the reply is devices-only, exactly as before.
func TestHealthFullControlSection(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()

	reply, err := r.client.HealthFull(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if reply.HasControl {
		t.Fatal("agent without ControlHealth hook reported a control section")
	}
	if len(reply.Devices) != 1 || reply.Devices[0].DeviceID != "s0" {
		t.Fatalf("devices = %+v, want [s0]", reply.Devices)
	}

	r.agent.ControlHealth = func() ControlHealthInfo {
		var info ControlHealthInfo
		for _, s := range r.orch.ShardStats() {
			info.Shards = append(info.Shards, ShardHealthInfo{
				Domain:   uint32(s.Domain),
				Surfaces: s.Surfaces,
				Tasks:    uint32(s.Tasks),
			})
		}
		for _, ts := range r.orch.TenantStats() {
			info.Tenants = append(info.Tenants, TenantHealthInfo{
				Tenant: ts.Tenant, Active: uint32(ts.Active), Rejected: ts.Rejected,
			})
		}
		return info
	}
	if _, err := r.client.SubmitTask(ctx, SubmitMsg{Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2}, Priority: 1, Tenant: "acme"}); err != nil {
		t.Fatal(err)
	}
	reply, err = r.client.HealthFull(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reply.HasControl {
		t.Fatal("agent with ControlHealth hook reported no control section")
	}
	if len(reply.Control.Shards) != 1 || reply.Control.Shards[0].Tasks != 1 {
		t.Fatalf("shards = %+v, want one shard with one task", reply.Control.Shards)
	}
	found := false
	for _, ts := range reply.Control.Tenants {
		if ts.Tenant == "acme" && ts.Active == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("tenants = %+v, want acme active=1", reply.Control.Tenants)
	}
}

// TestMonitorMsgNumbersArePinned: the monitoring messages continue the
// append-only numbering after MsgMoveTask.
func TestMonitorMsgNumbersArePinned(t *testing.T) {
	for _, tc := range []struct {
		got  MsgType
		want byte
	}{
		{MsgMoveTask, 32},
		{MsgReport, 33},
		{MsgDiagnose, 34},
		{MsgDiagnoseReply, 35},
	} {
		if byte(tc.got) != tc.want {
			t.Errorf("%v = %d, want %d", tc.got, byte(tc.got), tc.want)
		}
	}
}

// TestStreamMsgRoundTrip pins the multiplexed-stream control payloads
// introduced with the framed northbound: open carries (stream, kind,
// filter), close carries the stream ID alone.
func TestStreamMsgRoundTrip(t *testing.T) {
	in := OpenStreamMsg{Stream: 9, Kind: StreamTasks, Filter: "acme"}
	out, err := DecodeOpenStreamMsg(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("open round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
	cin := CloseStreamMsg{Stream: 9}
	cout, err := DecodeCloseStreamMsg(cin.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cin, cout) {
		t.Fatalf("close round trip mismatch:\n in: %+v\nout: %+v", cin, cout)
	}
}
