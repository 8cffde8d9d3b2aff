package ctrlproto

import (
	"context"
	"reflect"
	"testing"

	"surfos/internal/monitor"
)

func TestMonitorMsgRoundTrip(t *testing.T) {
	r := ReportMsg{DeviceID: "s0", EndpointID: "tv", SNRdB: -12.5}
	if out, err := DecodeReportMsg(r.Encode()); err != nil || out != r {
		t.Errorf("report round trip = %+v, %v; want %+v", out, err, r)
	}
	d := DiagnoseReply{Findings: []FindingInfo{
		{DeviceID: "s0", Verdict: "device-dead", ExpectedSNRdB: 9},
		{DeviceID: "s1", EndpointID: "tv", Verdict: "healthy", ExpectedSNRdB: 12, ObservedSNRdB: 11.5, Samples: 4},
	}}
	if out, err := DecodeDiagnoseReply(d.Encode()); err != nil || !reflect.DeepEqual(out, d) {
		t.Errorf("diagnose round trip = %+v, %v; want %+v", out, err, d)
	}
	if _, err := DecodeReportMsg(r.Encode()[:5]); err == nil {
		t.Error("truncated report decoded without error")
	}
}

// TestReportAndDiagnoseOverWire feeds reports through the control agent
// into its monitor and reads the verdicts back, over a pipe.
func TestReportAndDiagnoseOverWire(t *testing.T) {
	rig := newCtrlRig(t)
	ctx := context.Background()
	if err := rig.client.Report(ctx, ReportMsg{DeviceID: "s0", EndpointID: "tv", SNRdB: 1}); err == nil {
		t.Error("report accepted by an agent without a monitor")
	}

	mon := monitor.New()
	mon.Expect(monitor.Expectation{DeviceID: "s0", EndpointID: "tv", SNRdB: 12})
	rig.agent.Monitor = mon
	// Reports and diagnosis read no task state: a standby serves them.
	rig.agent.Standby = func() bool { return true }

	for i := 0; i < 3; i++ {
		if err := rig.client.Report(ctx, ReportMsg{DeviceID: "s0", EndpointID: "tv", SNRdB: 11}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := rig.client.Diagnose(ctx)
	if err != nil {
		t.Fatal(err)
	}
	want := []FindingInfo{{DeviceID: "s0", EndpointID: "tv", Verdict: "healthy", ExpectedSNRdB: 12, ObservedSNRdB: 11, Samples: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("diagnose = %+v, want %+v", got, want)
	}
	if err := rig.client.Report(ctx, ReportMsg{EndpointID: "tv"}); err == nil {
		t.Error("report without a device accepted")
	}
}
