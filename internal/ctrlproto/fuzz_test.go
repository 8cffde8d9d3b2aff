package ctrlproto

import (
	"bytes"
	"testing"

	"surfos/internal/store"
	"surfos/internal/surface"
)

// recode decodes a payload and re-encodes what it decoded.
type recode func([]byte) ([]byte, error)

func recoder[T interface{ Encode() []byte }](decode func([]byte) (T, error)) recode {
	return func(b []byte) ([]byte, error) {
		m, err := decode(b)
		if err != nil {
			return nil, err
		}
		return m.Encode(), nil
	}
}

// fuzzCodecs is every exported payload decoder, each with a seed message.
var fuzzCodecs = []struct {
	recode recode
	seed   interface{ Encode() []byte }
}{
	{recoder(DecodeHello), Hello{DeviceID: "s0", Model: "NR-Surface", Mount: "east_wall"}},
	{recoder(DecodeConfigMsg), ConfigMsg{Property: surface.Phase, Values: []float64{0, 1.5}, ReqID: 7}},
	{recoder(DecodeCodebookMsg), CodebookMsg{Property: surface.Phase, Labels: []string{"a", "b"}, Entries: [][]float64{{1}, {2, 3}}, ReqID: 9}},
	{recoder(DecodeSelectMsg), SelectMsg{Index: 2, ReqID: 3}},
	{recoder(DecodeSpecReply), SpecReply{Model: "NR-Surface", FreqLowHz: 24e9, FreqHighHz: 25e9, Reconfigurable: true, PhaseBits: 1, Rows: 24, Cols: 24, CostUSD: 90}},
	{recoder(DecodeActiveReply), ActiveReply{HasActive: true, Label: "beam", Property: surface.Phase, Values: []float64{0.5}}},
	{recoder(DecodeErrorMsg), ErrorMsg{Code: StatusUnknownTask, Text: "no task 9"}},
	{recoder(DecodeFeedbackMsg), FeedbackMsg{EndpointID: "tv", ConfigIdx: 1, SNRdB: 12.5, UnixNanos: 42}},
	{recoder(DecodeTasksReply), TasksReply{Tasks: []TaskInfo{{ID: 1, Kind: "link", State: "running", HasResult: true, Surfaces: []string{"s0"}, Tenant: "acme", Domain: 1}}}},
	{recoder(DecodeTaskReply), TaskReply{Task: TaskInfo{ID: 2, Kind: "power", State: "idle", Err: "boom"}}},
	{recoder(DecodeTaskIDMsg), TaskIDMsg{ID: 3, Idle: true}},
	{recoder(DecodeSubmitMsg), SubmitMsg{Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2}, MinSNRdB: 10, Priority: 1, Tenant: "acme"}},
	{recoder(DecodeTaskEventMsg), TaskEventMsg{UnixNanos: 5, TaskID: 1, Kind: "link", State: "running", Surfaces: []string{"s0", "s1"}, DeviceID: "s0"}},
	{recoder(DecodeDemandMsg), DemandMsg{Utterance: "stream a movie on the tv"}},
	{recoder(DecodeDemandReply), DemandReply{Calls: []string{"enhance_link(tv)"}, Tasks: []TaskInfo{{ID: 1, Kind: "link"}}}},
	{recoder(DecodeHealthReply), HealthReply{Devices: []HealthInfo{{DeviceID: "s0", State: "degraded", StuckElements: []uint32{1, 4}}}, HasControl: true, Control: ControlHealthInfo{JournalSeq: 3, Shards: []ShardHealthInfo{{Surfaces: []string{"s0"}}}, Tenants: []TenantHealthInfo{{Tenant: "acme", Weight: 1.5}}}}},
	{recoder(DecodeOpenStreamMsg), OpenStreamMsg{Stream: 9, Kind: StreamTasks, Filter: "acme"}},
	{recoder(DecodeCloseStreamMsg), CloseStreamMsg{Stream: 9}},
	{recoder(DecodeReplSnapshotMsg), ReplSnapshotMsg{Epoch: 2, Seq: 41, Data: []byte(`{"snapshot":true}`)}},
	{recoder(DecodeReplAppendMsg), ReplAppendMsg{Epoch: 2, Recs: []store.Record{{Seq: 42, Kind: store.KindTaskState, Data: []byte(`{}`), CRC: 0x1234}}}},
	{recoder(DecodeReplHeartbeatMsg), ReplHeartbeatMsg{Epoch: 2, Holder: "primary", TTLNanos: 3e9, Seq: 42}},
	{recoder(DecodeReplAckMsg), ReplAckMsg{Epoch: 2, Applied: 42}},
	{recoder(DecodeMoveTaskMsg), MoveTaskMsg{ID: 1, Pos: [3]float64{1.8, 6.2, 1.5}}},
	{recoder(DecodeReportMsg), ReportMsg{DeviceID: "s0", EndpointID: "tv", SNRdB: -40}},
	{recoder(DecodeDiagnoseReply), DiagnoseReply{Findings: []FindingInfo{{DeviceID: "s0", EndpointID: "tv", Verdict: "endpoint-blocked", ExpectedSNRdB: 12, ObservedSNRdB: -36, Samples: 15}}}},
}

// FuzzDecode feeds arbitrary payloads to every decoder of socket bytes;
// the first input byte picks the decoder. No input may panic, and a
// payload that decodes must re-encode to bytes that decode and re-encode
// to themselves (encode∘decode is idempotent).
func FuzzDecode(f *testing.F) {
	for i, c := range fuzzCodecs {
		f.Add(append([]byte{byte(i)}, c.seed.Encode()...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		recode := fuzzCodecs[int(data[0])%len(fuzzCodecs)].recode
		once, err := recode(data[1:])
		if err != nil {
			return
		}
		twice, err := recode(once)
		if err != nil {
			t.Fatalf("re-encoded payload does not decode: %v\n%x", err, once)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("encode∘decode not idempotent:\n once %x\ntwice %x", once, twice)
		}
	})
}
