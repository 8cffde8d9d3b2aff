package ctrlproto

import (
	"context"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"surfos/internal/store"
	"surfos/internal/telemetry"
)

// Replication wire tests: codec round trips for the four MsgRepl*
// payloads, the sender/receiver session over a real pipe, and the
// status mapping that lets epoch fencing and standby rejection survive
// the TCP hop as typed sentinels.

func TestReplMsgNumbersArePinned(t *testing.T) {
	// The replication block is append-only wire surface: renumbering any
	// of these breaks mixed-version pairs mid-failover.
	for _, tc := range []struct {
		got  MsgType
		want uint16
	}{
		{MsgReplSnapshot, 28},
		{MsgReplAppend, 29},
		{MsgReplHeartbeat, 30},
		{MsgReplAck, 31},
	} {
		if uint16(tc.got) != tc.want {
			t.Errorf("%v = %d, want %d", tc.got, uint16(tc.got), tc.want)
		}
	}
}

func TestReplMsgRoundTrips(t *testing.T) {
	snap := ReplSnapshotMsg{Epoch: 3, Seq: 41, Data: []byte(`{"snapshot":true}`)}
	if out, err := DecodeReplSnapshotMsg(snap.Encode()); err != nil || !reflect.DeepEqual(snap, out) {
		t.Errorf("snapshot round trip = %+v, %v; want %+v", out, err, snap)
	}
	app := ReplAppendMsg{Epoch: 3, Recs: []store.Record{
		{Seq: 42, Kind: store.KindTaskState, Data: []byte(`{"id":1}`), CRC: 0x1234},
		{Seq: 43, Kind: store.KindDevice, Data: []byte(`{}`), CRC: 0xffff},
	}}
	if out, err := DecodeReplAppendMsg(app.Encode()); err != nil || !reflect.DeepEqual(app, out) {
		t.Errorf("append round trip = %+v, %v; want %+v", out, err, app)
	}
	hb := ReplHeartbeatMsg{Epoch: 3, Holder: "127.0.0.1:7101", TTLNanos: uint64(3 * time.Second), Seq: 43}
	if out, err := DecodeReplHeartbeatMsg(hb.Encode()); err != nil || !reflect.DeepEqual(hb, out) {
		t.Errorf("heartbeat round trip = %+v, %v; want %+v", out, err, hb)
	}
	ack := ReplAckMsg{Epoch: 3, Applied: 43}
	if out, err := DecodeReplAckMsg(ack.Encode()); err != nil || !reflect.DeepEqual(ack, out) {
		t.Errorf("ack round trip = %+v, %v; want %+v", out, err, ack)
	}
}

// pipeReplSession serves a ReplReceiver for fol on one end of a pipe and
// returns a sender dialed into it.
func pipeReplSession(t *testing.T, fol *store.Follower) *ReplSender {
	t.Helper()
	srv, cli := net.Pipe()
	t.Cleanup(func() { srv.Close() })
	recv := &ReplReceiver{F: fol}
	go func() {
		for {
			f, err := ReadFrame(srv)
			if err != nil {
				return
			}
			if err := WriteFrame(srv, recv.Handle(f)); err != nil {
				return
			}
		}
	}()
	sender := NewReplSender(cli)
	t.Cleanup(func() { sender.Close() })
	return sender
}

// TestReplSessionShipsAndFencesOverWire drives a full session over the
// pipe: snapshot bootstrap, an append batch, a heartbeat — then a
// promotion on the follower, after which the stale sender's traffic
// must come back as store.ErrStaleEpoch through the typed error frame.
func TestReplSessionShipsAndFencesOverWire(t *testing.T) {
	pdir := t.TempDir()
	st, state, err := store.Open(pdir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	j := store.NewJournal(st, state)
	if _, err := j.BecomeLeader("primary", 3*time.Second); err != nil {
		t.Fatal(err)
	}

	fol, err := store.OpenFollower(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fol.Close()
	// Virtual clock: the heartbeat below arms the lease, and Promote
	// refuses to depose a live leader, so the test must age the lease
	// past its TTL before the takeover.
	now := time.Unix(1_700_000_000, 0)
	fol.SetClock(func() time.Time { return now })
	sender := pipeReplSession(t, fol)

	var recs []store.Record
	epoch, seq, snap, detach, err := j.AttachReplica(func(r store.Record) { recs = append(recs, r) })
	if err != nil {
		t.Fatal(err)
	}
	defer detach()
	ack, err := sender.Snapshot(epoch, seq, snap)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied != seq || ack.Epoch != epoch {
		t.Errorf("snapshot ack = %+v, want applied %d epoch %d", ack, seq, epoch)
	}

	// Journal some post-attach traffic; the observer hands the shipper
	// every record.
	if err := j.Consume(telemetry.TaskEvent{
		Time: time.Unix(0, 1), TaskID: 1, State: telemetry.TaskSubmitted,
		Spec: []byte(`{"kind":"link","endpoint":"laptop"}`),
	}); err != nil {
		t.Fatal(err)
	}
	if err := j.Consume(telemetry.TaskEvent{
		Time: time.Unix(0, 2), DeviceID: "east", State: telemetry.DeviceDead, Err: "heartbeat lost",
	}); err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("observer saw no records")
	}
	ack, err = sender.Append(epoch, recs)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Applied != j.Seq() {
		t.Errorf("append ack applied = %d, want %d", ack.Applied, j.Seq())
	}
	if fol.Applied() != j.Seq() {
		t.Errorf("follower applied = %d, want %d", fol.Applied(), j.Seq())
	}
	if _, err := sender.Heartbeat(epoch, "primary", 3*time.Second, j.Seq()); err != nil {
		t.Fatal(err)
	}
	if got := fol.Holder(); got != "primary" {
		t.Errorf("follower holder = %q, want primary", got)
	}

	// The primary goes silent past the TTL; the follower promotes; the
	// stale sender's next messages are fenced with the typed sentinel
	// across the wire.
	now = now.Add(4 * time.Second)
	if _, err := fol.Promote("standby"); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Append(epoch, recs); !errors.Is(err, store.ErrStaleEpoch) {
		t.Errorf("stale append err = %v, want store.ErrStaleEpoch", err)
	}
	if _, err := sender.Heartbeat(epoch, "primary", 3*time.Second, j.Seq()); !errors.Is(err, store.ErrStaleEpoch) {
		t.Errorf("stale heartbeat err = %v, want store.ErrStaleEpoch", err)
	}

	// After promotion the fence must still hold over the wire for the
	// tied term (a rebooted primary minting the same epoch), and a
	// genuinely newer term must come back as the released sentinel — not
	// a generic internal error a sender would treat as retryable.
	promotedEpoch := fol.Epoch()
	if _, err := sender.Append(promotedEpoch, recs); !errors.Is(err, store.ErrStaleEpoch) {
		t.Errorf("post-handoff tied-epoch append err = %v, want store.ErrStaleEpoch", err)
	}
	if _, err := sender.Append(promotedEpoch+1, recs); !errors.Is(err, store.ErrReleased) {
		t.Errorf("post-handoff newer-epoch append err = %v, want store.ErrReleased", err)
	}
}

// TestStandbyGateRejectsMutations pins the client-visible half of
// fencing: a standby control agent answers mutations with ErrNotLeader
// (surfctl exit code 8) while reads keep working, and the sentinel
// survives the wire hop. Flipping the gate — promotion — takes effect
// on live connections without a reconnect.
func TestStandbyGateRejectsMutations(t *testing.T) {
	r := newCtrlRig(t)
	standby := true
	r.agent.Standby = func() bool { return standby }

	ctx := context.Background()
	if _, err := r.client.SubmitTask(ctx, SubmitMsg{Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2}}); !errors.Is(err, ErrNotLeader) {
		t.Errorf("standby submit err = %v, want ErrNotLeader", err)
	}
	if err := r.client.EndTask(ctx, 1); !errors.Is(err, ErrNotLeader) {
		t.Errorf("standby end err = %v, want ErrNotLeader", err)
	}
	if _, err := r.client.Demand(ctx, "better wifi"); !errors.Is(err, ErrNotLeader) {
		t.Errorf("standby demand err = %v, want ErrNotLeader", err)
	}
	if _, err := r.client.ListTasks(ctx); err != nil {
		t.Errorf("standby list err = %v, want nil (reads stay live)", err)
	}

	// Promotion flips the gate without reconnecting.
	standby = false
	if _, err := r.client.SubmitTask(ctx, SubmitMsg{Kind: "link", Endpoint: "laptop", Pos: [3]float64{2.5, 5.5, 1.2}}); err != nil {
		t.Errorf("post-promotion submit err = %v, want nil", err)
	}
}
