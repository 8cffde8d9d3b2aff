package ctrlproto

import (
	"context"
	"testing"
	"time"

	"surfos/internal/telemetry"
)

func recvStream(t *testing.T, s *Stream) TaskEventMsg {
	t.Helper()
	select {
	case m, ok := <-s.C:
		if !ok {
			t.Fatalf("stream %d closed unexpectedly", s.ID)
		}
		return m
	case <-time.After(5 * time.Second):
		t.Fatalf("stream %d: timed out waiting for event", s.ID)
	}
	panic("unreachable")
}

func TestMultiplexedStreamsShareOneConnection(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()

	a, err := r.client.OpenStream(ctx, StreamTasks, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.client.OpenStream(ctx, StreamTasks, "")
	if err != nil {
		t.Fatal(err)
	}
	h, err := r.client.OpenStream(ctx, StreamHealth, "")
	if err != nil {
		t.Fatal(err)
	}
	if a.ID == b.ID || a.ID == h.ID {
		t.Fatalf("stream IDs collide: %d %d %d", a.ID, b.ID, h.ID)
	}

	// A task event fans out to both task streams; the health stream stays
	// silent. An RPC on the same connection works concurrently.
	r.events.Publish(telemetry.TaskEvent{TaskID: 7, Kind: "link", State: telemetry.TaskRunning, Tenant: "default"})
	if ev := recvStream(t, a); ev.TaskID != 7 || ev.State != telemetry.TaskRunning {
		t.Fatalf("stream a event = %+v", ev)
	}
	if ev := recvStream(t, b); ev.TaskID != 7 {
		t.Fatalf("stream b event = %+v", ev)
	}
	if _, err := r.client.ListTasks(ctx); err != nil {
		t.Fatalf("RPC alongside streams: %v", err)
	}

	// A device event reaches the health stream but not as a task event
	// duplicate on it.
	r.events.Publish(telemetry.TaskEvent{DeviceID: "s0", State: telemetry.DeviceDegraded})
	if ev := recvStream(t, h); ev.DeviceID != "s0" || ev.State != telemetry.DeviceDegraded {
		t.Fatalf("health event = %+v", ev)
	}

	// Closing one stream leaves the others (and the connection) live.
	if err := b.Close(ctx); err != nil {
		t.Fatal(err)
	}
	// Drain anything buffered (task streams also carry device events, like
	// the legacy watch); the channel must then be closed.
	for {
		_, ok := <-b.C
		if !ok {
			break
		}
	}
	r.events.Publish(telemetry.TaskEvent{TaskID: 8, Kind: "link", State: telemetry.TaskDone})
	for {
		// Task streams also carry device events; skip the degraded push.
		if ev := recvStream(t, a); ev.TaskID == 8 {
			break
		}
	}
	if _, err := r.client.ListTasks(ctx); err != nil {
		t.Fatalf("RPC after stream close: %v", err)
	}
}

func TestStreamFiltersScopeDelivery(t *testing.T) {
	r := newCtrlRig(t)
	ctx := context.Background()

	alice, err := r.client.OpenStream(ctx, StreamTasks, "alice")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := r.client.OpenStream(ctx, StreamHealth, "s1")
	if err != nil {
		t.Fatal(err)
	}

	r.events.Publish(telemetry.TaskEvent{TaskID: 1, State: telemetry.TaskRunning, Tenant: "bob"})
	r.events.Publish(telemetry.TaskEvent{TaskID: 2, State: telemetry.TaskRunning, Tenant: "alice"})
	if ev := recvStream(t, alice); ev.TaskID != 2 || ev.Tenant != "alice" {
		t.Fatalf("tenant filter leaked: %+v", ev)
	}

	r.events.Publish(telemetry.TaskEvent{DeviceID: "s0", State: telemetry.DeviceDead})
	r.events.Publish(telemetry.TaskEvent{DeviceID: "s1", State: telemetry.DeviceDegraded})
	if ev := recvStream(t, dev); ev.DeviceID != "s1" {
		t.Fatalf("device filter leaked: %+v", ev)
	}
}

func TestOpenStreamRejectsUnknownKind(t *testing.T) {
	r := newCtrlRig(t)
	if _, err := r.client.OpenStream(context.Background(), "weather", ""); err == nil {
		t.Fatal("unknown stream kind accepted")
	}
	// The failed open must not leak a client-side stream registration.
	r.client.mu.Lock()
	n := len(r.client.streams)
	r.client.mu.Unlock()
	if n != 0 {
		t.Fatalf("leaked %d client streams after failed open", n)
	}
}

func TestStreamsCloseOnDisconnect(t *testing.T) {
	r := newCtrlRig(t)
	s, err := r.client.OpenStream(context.Background(), StreamTasks, "")
	if err != nil {
		t.Fatal(err)
	}
	r.client.Close()
	select {
	case _, ok := <-s.C:
		if ok {
			return // drain until close
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream channel not closed on disconnect")
	}
}

// TestStreamsDeliverExactlyAcrossAgentRestart: every one of conns x
// streams watchers receives exactly the burst, in order; the agent is
// closed and a new one listens on the same address, every stream is
// reopened, and a second burst is again delivered exactly — with nothing
// shed by the bus, whose per-stream rings (256) exceed the burst.
func TestStreamsDeliverExactlyAcrossAgentRestart(t *testing.T) {
	const conns, streamsPerConn, burst = 4, 8, 20
	r := newCtrlRig(t)
	ctx := context.Background()

	listen := func(addr string) (*CtrlAgent, string) {
		a, err := NewCtrlAgent(r.orch)
		if err != nil {
			t.Fatal(err)
		}
		a.Events = r.events
		got, err := a.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		return a, got.String()
	}
	// epoch opens the whole fleet against addr, publishes one burst and
	// checks each stream's delivery; it returns the clients still open.
	epoch := func(addr string, phase int) []*Client {
		var clients []*Client
		var streams []*Stream
		for i := 0; i < conns; i++ {
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			clients = append(clients, c)
			for j := 0; j < streamsPerConn; j++ {
				s, err := c.OpenStream(ctx, StreamTasks, "")
				if err != nil {
					t.Fatalf("phase %d conn %d stream %d: %v", phase, i, j, err)
				}
				streams = append(streams, s)
			}
		}
		for i := 0; i < burst; i++ {
			r.events.Publish(telemetry.TaskEvent{TaskID: phase*1000 + i, Kind: "link", State: telemetry.TaskRunning, Tenant: "default"})
		}
		for _, s := range streams {
			for i := 0; i < burst; i++ {
				if ev := recvStream(t, s); int(ev.TaskID) != phase*1000+i {
					t.Fatalf("phase %d stream %d: event %d is task %d, want %d", phase, s.ID, i, ev.TaskID, phase*1000+i)
				}
			}
		}
		return clients
	}

	agent, addr := listen("127.0.0.1:0")
	clients := epoch(addr, 1)

	// Hard restart: the agent goes away and every stream closes with it.
	agent.Close()
	for _, c := range clients {
		select {
		case <-c.Feedback: // closed by the read loop on disconnect
		case <-time.After(5 * time.Second):
			t.Fatal("client did not observe the agent restart")
		}
	}
	_, addr2 := listen(addr)
	if addr2 != addr {
		t.Fatalf("re-listened on %s, want %s", addr2, addr)
	}
	epoch(addr, 2)

	if n := r.events.Dropped(); n != 0 {
		t.Fatalf("bus shed %d event(s) though every ring exceeds the burst", n)
	}
}
