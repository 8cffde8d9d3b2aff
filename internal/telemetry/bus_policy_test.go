package telemetry

import (
	"testing"
	"time"
)

// recv pulls one event or fails the test after a timeout.
func recv(t *testing.T, ch <-chan TaskEvent) TaskEvent {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("channel closed")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for event")
	}
	panic("unreachable")
}

// waitDrained polls until the named subscriber's backlog is empty.
func waitDrained(t *testing.T, b *EventBus, name string) SubStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, st := range b.Stats() {
			if st.Name == name && st.Queued == 0 {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("subscriber %q never drained: %+v", name, b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDropOldestKeepsFreshestWindow(t *testing.T) {
	b := NewEventBus()
	ch, cancel := b.SubscribeOpts(SubOptions[TaskEvent]{
		Name: "lagger", Buffer: 3, Policy: DropOldest,
	})
	defer cancel()

	// Nobody reads yet: publish a burst far beyond the ring. The cap-1
	// handoff channel may hold the very first event (the pump races the
	// burst), but the ring behind it keeps only the freshest 3.
	for i := 1; i <= 10; i++ {
		b.Publish(TaskEvent{TaskID: i})
	}
	var got []int
	deadline := time.After(5 * time.Second)
	for len(got) == 0 || got[len(got)-1] != 10 {
		select {
		case ev := <-ch:
			got = append(got, ev.TaskID)
		case <-deadline:
			t.Fatalf("never saw the newest event; got %v", got)
		}
	}
	if len(got) > 5 {
		t.Fatalf("drop-oldest delivered %d of 10 events (%v), want a bounded freshest window", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("events out of order: %v", got)
		}
	}
	st := waitDrained(t, b, "lagger")
	if st.Dropped == 0 {
		t.Fatal("expected drops attributed to the lagging subscriber")
	}
	if st.Delivered != uint64(len(got)) {
		t.Fatalf("delivered = %d, received %d", st.Delivered, len(got))
	}
}

func TestCoalesceKeepsLatestPerKey(t *testing.T) {
	b := NewEventBus()
	ch, cancel := b.SubscribeOpts(SubOptions[TaskEvent]{
		Name: "health", Buffer: 8, Policy: Coalesce,
		Key: func(ev TaskEvent) string { return ev.DeviceID },
	})
	defer cancel()

	// Flap one device many times while another changes once; a slow
	// watcher must see each device's latest state, not the flaps.
	b.Publish(TaskEvent{DeviceID: "rm-a", State: DeviceDegraded})
	for i := 0; i < 50; i++ {
		b.Publish(TaskEvent{DeviceID: "rm-b", State: DeviceDead})
		b.Publish(TaskEvent{DeviceID: "rm-b", State: DeviceRecovered})
	}
	// Read until the bus is drained and the channel quiet, keeping each
	// device's LAST received state: the pump may have handed off an early
	// rm-b flap before coalescing kicked in, so the first rm-b seen proves
	// nothing — only the last one is the coalesced result.
	last := map[string]string{}
	received := 0
	for quiet := false; !quiet; {
		select {
		case ev := <-ch:
			last[ev.DeviceID] = ev.State
			received++
		case <-time.After(50 * time.Millisecond):
			waitDrained(t, b, "health")
			quiet = len(ch) == 0
		}
	}
	if last["rm-a"] != DeviceDegraded {
		t.Fatalf("rm-a final state = %q, want %q", last["rm-a"], DeviceDegraded)
	}
	if last["rm-b"] != DeviceRecovered {
		t.Fatalf("rm-b final state = %q, want %q", last["rm-b"], DeviceRecovered)
	}
	if st := waitDrained(t, b, "health"); st.Dropped == 0 {
		t.Fatal("coalescing superseded states should count as shed")
	}
	// One rm-a, the coalesced rm-b, and at most a couple of rm-b flaps the
	// pump took in hand while the burst was still being published.
	if received > 5 {
		t.Fatalf("coalescing delivered %d of 101 events, want a handful", received)
	}
}

func TestSubscriberFilter(t *testing.T) {
	b := NewEventBus()
	ch, cancel := b.SubscribeOpts(SubOptions[TaskEvent]{
		Name: "failures-only", Buffer: 8, Policy: DropOldest,
		Filter: func(ev TaskEvent) bool { return ev.State == TaskFailed },
	})
	defer cancel()
	b.Publish(TaskEvent{TaskID: 1, State: TaskRunning})
	b.Publish(TaskEvent{TaskID: 2, State: TaskFailed})
	b.Publish(TaskEvent{TaskID: 3, State: TaskDone})
	if ev := recv(t, ch); ev.TaskID != 2 {
		t.Fatalf("filter leaked task %d", ev.TaskID)
	}
	st := waitDrained(t, b, "failures-only")
	if st.Delivered != 1 || st.Dropped != 0 {
		t.Fatalf("stats = %+v, want delivered=1 dropped=0 (filtered events are not drops)", st)
	}
}

func TestAggregateDroppedMonotonicAcrossCancel(t *testing.T) {
	b := NewEventBus()
	_, cancel := b.SubscribeOpts(SubOptions[TaskEvent]{Name: "tiny", Buffer: 1, Policy: DropNewest})
	b.Publish(TaskEvent{TaskID: 1})
	b.Publish(TaskEvent{TaskID: 2})
	b.Publish(TaskEvent{TaskID: 3})
	before := b.Dropped()
	if before != 2 {
		t.Fatalf("dropped = %d, want 2", before)
	}
	cancel()
	if after := b.Dropped(); after != before {
		t.Fatalf("aggregate dropped went %d -> %d on cancel; must stay monotonic", before, after)
	}
	if n := b.Subscribers(); n != 0 {
		t.Fatalf("subscribers = %d after cancel", n)
	}
}

func TestStatsNamesAndOrder(t *testing.T) {
	b := NewEventBus()
	_, c1 := b.SubscribeOpts(SubOptions[TaskEvent]{Name: "zeta", Policy: DropOldest})
	_, c2 := b.Subscribe(4) // legacy anonymous
	_, c3 := b.SubscribeOpts(SubOptions[TaskEvent]{Name: "alpha", Policy: Coalesce})
	defer c1()
	defer c2()
	defer c3()
	st := b.Stats()
	if len(st) != 3 {
		t.Fatalf("stats len = %d", len(st))
	}
	if st[0].Name != "alpha" || st[1].Name != "anonymous" || st[2].Name != "zeta" {
		t.Fatalf("stats order = %q %q %q", st[0].Name, st[1].Name, st[2].Name)
	}
	if st[1].Policy != DropNewest {
		t.Fatalf("legacy Subscribe policy = %q", st[1].Policy)
	}
}

func TestRingChannelClosesAfterCancel(t *testing.T) {
	b := NewEventBus()
	ch, cancel := b.SubscribeOpts(SubOptions[TaskEvent]{Name: "w", Buffer: 4, Policy: DropOldest})
	b.Publish(TaskEvent{TaskID: 1})
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("channel never closed after cancel")
		}
	}
}
