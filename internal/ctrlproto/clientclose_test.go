package ctrlproto

import (
	"context"
	"net"
	"testing"
	"time"
)

// TestPushChannelsCloseOnDisconnect pins the disconnect contract watch
// consumers rely on: when the peer goes away, the client's Feedback
// channel and every open stream's channel close (instead of silently
// going quiet forever), and pending round trips fail fast.
func TestPushChannelsCloseOnDisconnect(t *testing.T) {
	cli, srv := net.Pipe()
	c := NewClient(cli)
	defer c.Close()

	// Ack the stream open by hand, then die.
	go func() {
		if f, err := ReadFrame(srv); err == nil {
			_ = WriteFrame(srv, Frame{Type: MsgAck, Corr: f.Corr})
		}
		srv.Close() // daemon dies
	}()
	s, err := c.OpenStream(context.Background(), StreamTasks, "")
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.After(5 * time.Second)
	select {
	case _, ok := <-s.C:
		if ok {
			t.Error("stream delivered an event from a dead peer")
		}
	case <-deadline:
		t.Fatal("stream channel not closed after disconnect")
	}
	select {
	case _, ok := <-c.Feedback:
		if ok {
			t.Error("Feedback delivered a message from a dead peer")
		}
	case <-deadline:
		t.Fatal("Feedback not closed after disconnect")
	}
	if _, err := c.Hello(context.Background()); err == nil {
		t.Error("round trip on a dead client succeeded")
	}
}
