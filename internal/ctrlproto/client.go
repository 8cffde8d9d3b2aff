package ctrlproto

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"surfos/internal/surface"
)

// ErrTimeout is returned when a request's reply does not arrive within the
// client timeout. It is a typed sentinel (wired through StatusTimeout) so
// callers can distinguish a lost reply — retryable, possibly applied —
// from a semantic rejection, and surfctl can exit with a dedicated code.
var ErrTimeout = errors.New("ctrlproto: request timed out")

// RetryPolicy is the southbound retry configuration: capped exponential
// backoff with jitter, applied only to timeouts on a live connection.
// Mutating requests carry an idempotent request ID reused across retries,
// so a retry whose predecessor actually reached the agent never
// double-applies.
type RetryPolicy struct {
	// Attempts is the total number of tries (min 1; 1 = no retry).
	Attempts int
	// BaseDelay is the backoff before the first retry (default 10ms);
	// it doubles per retry up to MaxDelay (default 1s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

// Client is the controller-side endpoint: one connection to a surface
// agent with pipelined request/reply correlation and an optional feedback
// stream. Safe for concurrent use.
type Client struct {
	conn net.Conn

	mu      sync.Mutex
	nextID  uint32
	pending map[uint32]chan Frame
	streams map[uint32]*Stream
	closed  bool
	readErr error

	// Feedback receives unsolicited agent pushes (correlation 0). Buffered;
	// overflow drops. Closed when the connection is lost, so range-style
	// consumers observe the disconnect.
	Feedback chan FeedbackMsg
	// Timeout bounds each request round trip (default 5s).
	Timeout time.Duration
	// Retry configures timeout retries for mutating requests (zero value =
	// single attempt).
	Retry RetryPolicy

	jmu     sync.Mutex
	jitter  *rand.Rand
	nextReq uint64
}

// Dial connects to an agent at addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection (e.g. one side of net.Pipe).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:     conn,
		nextID:   1,
		pending:  make(map[uint32]chan Frame),
		Feedback: make(chan FeedbackMsg, 64),
		Timeout:  5 * time.Second,
		jitter:   rand.New(rand.NewSource(rand.Int63())),
		// Request IDs must not collide across client sessions sharing an
		// agent: start from a random 32-bit prefix and count up.
		nextReq: uint64(rand.Uint32()) << 32,
	}
	go c.readLoop()
	return c
}

// SeedJitter reseeds the retry backoff jitter so fault tests replay
// identical retry timelines.
func (c *Client) SeedJitter(seed int64) {
	c.jmu.Lock()
	c.jitter = rand.New(rand.NewSource(seed))
	c.jmu.Unlock()
}

// newReqID mints an idempotency token for one logical mutating request;
// every retry of that request reuses it.
func (c *Client) newReqID() uint64 {
	c.jmu.Lock()
	defer c.jmu.Unlock()
	c.nextReq++
	if c.nextReq == 0 { // 0 means "no idempotency token" on the wire
		c.nextReq = 1
	}
	return c.nextReq
}

// backoffDelay returns the capped exponential backoff before retry n
// (n=1 is the first retry), jittered to 50–100% of nominal.
func (c *Client) backoffDelay(n int) time.Duration {
	base := c.Retry.BaseDelay
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	max := c.Retry.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	d := base << (n - 1)
	if d > max || d <= 0 { // <= 0: shift overflow
		d = max
	}
	c.jmu.Lock()
	f := 0.5 + 0.5*c.jitter.Float64()
	c.jmu.Unlock()
	return time.Duration(float64(d) * f)
}

// invoke runs one mutating request with retry-on-timeout semantics: the
// payload carries reqID so the agent deduplicates deliveries, and only
// ErrTimeout on a still-live connection is retried — semantic rejections
// and transport failures surface immediately.
func (c *Client) invoke(ctx context.Context, t MsgType, payload []byte) (Frame, error) {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for n := 0; n < attempts; n++ {
		if n > 0 {
			delay := c.backoffDelay(n)
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return Frame{}, ctx.Err()
			case <-timer.C:
			}
		}
		f, err := c.roundTrip(ctx, t, payload)
		if err == nil || !errors.Is(err, ErrTimeout) {
			return f, err
		}
		lastErr = err
		c.mu.Lock()
		dead := c.closed
		c.mu.Unlock()
		if dead {
			break
		}
	}
	return Frame{}, lastErr
}

// Close tears down the connection; in-flight requests fail.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	return c.conn.Close()
}

func (c *Client) readLoop() {
	for {
		f, err := ReadFrame(c.conn)
		if err != nil {
			c.mu.Lock()
			c.readErr = err
			for id, ch := range c.pending {
				close(ch)
				delete(c.pending, id)
			}
			c.closed = true
			streams := c.streams
			c.streams = nil
			// Closing the push channels is the disconnect signal for
			// stream consumers; sends happen under c.mu or only from this
			// goroutine, so the closes cannot race a send.
			for _, s := range streams {
				close(s.c)
			}
			c.mu.Unlock()
			c.conn.Close()
			close(c.Feedback)
			return
		}
		if f.Corr == 0 && f.Type == MsgFeedback {
			if m, err := DecodeFeedbackMsg(f.Payload); err == nil {
				select {
				case c.Feedback <- m:
				default: // drop stale feedback
				}
			}
			continue
		}
		if f.Type == MsgTaskEvent {
			// Multiplexed stream push: Corr carries the stream ID. The send
			// happens under c.mu so Stream.Close can safely close the
			// channel once it is out of the map.
			if m, err := DecodeTaskEventMsg(f.Payload); err == nil {
				c.mu.Lock()
				if s, ok := c.streams[f.Corr]; ok {
					select {
					case s.c <- m:
					default: // drop: the server-side ring already sheds per policy
					}
				}
				c.mu.Unlock()
			}
			continue
		}
		c.mu.Lock()
		ch, ok := c.pending[f.Corr]
		if ok {
			delete(c.pending, f.Corr)
		}
		c.mu.Unlock()
		if ok {
			ch <- f
			close(ch)
		}
	}
}

// roundTrip sends a request and waits for the correlated reply, the
// client's Timeout, ctx cancellation, or the ctx deadline — whichever is
// earliest. The wait timer is a stopped time.NewTimer rather than
// time.After, so a reply arriving first reclaims the timer immediately
// instead of leaking it until expiry (one leaked timer per request adds
// up fast on a pipelined connection).
func (c *Client) roundTrip(ctx context.Context, t MsgType, payload []byte) (Frame, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Frame{}, err
	}
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = errors.New("ctrlproto: client closed")
		}
		return Frame{}, err
	}
	id := c.nextID
	c.nextID++
	if c.nextID == 0 { // correlation 0 is reserved for pushes
		c.nextID = 1
	}
	ch := make(chan Frame, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	if err := WriteFrame(c.conn, Frame{Type: t, Corr: id, Payload: payload}); err != nil {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return Frame{}, err
	}

	timeout := c.Timeout
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	// Honor the ctx deadline when it lands before the client timeout.
	if dl, ok := ctx.Deadline(); ok {
		if until := time.Until(dl); until < timeout {
			timeout = until
		}
	}
	if timeout <= 0 {
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return Frame{}, fmt.Errorf("ctrlproto: deadline expired awaiting reply to %v: %w", t, context.DeadlineExceeded)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case f, ok := <-ch:
		if !ok {
			return Frame{}, fmt.Errorf("ctrlproto: connection lost awaiting %v", t)
		}
		if f.Type == MsgError {
			m, err := DecodeErrorMsg(f.Payload)
			if err != nil {
				return Frame{}, err
			}
			// Reconstruct the typed error: WireError unwraps to the
			// sentinel for the status code, so errors.Is works as if the
			// call had been local.
			return Frame{}, &WireError{Status: m.Code, Text: m.Text}
		}
		return f, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return Frame{}, ctx.Err()
	case <-timer.C:
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return Frame{}, fmt.Errorf("%w awaiting reply to %v", ErrTimeout, t)
	}
}

// Hello identifies the remote device.
func (c *Client) Hello(ctx context.Context) (Hello, error) {
	f, err := c.roundTrip(ctx, MsgHello, nil)
	if err != nil {
		return Hello{}, err
	}
	if f.Type != MsgHelloReply {
		return Hello{}, fmt.Errorf("ctrlproto: unexpected %v to hello", f.Type)
	}
	return DecodeHello(f.Payload)
}

// GetSpec fetches the remote device's hardware specification.
func (c *Client) GetSpec(ctx context.Context) (SpecReply, error) {
	f, err := c.roundTrip(ctx, MsgGetSpec, nil)
	if err != nil {
		return SpecReply{}, err
	}
	if f.Type != MsgSpecReply {
		return SpecReply{}, fmt.Errorf("ctrlproto: unexpected %v to get-spec", f.Type)
	}
	return DecodeSpecReply(f.Payload)
}

// ShiftPhase programs a phase configuration on the remote device. Timeouts
// are retried per c.Retry; the embedded request ID guarantees at most one
// application.
func (c *Client) ShiftPhase(ctx context.Context, cfg surface.Config) error {
	m := ConfigMsg{Property: cfg.Property, Values: cfg.Values, ReqID: c.newReqID()}
	_, err := c.invoke(ctx, MsgShiftPhase, m.Encode())
	return err
}

// SetAmplitude programs an amplitude configuration on the remote device.
func (c *Client) SetAmplitude(ctx context.Context, cfg surface.Config) error {
	m := ConfigMsg{Property: cfg.Property, Values: cfg.Values, ReqID: c.newReqID()}
	_, err := c.invoke(ctx, MsgSetAmplitude, m.Encode())
	return err
}

// StoreCodebook pushes a configuration codebook.
func (c *Client) StoreCodebook(ctx context.Context, labels []string, cfgs []surface.Config) error {
	if len(cfgs) == 0 {
		return errors.New("ctrlproto: empty codebook")
	}
	m := CodebookMsg{Property: cfgs[0].Property, Labels: labels, ReqID: c.newReqID()}
	for _, cfg := range cfgs {
		m.Entries = append(m.Entries, cfg.Values)
	}
	_, err := c.invoke(ctx, MsgStoreCodebook, m.Encode())
	return err
}

// Select activates a stored codebook entry. Retries reuse the request ID,
// so a duplicated select applies exactly once.
func (c *Client) Select(ctx context.Context, i int) error {
	m := SelectMsg{Index: uint32(i), ReqID: c.newReqID()}
	_, err := c.invoke(ctx, MsgSelect, m.Encode())
	return err
}

// Active fetches the remote device's live configuration.
func (c *Client) Active(ctx context.Context) (ActiveReply, error) {
	f, err := c.roundTrip(ctx, MsgActiveQuery, nil)
	if err != nil {
		return ActiveReply{}, err
	}
	if f.Type != MsgActiveReply {
		return ActiveReply{}, fmt.Errorf("ctrlproto: unexpected %v to active-query", f.Type)
	}
	return DecodeActiveReply(f.Payload)
}

// --- task-control requests (served by CtrlAgent) ---

// ListTasks fetches the orchestrator's task table.
func (c *Client) ListTasks(ctx context.Context) ([]TaskInfo, error) {
	f, err := c.roundTrip(ctx, MsgListTasks, nil)
	if err != nil {
		return nil, err
	}
	if f.Type != MsgTasksReply {
		return nil, fmt.Errorf("ctrlproto: unexpected %v to list-tasks", f.Type)
	}
	m, err := DecodeTasksReply(f.Payload)
	return m.Tasks, err
}

// EndTask terminates a task by ID.
func (c *Client) EndTask(ctx context.Context, id int) error {
	_, err := c.roundTrip(ctx, MsgEndTask, TaskIDMsg{ID: uint32(id)}.Encode())
	return err
}

// SetTaskIdle parks (idle=true) or resumes (idle=false) a task.
func (c *Client) SetTaskIdle(ctx context.Context, id int, idle bool) error {
	_, err := c.roundTrip(ctx, MsgSetIdle, TaskIDMsg{ID: uint32(id), Idle: idle}.Encode())
	return err
}

// MoveTask re-targets a live task at a new position (the task's user
// walked); the daemon hands it off between shards as needed.
func (c *Client) MoveTask(ctx context.Context, id int, x, y, z float64) error {
	_, err := c.roundTrip(ctx, MsgMoveTask, MoveTaskMsg{ID: uint32(id), Pos: [3]float64{x, y, z}}.Encode())
	return err
}

// SubmitTask files a service goal and returns the scheduled task.
func (c *Client) SubmitTask(ctx context.Context, m SubmitMsg) (TaskInfo, error) {
	f, err := c.roundTrip(ctx, MsgSubmitTask, m.Encode())
	if err != nil {
		return TaskInfo{}, err
	}
	if f.Type != MsgTaskReply {
		return TaskInfo{}, fmt.Errorf("ctrlproto: unexpected %v to submit-task", f.Type)
	}
	r, err := DecodeTaskReply(f.Payload)
	return r.Task, err
}

// Stream is one multiplexed event stream over a shared connection. Events
// arrive on C, which closes when the stream is closed or the connection
// is lost.
type Stream struct {
	// ID is the stream's wire identifier, unique on its connection.
	ID uint32
	// C delivers the stream's events. Buffered; overflow drops (the
	// server-side ring is the real backpressure boundary).
	C <-chan TaskEventMsg

	c  chan TaskEventMsg
	cl *Client
}

// OpenStream opens a logical event stream multiplexed over this
// connection. Kind is StreamTasks or StreamHealth; filter scopes delivery
// (tenant for tasks, device ID for health; "" = all). Any number of
// streams share the connection with RPCs and each other.
func (c *Client) OpenStream(ctx context.Context, kind, filter string) (*Stream, error) {
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		if err == nil {
			err = errors.New("ctrlproto: client closed")
		}
		return nil, err
	}
	// Stream IDs draw from the correlation counter, so they never collide
	// with in-flight RPCs on the same connection. Registered before the
	// open round-trip: the first events can arrive ahead of the ack.
	id := c.nextID
	c.nextID++
	if c.nextID == 0 {
		c.nextID = 1
	}
	s := &Stream{ID: id, cl: c, c: make(chan TaskEventMsg, 256)}
	s.C = s.c
	if c.streams == nil {
		c.streams = make(map[uint32]*Stream)
	}
	c.streams[id] = s
	c.mu.Unlock()

	_, err := c.roundTrip(ctx, MsgOpenStream, OpenStreamMsg{Stream: id, Kind: kind, Filter: filter}.Encode())
	if err != nil {
		c.mu.Lock()
		if cur, ok := c.streams[id]; ok && cur == s {
			delete(c.streams, id)
			close(s.c)
		}
		c.mu.Unlock()
		return nil, err
	}
	return s, nil
}

// Close tears down the stream on the server and closes C. The connection
// and its other streams stay up.
func (s *Stream) Close(ctx context.Context) error {
	_, err := s.cl.roundTrip(ctx, MsgCloseStream, CloseStreamMsg{Stream: s.ID}.Encode())
	s.cl.mu.Lock()
	if cur, ok := s.cl.streams[s.ID]; ok && cur == s {
		delete(s.cl.streams, s.ID)
		close(s.c)
	}
	s.cl.mu.Unlock()
	return err
}

// Health fetches every managed device's health snapshot.
func (c *Client) Health(ctx context.Context) ([]HealthInfo, error) {
	f, err := c.roundTrip(ctx, MsgHealth, nil)
	if err != nil {
		return nil, err
	}
	if f.Type != MsgHealthReply {
		return nil, fmt.Errorf("ctrlproto: unexpected %v to health", f.Type)
	}
	m, err := DecodeHealthReply(f.Payload)
	return m.Devices, err
}

// HealthFull fetches the complete health reply, including the control
// plane's own section when the agent exposes it (HasControl).
func (c *Client) HealthFull(ctx context.Context) (HealthReply, error) {
	f, err := c.roundTrip(ctx, MsgHealth, nil)
	if err != nil {
		return HealthReply{}, err
	}
	if f.Type != MsgHealthReply {
		return HealthReply{}, fmt.Errorf("ctrlproto: unexpected %v to health", f.Type)
	}
	return DecodeHealthReply(f.Payload)
}

// Report feeds one endpoint SNR measurement to the control plane's
// monitor.
func (c *Client) Report(ctx context.Context, m ReportMsg) error {
	_, err := c.roundTrip(ctx, MsgReport, m.Encode())
	return err
}

// Diagnose fetches the monitor's findings.
func (c *Client) Diagnose(ctx context.Context) ([]FindingInfo, error) {
	f, err := c.roundTrip(ctx, MsgDiagnose, nil)
	if err != nil {
		return nil, err
	}
	if f.Type != MsgDiagnoseReply {
		return nil, fmt.Errorf("ctrlproto: unexpected %v to diagnose", f.Type)
	}
	m, err := DecodeDiagnoseReply(f.Payload)
	return m.Findings, err
}

// Demand dispatches a natural-language demand through the control plane's
// broker.
func (c *Client) Demand(ctx context.Context, utterance string) (DemandReply, error) {
	f, err := c.roundTrip(ctx, MsgDemand, DemandMsg{Utterance: utterance}.Encode())
	if err != nil {
		return DemandReply{}, err
	}
	if f.Type != MsgDemandReply {
		return DemandReply{}, fmt.Errorf("ctrlproto: unexpected %v to demand", f.Type)
	}
	return DecodeDemandReply(f.Payload)
}
