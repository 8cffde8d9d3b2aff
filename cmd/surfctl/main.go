// Command surfctl is a diagnostic client for SurfOS control-protocol
// agents. Pointed at a device agent, it speaks the southbound protocol
// the way an operator debugs a single surface; pointed at a daemon's
// northbound port, it drives the orchestrator's task API.
//
// Device commands:
//
//	surfctl -addr HOST:PORT hello
//	surfctl -addr HOST:PORT spec
//	surfctl -addr HOST:PORT active
//	surfctl -addr HOST:PORT select N
//	surfctl -addr HOST:PORT zero         (program the all-zero mirror config)
//
// Task commands (against surfosd's -listen port):
//
//	surfctl -addr HOST:PORT tasks [--watch]
//	surfctl -addr HOST:PORT submit -kind link -endpoint laptop -pos 2.5,5.5,1.2 [-tenant NAME]
//	surfctl -addr HOST:PORT end ID | idle ID | resume ID
//	surfctl -addr HOST:PORT move ID X,Y,Z   (re-target a walking user's task)
//	surfctl -addr HOST:PORT demand "text"
//	surfctl -addr HOST:PORT health
//	surfctl -addr HOST:PORT report DEV ENDPOINT SNR   (feed one endpoint SNR report to the monitor)
//	surfctl -addr HOST:PORT diagnose                  (monitor findings: measured vs predicted SNR)
//
// Against a replicated daemon pair, -server takes a comma-separated
// failover list tried in order; refused/timed-out dials and standby
// "not the leader" rejections rotate to the next address, and a --watch
// redial rotates through the whole list each backoff round:
//
//	surfctl -server 127.0.0.1:7101,127.0.0.1:7201 tasks --watch
//
// Exit codes map the orchestrator's error taxonomy so scripts can branch
// without parsing text:
//
//	0  ok
//	1  generic failure
//	2  usage
//	3  invalid goal
//	4  unknown task
//	5  cancelled
//	6  control-channel timeout
//	7  admission rejected (tenant quota or global cap)
//	8  not the leader (every listed server is a standby)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"surfos/internal/ctrlproto"
	"surfos/internal/orchestrator"
	"surfos/internal/surface"
)

// Exit codes. Typed errors survive the wire hop (ctrlproto status codes
// unwrap back to orchestrator sentinels), so these hold whether the
// failure happened locally or on the daemon.
const (
	exitOK          = 0
	exitFailure     = 1
	exitUsage       = 2
	exitGoalInvalid = 3
	exitUnknownTask = 4
	exitCancelled   = 5
	exitTimeout     = 6
	exitAdmission   = 7
	exitNotLeader   = 8
)

// exitCode maps an error to the documented process exit code.
func exitCode(err error) int {
	switch {
	case err == nil:
		return exitOK
	case errors.Is(err, errUsage):
		return exitUsage
	case errors.Is(err, orchestrator.ErrGoalInvalid):
		return exitGoalInvalid
	case errors.Is(err, orchestrator.ErrUnknownTask):
		return exitUnknownTask
	case errors.Is(err, orchestrator.ErrAdmissionRejected):
		return exitAdmission
	case errors.Is(err, ctrlproto.ErrNotLeader):
		// Every server in the -server list is a standby (or the lone
		// -addr target is): the mutation was cleanly rejected everywhere.
		return exitNotLeader
	case errors.Is(err, ctrlproto.ErrTimeout):
		// Checked before the generic cancellation cases: a request that
		// died awaiting its reply is a control-channel health signal, not
		// an operator ^C.
		return exitTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return exitCancelled
	}
	return exitFailure
}

var errUsage = errors.New("usage: surfctl -addr HOST:PORT hello|spec|active|select N|zero|tasks [--watch]|submit ...|end ID|idle ID|resume ID|move ID X,Y,Z|demand TEXT|health|report DEV ENDPOINT SNR|diagnose")

// parseVec parses "x,y,z" into a wire position.
func parseVec(s string) ([3]float64, error) {
	var v [3]float64
	if s == "" {
		return v, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return v, fmt.Errorf("surfctl: position %q: want x,y,z", s)
	}
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return v, fmt.Errorf("surfctl: position %q: %w", s, err)
		}
		v[i] = f
	}
	return v, nil
}

// submitMsg parses the submit subcommand's flags into a wire goal.
func submitMsg(args []string) (ctrlproto.SubmitMsg, error) {
	fs := flag.NewFlagSet("submit", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	kind := fs.String("kind", "link", "service kind (registry name)")
	endpoint := fs.String("endpoint", "", "endpoint/device name")
	region := fs.String("region", "", "target region")
	typ := fs.String("type", "", "sensing type")
	pos := fs.String("pos", "", "position x,y,z")
	pos2 := fs.String("pos2", "", "second position x,y,z (security eavesdropper)")
	minSNR := fs.Float64("min-snr", 0, "minimum SNR dB (link)")
	median := fs.Float64("median-snr", 0, "median SNR dB (coverage)")
	freq := fs.Float64("freq", 0, "carrier frequency Hz (0 = AP default)")
	grid := fs.Float64("grid", 0, "grid step m (0 = orchestrator default)")
	dur := fs.Duration("dur", 0, "duration (sensing/powering)")
	prio := fs.Int("prio", 1, "priority")
	tenant := fs.String("tenant", "", "submitting tenant (default: the shared default tenant)")
	if err := fs.Parse(args); err != nil {
		return ctrlproto.SubmitMsg{}, fmt.Errorf("%w: %v", errUsage, err)
	}
	m := ctrlproto.SubmitMsg{
		Kind: *kind, Endpoint: *endpoint, Region: *region, Type: *typ,
		MinSNRdB: *minSNR, MediandB: *median, FreqHz: *freq, GridStep: *grid,
		DurNanos: uint64(*dur), Priority: uint32(*prio), Tenant: *tenant,
	}
	var err error
	if m.Pos, err = parseVec(*pos); err != nil {
		return m, err
	}
	if m.Pos2, err = parseVec(*pos2); err != nil {
		return m, err
	}
	return m, nil
}

// run executes one surfctl command, writing human-readable output to
// out. addrList is one address or a comma-separated failover list (the
// -server flag): addresses are tried in order, rotating past servers
// that refuse the connection, time out at dial, or answer "not the
// leader" — which is how a replicated control-plane pair looks to a
// client during failover. ctx bounds every protocol round trip (^C
// during a hung agent aborts cleanly).
func run(ctx context.Context, addrList string, args []string, out io.Writer) error {
	if len(args) == 0 {
		return errUsage
	}
	addrs := splitAddrs(addrList)
	if len(addrs) == 0 {
		return fmt.Errorf("%w (no server address)", errUsage)
	}
	var lastErr error
	for i, addr := range addrs {
		rotate, err := runOn(ctx, addr, addrs, args, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !rotate || i == len(addrs)-1 {
			return err
		}
		log.Printf("surfctl: %s: %v; trying next server", addr, err)
	}
	return lastErr
}

// splitAddrs parses a comma-separated address list, dropping empties.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// runOn executes the command against one server. rotate reports whether
// the failure is one the next server in the list might not share: the
// dial failed (refused, unreachable, timed out — nothing was executed)
// or a standby cleanly rejected the mutation with "not the leader".
// Errors from a command that reached a live leader never rotate — the
// request may have been applied, and a retry could double-submit.
func runOn(ctx context.Context, addr string, addrs []string, args []string, out io.Writer) (rotate bool, err error) {
	c, err := ctrlproto.Dial(addr)
	if err != nil {
		return true, err
	}
	defer c.Close()
	err = runCmd(ctx, c, addrs, args, out)
	return errors.Is(err, ctrlproto.ErrNotLeader), err
}

// runCmd dispatches one command on an established connection.
func runCmd(ctx context.Context, c *ctrlproto.Client, addrs []string, args []string, out io.Writer) error {
	switch args[0] {
	case "hello":
		h, err := c.Hello(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "device=%s model=%s mount=%s\n", h.DeviceID, h.Model, h.Mount)
		return nil

	case "spec":
		s, err := c.GetSpec(ctx)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "model=%s band=%.2f-%.2f GHz control=%v mode=%v granularity=%v\n",
			s.Model, s.FreqLowHz/1e9, s.FreqHighHz/1e9, s.Control, s.OpMode, s.Granularity)
		fmt.Fprintf(out, "reconfigurable=%v phase-bits=%d control-delay=%dns elements=%dx%d cost=$%.2f\n",
			s.Reconfigurable, s.PhaseBits, s.ControlDelayNanos, s.Rows, s.Cols, s.CostUSD)
		return nil

	case "active":
		a, err := c.Active(ctx)
		if err != nil {
			return err
		}
		if !a.HasActive {
			fmt.Fprintln(out, "no active configuration")
			return nil
		}
		fmt.Fprintf(out, "label=%s property=%v elements=%d\n", a.Label, a.Property, len(a.Values))
		return nil

	case "select":
		if len(args) < 2 {
			return fmt.Errorf("%w (select needs an index)", errUsage)
		}
		n, err := strconv.Atoi(args[1])
		if err != nil {
			return err
		}
		if err := c.Select(ctx, n); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil

	case "zero":
		spec, err := c.GetSpec(ctx)
		if err != nil {
			return err
		}
		n := int(spec.Rows * spec.Cols)
		if err := c.ShiftPhase(ctx, surface.Config{Property: surface.Phase, Values: make([]float64, n)}); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil

	case "tasks":
		watch := len(args) > 1 && (args[1] == "--watch" || args[1] == "-watch")
		tasks, err := c.ListTasks(ctx)
		if err != nil {
			return err
		}
		if len(tasks) == 0 {
			fmt.Fprintln(out, "no tasks")
		}
		for _, t := range tasks {
			ctrlproto.RenderTask(out, t)
		}
		if !watch {
			return nil
		}
		return watchTasks(ctx, addrs, c, out)

	case "submit":
		m, err := submitMsg(args[1:])
		if err != nil {
			return err
		}
		t, err := c.SubmitTask(ctx, m)
		if err != nil {
			return err
		}
		ctrlproto.RenderTask(out, t)
		return nil

	case "end", "idle", "resume":
		if len(args) < 2 {
			return fmt.Errorf("%w (%s needs a task id)", errUsage, args[0])
		}
		id, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("%w (%s needs a numeric task id)", errUsage, args[0])
		}
		switch args[0] {
		case "end":
			err = c.EndTask(ctx, id)
		case "idle":
			err = c.SetTaskIdle(ctx, id, true)
		case "resume":
			err = c.SetTaskIdle(ctx, id, false)
		}
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil

	case "move":
		if len(args) < 3 {
			return fmt.Errorf("%w (move needs a task id and x,y,z)", errUsage)
		}
		id, err := strconv.Atoi(args[1])
		if err != nil {
			return fmt.Errorf("%w (move needs a numeric task id)", errUsage)
		}
		pos, err := parseVec(args[2])
		if err != nil {
			return fmt.Errorf("%w: %v", errUsage, err)
		}
		if err := c.MoveTask(ctx, id, pos[0], pos[1], pos[2]); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil

	case "health":
		reply, err := c.HealthFull(ctx)
		if err != nil {
			return err
		}
		if len(reply.Devices) == 0 {
			fmt.Fprintln(out, "no devices")
		}
		ctrlproto.RenderDeviceHealth(out, reply.Devices)
		if reply.HasControl {
			ctrlproto.RenderControlHealth(out, reply.Control)
		}
		return nil

	case "report":
		if len(args) != 4 {
			return fmt.Errorf("%w (report needs a device, an endpoint and an SNR in dB)", errUsage)
		}
		snr, err := strconv.ParseFloat(args[3], 64)
		if err != nil {
			return fmt.Errorf("%w (report needs a numeric SNR)", errUsage)
		}
		if err := c.Report(ctx, ctrlproto.ReportMsg{DeviceID: args[1], EndpointID: args[2], SNRdB: snr}); err != nil {
			return err
		}
		fmt.Fprintln(out, "ok")
		return nil

	case "diagnose":
		findings, err := c.Diagnose(ctx)
		if err != nil {
			return err
		}
		if len(findings) == 0 {
			fmt.Fprintln(out, "no expectations installed (schedule a link task first)")
		}
		for _, f := range findings {
			fmt.Fprintf(out, "%s/%s: %s (expected %.1f dB, observed %.1f dB, %d reports)\n",
				f.DeviceID, f.EndpointID, f.Verdict, f.ExpectedSNRdB, f.ObservedSNRdB, f.Samples)
		}
		return nil

	case "demand":
		if len(args) < 2 {
			return fmt.Errorf("%w (demand needs an utterance)", errUsage)
		}
		r, err := c.Demand(ctx, strings.Join(args[1:], " "))
		if err != nil {
			return err
		}
		for _, call := range r.Calls {
			fmt.Fprintf(out, "call: %s\n", call)
		}
		for _, t := range r.Tasks {
			ctrlproto.RenderTask(out, t)
		}
		return nil
	}
	return fmt.Errorf("%w (unknown command %q)", errUsage, args[0])
}

// Watch reconnect backoff: the stream survives daemon restarts, retrying
// the dial at capped exponential intervals.
const (
	watchBackoffBase = 200 * time.Millisecond
	watchBackoffMax  = 5 * time.Second
)

// watchTasks streams lifecycle events until ctx is cancelled (^C is the
// operator's clean stop, so it exits 0). Events arrive on a multiplexed
// stream (a drop-oldest ring on the daemon side, so a slow terminal sees
// the freshest window instead of stalling the daemon). When the daemon
// drops the connection — crash, restart, drain — the watch does not die
// with it: it redials with capped exponential backoff and resumes the
// stream, printing a `reconnected` marker so operators can tell the
// epochs apart. With a multi-address -server list the redial rotates
// through every address per backoff round, so a watch pointed at a
// replicated pair follows the surviving daemon through a failover.
func watchTasks(ctx context.Context, addrs []string, c *ctrlproto.Client, out io.Writer) error {
	s, err := c.OpenStream(ctx, ctrlproto.StreamTasks, "")
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "watching task events (^C to stop)")
	for {
		ctxDone := streamTaskEvents(ctx, s, out)
		c.Close()
		if ctxDone {
			return nil
		}
		fmt.Fprintln(out, "connection lost; reconnecting")
		nc, ns, to, err := redialWatch(ctx, addrs)
		if err != nil {
			// Cancellation while waiting out a dead daemon is the
			// operator's clean stop, like ^C mid-stream.
			if errors.Is(err, context.Canceled) {
				return nil
			}
			return err
		}
		c, s = nc, ns
		if len(addrs) > 1 {
			fmt.Fprintf(out, "reconnected to %s\n", to)
		} else {
			fmt.Fprintln(out, "reconnected")
		}
	}
}

// redialWatch dials the address list until some server accepts and the
// event stream is re-established, backing off exponentially (capped)
// between rounds. Every address is tried each round — refused and
// timed-out dials rotate to the next server immediately. Only ctx
// cancellation makes it give up.
func redialWatch(ctx context.Context, addrs []string) (*ctrlproto.Client, *ctrlproto.Stream, string, error) {
	delay := watchBackoffBase
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, "", err
		}
		for _, addr := range addrs {
			c, err := ctrlproto.Dial(addr)
			if err != nil {
				continue
			}
			if s, serr := c.OpenStream(ctx, ctrlproto.StreamTasks, ""); serr == nil {
				return c, s, addr, nil
			}
			// Daemon reachable but not serving watches yet (still booting
			// or already draining): close and keep trying.
			c.Close()
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, nil, "", ctx.Err()
		case <-timer.C:
		}
		if delay *= 2; delay > watchBackoffMax {
			delay = watchBackoffMax
		}
	}
}

// streamTaskEvents renders events until ctx is cancelled (returns true)
// or the connection is lost and the stream channel closes (returns
// false).
func streamTaskEvents(ctx context.Context, s *ctrlproto.Stream, out io.Writer) bool {
	for {
		select {
		case <-ctx.Done():
			return true
		case ev, ok := <-s.C:
			if !ok {
				return false
			}
			ts := time.Unix(0, ev.UnixNanos).Format(time.TimeOnly)
			if ev.DeviceID != "" {
				// Health transitions and healing markers are device-scoped.
				fmt.Fprintf(out, "%s device %s %s", ts, ev.DeviceID, ev.State)
				if ev.Err != "" {
					fmt.Fprintf(out, " err=%q", ev.Err)
				}
				fmt.Fprintln(out)
				continue
			}
			fmt.Fprintf(out, "%s task %d %s %s", ts, ev.TaskID, ev.Kind, ev.State)
			if ev.Endpoint != "" {
				fmt.Fprintf(out, " endpoint=%s", ev.Endpoint)
			}
			if ev.Strategy != "" {
				fmt.Fprintf(out, " strategy=%s surfaces=%v share=%.2f", ev.Strategy, ev.Surfaces, ev.Share)
			}
			if ev.MetricName != "" {
				fmt.Fprintf(out, " %s=%.2f", ev.MetricName, ev.Metric)
			}
			if ev.Err != "" {
				fmt.Fprintf(out, " err=%q", ev.Err)
			}
			fmt.Fprintln(out)
		}
	}
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7100", "agent address (device agent or surfosd -listen port)")
	server := flag.String("server", "", "comma-separated failover list of control addresses, tried in order (overrides -addr)")
	flag.Parse()
	target := *addr
	if *server != "" {
		target = *server
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, target, flag.Args(), os.Stdout); err != nil {
		log.Printf("surfctl: %v", err)
		os.Exit(exitCode(err))
	}
}
