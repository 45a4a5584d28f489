package core

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pfi/internal/message"
	"pfi/internal/script"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// Driver is the layer the paper places ABOVE the target protocol: it
// "is responsible for generating messages and running the test", producing
// traffic that updates the target's own data structures correctly — the
// sends the PFI layer below cannot fake. A Driver runs a test script with
// message-generation commands and coordinates with PFI layers through the
// shared SyncBus, and it also exposes a plain Go API for experiment code.
type Driver struct {
	base   stack.Base
	env    *stack.Env
	interp *script.Interp
	bus    *SyncBus
	log    *trace.Log

	received  []*message.Message
	onDeliver func(m *message.Message)
}

var _ stack.Layer = (*Driver)(nil)

// DriverOption configures a Driver.
type DriverOption func(*Driver)

// DriverWithSyncBus joins the driver to the experiment's sync bus so its
// script can signal/await the PFI layers ("the driver and PFI layers
// communicate with each other during the test").
func DriverWithSyncBus(b *SyncBus) DriverOption {
	return func(d *Driver) { d.bus = b }
}

// DriverWithTrace mirrors driver events into lg.
func DriverWithTrace(lg *trace.Log) DriverOption {
	return func(d *Driver) { d.log = lg }
}

// NewDriver builds a driver layer.
func NewDriver(env *stack.Env, opts ...DriverOption) *Driver {
	d := &Driver{
		base:   stack.NewBase("driver"),
		env:    env,
		interp: script.New(),
		bus:    NewSyncBus(),
		log:    trace.NewLog(),
	}
	for _, opt := range opts {
		opt(d)
	}
	registerDriverCommands(d)
	return d
}

// Name implements stack.Layer.
func (d *Driver) Name() string { return d.base.Name() }

// Wire implements stack.Layer.
func (d *Driver) Wire(down, up stack.Sink) { d.base.Wire(down, up) }

// HandleDown implements stack.Layer: the driver is the top of the stack,
// so nothing ever pushes down through it.
func (d *Driver) HandleDown(m *message.Message) error { return d.base.Down(m) }

// HandleUp implements stack.Layer: inbound messages that cleared the
// target protocol arrive here.
func (d *Driver) HandleUp(m *message.Message) error {
	m.Keep() // Received and recv_data read it long after this hop
	d.received = append(d.received, m)
	d.log.Addf(d.env.Now(), d.env.Node, "driver-recv", "", uint64(m.ID()),
		fmt.Sprintf("%d bytes", m.Len()))
	if d.onDeliver != nil {
		d.onDeliver(m)
	}
	return nil
}

// OnDeliver registers a Go callback for received messages.
func (d *Driver) OnDeliver(fn func(m *message.Message)) { d.onDeliver = fn }

// Received returns the messages delivered to the driver so far.
func (d *Driver) Received() []*message.Message { return d.received }

// Interp exposes the driver's interpreter.
func (d *Driver) Interp() *script.Interp { return d.interp }

// Trace returns the driver's event log.
func (d *Driver) Trace() *trace.Log { return d.log }

// Send pushes payload down to the target protocol, optionally addressed to
// a destination node (for connectionless targets).
func (d *Driver) Send(payload []byte, dst string) error {
	m := message.New(payload)
	m.SetDst(dst)
	return d.base.Down(m)
}

// RunScript executes a test script in the driver's interpreter. Scripts
// can generate traffic (send), pace it (at/after), and synchronize with
// PFI filters (sync_signal/sync_wait).
func (d *Driver) RunScript(src string) error {
	if _, err := d.interp.Eval(src); err != nil {
		return fmt.Errorf("core: driver script on %s: %w", d.env.Node, err)
	}
	return nil
}

// registerDriverCommands installs the driver's test-choreography commands.
func registerDriverCommands(d *Driver) {
	in := d.interp

	// send ?-to node? payload — push application data down the stack.
	in.Register("send", func(_ *script.Interp, args []string) (string, error) {
		dst := ""
		if len(args) == 3 && args[0] == "-to" {
			dst = args[1]
			args = args[2:]
		}
		if len(args) != 1 {
			return "", script.WrongArgs("send ?-to node? payload")
		}
		return "", d.Send([]byte(args[0]), dst)
	})

	// send_repeat count payload — a paced burst, one message per call.
	in.Register("send_repeat", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("send_repeat count payload")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n < 0 {
			return "", fmt.Errorf("bad count %q", args[0])
		}
		for i := 0; i < n; i++ {
			if err := d.Send([]byte(args[1]), ""); err != nil {
				return "", err
			}
		}
		return "", nil
	})

	// recv_count — how many messages the driver has received.
	in.Register("recv_count", func(_ *script.Interp, args []string) (string, error) {
		return strconv.Itoa(len(d.received)), nil
	})

	// recv_data index — payload of the i-th received message.
	in.Register("recv_data", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("recv_data index")
		}
		i, err := strconv.Atoi(args[0])
		if err != nil || i < 0 || i >= len(d.received) {
			return "", fmt.Errorf("bad message index %q (have %d)", args[0], len(d.received))
		}
		return string(d.received[i].CopyBytes()), nil
	})

	in.Register("now", func(_ *script.Interp, args []string) (string, error) {
		return strconv.FormatInt(time.Duration(d.env.Now()).Milliseconds(), 10), nil
	})

	in.Register("after", func(si *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("after milliseconds script")
		}
		ms, err := strconv.ParseFloat(args[0], 64)
		if err != nil || ms < 0 {
			return "", fmt.Errorf("bad delay %q", args[0])
		}
		body := args[1]
		d.env.Sched.After(time.Duration(ms*float64(time.Millisecond)), "driver-after", func() {
			if _, err := si.Eval(body); err != nil {
				d.log.Addf(d.env.Now(), d.env.Node, "script-error", "", 0, err.Error())
			}
		})
		return "", nil
	})

	in.Register("sync_signal", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("sync_signal name")
		}
		d.bus.Signal(args[0])
		return "", nil
	})

	in.Register("sync_test", func(_ *script.Interp, args []string) (string, error) {
		if len(args) != 1 {
			return "", script.WrongArgs("sync_test name")
		}
		if d.bus.IsSet(args[0]) {
			return "1", nil
		}
		return "0", nil
	})

	in.Register("sync_wait", func(si *script.Interp, args []string) (string, error) {
		if len(args) != 2 {
			return "", script.WrongArgs("sync_wait name script")
		}
		body := args[1]
		d.bus.OnSignal(args[0], func() {
			if _, err := si.Eval(body); err != nil {
				d.log.Addf(d.env.Now(), d.env.Node, "script-error", "", 0, err.Error())
			}
		})
		return "", nil
	})

	in.Register("log", func(_ *script.Interp, args []string) (string, error) {
		d.log.Addf(d.env.Now(), d.env.Node, "driver", "", 0, strings.Join(args, " "))
		return "", nil
	})

	in.Register("node", func(_ *script.Interp, args []string) (string, error) {
		return d.env.Node, nil
	})
}
