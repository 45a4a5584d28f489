package core

import (
	"testing"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// checkDriver runs act against a driver alone in a stack and checks what
// reaches the transmit sink: wantNet addressed to wantDst, or nothing when
// wantNet is "". Nothing may ever get past the driver upward.
func checkDriver(t *testing.T, act func(d *Driver, stk *stack.Stack) error, wantNet, wantDst string) {
	t.Helper()
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "drv"}
	d := NewDriver(env)
	if d.Name() != "driver" {
		t.Errorf("driver name %q", d.Name())
	}
	stk := stack.New(env, d)
	var toNet []*message.Message
	stk.OnTransmit(func(m *message.Message) error { toNet = append(toNet, m); return nil })
	delivered := 0
	stk.OnDeliver(func(*message.Message) error { delivered++; return nil })
	if err := act(d, stk); err != nil {
		t.Fatal(err)
	}
	if wantNet == "" {
		if len(toNet) != 0 {
			t.Fatalf("net got %d messages, want none", len(toNet))
		}
	} else if len(toNet) != 1 || string(toNet[0].Bytes()) != wantNet || toNet[0].Dst() != wantDst {
		t.Fatalf("net got %v, want %q to %q", toNet, wantNet, wantDst)
	}
	if delivered != 0 {
		t.Fatalf("%d messages got past the driver", delivered)
	}
}

// TestDriverAddressedSend: Send with a dst reaches the transmit sink addressed.
func TestDriverAddressedSend(t *testing.T) {
	checkDriver(t, func(d *Driver, _ *stack.Stack) error { return d.Send([]byte("addressed"), "nodeB") },
		"addressed", "nodeB")
}

// TestDriverHandleDownPassesThrough: a message sent from above the driver
// goes down unchanged.
func TestDriverHandleDownPassesThrough(t *testing.T) {
	checkDriver(t, func(_ *Driver, stk *stack.Stack) error { return stk.Send(message.New([]byte("raw-push"))) },
		"raw-push", "")
}

// TestDriverReceivePath: HandleUp swallows what arrives from below.
func TestDriverReceivePath(t *testing.T) {
	checkDriver(t, func(_ *Driver, stk *stack.Stack) error { return stk.Deliver(message.New([]byte("inbound"))) },
		"", "")
}
