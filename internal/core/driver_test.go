package core

import (
	"strings"
	"testing"
	"time"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// driverRig: driver on top, PFI below, capture at the bottom.
type driverRig struct {
	sched  *simtime.Scheduler
	driver *Driver
	pfi    *Layer
	stk    *stack.Stack
	toNet  []*message.Message
}

func newDriverRig(t *testing.T) *driverRig {
	t.Helper()
	r := &driverRig{sched: simtime.NewScheduler()}
	env := &stack.Env{Sched: r.sched, Node: "drv"}
	bus := NewSyncBus()
	r.driver = NewDriver(env, DriverWithSyncBus(bus))
	r.pfi = NewLayer(env, WithStub(demoStub{}), WithSyncBus(bus))
	r.stk = stack.New(env, r.driver, r.pfi)
	r.stk.OnTransmit(func(m *message.Message) error {
		r.toNet = append(r.toNet, m)
		return nil
	})
	return r
}

func TestDriverSendScript(t *testing.T) {
	r := newDriverRig(t)
	if err := r.driver.RunScript(`send "hello from the driver"`); err != nil {
		t.Fatal(err)
	}
	if len(r.toNet) != 1 || string(r.toNet[0].CopyBytes()) != "hello from the driver" {
		t.Fatalf("net got %v", r.toNet)
	}
}

func TestDriverSendRepeatPaced(t *testing.T) {
	r := newDriverRig(t)
	if err := r.driver.RunScript(`
		send_repeat 3 burst
		after 1000 { send_repeat 2 late }
	`); err != nil {
		t.Fatal(err)
	}
	if len(r.toNet) != 3 {
		t.Fatalf("immediate burst = %d, want 3", len(r.toNet))
	}
	r.sched.Run()
	if len(r.toNet) != 5 {
		t.Fatalf("after pacing = %d, want 5", len(r.toNet))
	}
}

func TestDriverReceivePath(t *testing.T) {
	r := newDriverRig(t)
	var got []string
	r.driver.OnDeliver(func(m *message.Message) {
		got = append(got, string(m.CopyBytes()))
	})
	if err := r.stk.Deliver(message.NewString("\x03\x01payload")); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(r.driver.Received()) != 1 {
		t.Fatalf("driver received %v", got)
	}
	res, err := r.driver.Interp().Eval(`recv_count`)
	if err != nil || res != "1" {
		t.Fatalf("recv_count = %q, %v", res, err)
	}
	res, err = r.driver.Interp().Eval(`recv_data 0`)
	if err != nil || !strings.HasSuffix(res, "payload") {
		t.Fatalf("recv_data = %q, %v", res, err)
	}
	if _, err := r.driver.Interp().Eval(`recv_data 9`); err == nil {
		t.Fatal("out-of-range recv_data succeeded")
	}
}

func TestDriverCoordinatesWithPFI(t *testing.T) {
	// The driver signals the PFI layer to start dropping — the paper's
	// driver/PFI choreography, entirely in scripts.
	r := newDriverRig(t)
	if err := r.pfi.SetSendScript(`
		if {[sync_test blackout]} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	if err := r.driver.RunScript(`
		send one
		sync_signal blackout
		send two
	`); err != nil {
		t.Fatal(err)
	}
	if len(r.toNet) != 1 || string(r.toNet[0].CopyBytes()) != "one" {
		t.Fatalf("net got %d messages, want only the pre-blackout one", len(r.toNet))
	}
}

func TestDriverSyncWaitFromPFISide(t *testing.T) {
	// Reverse direction: the PFI filter signals; the driver reacts.
	r := newDriverRig(t)
	if err := r.pfi.SetReceiveScript(`
		if {[msg_type cur_msg] eq "NACK"} { sync_signal saw-nack }
	`); err != nil {
		t.Fatal(err)
	}
	if err := r.driver.RunScript(`
		sync_wait saw-nack { send "reaction" }
	`); err != nil {
		t.Fatal(err)
	}
	if len(r.toNet) != 0 {
		t.Fatal("driver reacted before the signal")
	}
	if err := r.stk.Deliver(message.New([]byte{2, 9})); err != nil { // NACK
		t.Fatal(err)
	}
	if len(r.toNet) != 1 || string(r.toNet[0].CopyBytes()) != "reaction" {
		t.Fatalf("driver reaction: %v", r.toNet)
	}
}

func TestDriverAddressedSend(t *testing.T) {
	r := newDriverRig(t)
	if err := r.driver.RunScript(`send -to nodeB "addressed"`); err != nil {
		t.Fatal(err)
	}
	if len(r.toNet) != 1 {
		t.Fatal("no message")
	}
	if dst := r.toNet[0].Dst(); dst != "nodeB" {
		t.Fatalf("dst = %q, want nodeB", dst)
	}
}

func TestDriverScriptErrors(t *testing.T) {
	r := newDriverRig(t)
	for _, bad := range []string{
		`send`,
		`send a b`,
		`send_repeat x y`,
		`send_repeat -1 y`,
		`recv_data`,
		`after x {}`,
		`sync_signal`,
		`nonsense_command`,
	} {
		if err := r.driver.RunScript(bad); err == nil {
			t.Errorf("driver script %q succeeded", bad)
		}
	}
}

func TestDriverLogAndNow(t *testing.T) {
	r := newDriverRig(t)
	r.sched.RunFor(2 * time.Second)
	if err := r.driver.RunScript(`
		if {[now] != 2000} { error "now=[now]" }
		log phase one complete
		if {[node] ne "drv"} { error "node=[node]" }
	`); err != nil {
		t.Fatal(err)
	}
	if len(r.driver.Trace().Filter("drv", "driver", "")) != 1 {
		t.Fatal("log entry missing")
	}
}
