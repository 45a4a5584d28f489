package core

import (
	"strconv"
	"strings"
	"testing"

	"pfi/internal/dist"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

func TestLayerOptionsAndAccessors(t *testing.T) {
	sched := simtime.NewScheduler()
	env := &stack.Env{Sched: sched, Node: "acc"}
	lg := trace.NewLog()
	bus := NewSyncBus()
	rng := dist.NewSource(5)
	l := NewLayer(env,
		WithStub(demoStub{}),
		WithTrace(lg),
		WithRand(rng),
		WithSyncBus(bus),
	)
	if l.Name() != "pfi" {
		t.Errorf("Name = %q", l.Name())
	}
	if l.Trace() != lg {
		t.Error("Trace not wired")
	}
	if l.Bus() != bus {
		t.Error("Bus not wired")
	}
	if _, ok := l.Stub().(demoStub); !ok {
		t.Errorf("Stub = %T", l.Stub())
	}
	if l.SendFilter().Dir() != Send || l.ReceiveFilter().Dir() != Receive {
		t.Error("filter directions wrong")
	}
}

// TestFilterVerbRows: each row runs DATA 1..n through one send-filter script,
// runs the clock out, and pins what reached the wire in order, what is
// still held (as the script's held_count saw it after the last message, and
// as the driver sees it), and what the filter logged.
func TestFilterVerbRows(t *testing.T) {
	for _, tt := range []struct {
		name   string
		script string
		n      byte
		wire   string // seq bytes, in wire order
		held   string // $held after the last message ("": not set)
		logged string // notes of the "script" trace entries
	}{
		{name: "delay", n: 3, wire: "2 3 1",
			script: `if {[msg_field cur_msg seq] == 1} { xDelay cur_msg 500 }`},
		{name: "duplicate", n: 3, wire: "1 2 2 3",
			script: `if {[msg_field cur_msg seq] == 2} { xDuplicate cur_msg }`},
		// The message held in the releasing run is on the queue already,
		// so the LIFO release forwards it first.
		{name: "hold_release_lifo", n: 5, wire: "1 4 3 2 5", held: "0", script: `
			set seq [msg_field cur_msg seq]
			if {$seq == 2 || $seq == 3} {
				xHold cur_msg
			} elseif {$seq == 4} {
				xHold cur_msg
				xReleaseLIFO
			}
			set held [held_count]`},
		{name: "release_fifo", n: 3, wire: "1 3", held: "1", script: `
			if {[msg_field cur_msg seq] <= 2} { xHold cur_msg } else { xRelease 1 }
			set held [held_count]`},
		{name: "log", n: 3, wire: "1 2 3", logged: "second message 2",
			script: `if {[msg_field cur_msg seq] == 2} { log second message [msg_field cur_msg seq] }`},
	} {
		t.Run(tt.name, func(t *testing.T) {
			r := newRig(t)
			if err := r.layer.SetSendScript(tt.script); err != nil {
				t.Fatal(err)
			}
			for seq := byte(1); seq <= tt.n; seq++ {
				r.send(t, demoMsg(demoDATA, seq, ""))
			}
			r.sched.Run()
			var wire []string
			for _, m := range r.toNet {
				b, _ := m.ByteAt(1)
				wire = append(wire, strconv.Itoa(int(b)))
			}
			if got := strings.Join(wire, " "); got != tt.wire {
				t.Errorf("wire order %q, want %q", got, tt.wire)
			}
			held, _ := r.layer.SendFilter().Interp().Global("held")
			if held != tt.held {
				t.Errorf("held_count = %q, want %q", held, tt.held)
			}
			if tt.held != "" && strconv.Itoa(r.layer.SendFilter().HeldCount()) != tt.held {
				t.Errorf("HeldCount = %d, script saw %s", r.layer.SendFilter().HeldCount(), tt.held)
			}
			var notes []string
			for _, e := range r.layer.Trace().Filter("testnode", "script", "") {
				notes = append(notes, e.Note)
			}
			if got := strings.Join(notes, ","); got != tt.logged {
				t.Errorf("logged %q, want %q", got, tt.logged)
			}
		})
	}
}

func TestNopStub(t *testing.T) {
	var s NopStub
	if s.Protocol() != "unknown" {
		t.Errorf("Protocol = %q", s.Protocol())
	}
	info, err := s.Recognize(message.NewString("anything"))
	if err != nil || info.Type != "UNKNOWN" {
		t.Errorf("Recognize = %+v, %v", info, err)
	}
	if _, err := s.Generate("ACK", nil); err == nil {
		t.Error("NopStub generated a message")
	}
}

func TestNopStubLayerPassesEverything(t *testing.T) {
	sched := simtime.NewScheduler()
	env := &stack.Env{Sched: sched, Node: "nop"}
	l := NewLayer(env) // default NopStub
	if err := l.SetSendScript(`
		if {[msg_type cur_msg] ne "UNKNOWN"} { error "type [msg_type cur_msg]" }
	`); err != nil {
		t.Fatal(err)
	}
	stk := stack.New(env, l)
	sent := 0
	stk.OnTransmit(func(m *message.Message) error { sent++; return nil })
	if err := stk.Send(message.NewString("opaque")); err != nil {
		t.Fatal(err)
	}
	if sent != 1 {
		t.Fatal("opaque message not forwarded")
	}
}
