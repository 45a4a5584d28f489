package core

import (
	"bytes"
	"strings"
	"testing"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// TestEngineBuiltOnFirstUse: a layer that never sees a script never builds
// an interpreter — traffic the stack routes past it, and traffic handed to
// it directly, passes without one, and only the latter enters a filter —
// and each of the three ways in (SetScript, Interp, a peer global access)
// builds it with the same presets an eager layer had.
func TestEngineBuiltOnFirstUse(t *testing.T) {
	r := newRig(t)
	r.send(t, demoMsg(demoDATA, 1, "x"))
	r.deliver(t, demoMsg(demoACK, 1, ""))
	// A direct call takes the filter's own no-script branch.
	if err := r.layer.HandleDown(demoMsg(demoDATA, 2, "x")); err != nil {
		t.Fatal(err)
	}
	if err := r.layer.HandleUp(demoMsg(demoACK, 2, "")); err != nil {
		t.Fatal(err)
	}
	if len(r.toNet) != 2 || len(r.toApp) != 2 {
		t.Fatalf("pass-through: %d reached the network, %d the app; want 2 and 2", len(r.toNet), len(r.toApp))
	}
	send, recv := r.layer.SendFilter(), r.layer.ReceiveFilter()
	if send.interp != nil || recv.interp != nil {
		t.Fatal("pass-through traffic built a filter engine")
	}
	if want := (Stats{Seen: 1}); send.Stats() != want || recv.Stats() != want {
		t.Fatalf("stats without an engine: send %+v, receive %+v; want only the direct call seen",
			send.Stats(), recv.Stats())
	}

	// SetScript builds this direction's engine only; the presets are there.
	if err := r.layer.SetSendScript(`set where $pfi_node/$pfi_dir/$pfi_protocol`); err != nil {
		t.Fatal(err)
	}
	if send.interp == nil || recv.interp != nil {
		t.Fatalf("after SetSendScript: send engine %v, receive engine %v", send.interp != nil, recv.interp != nil)
	}
	r.send(t, demoMsg(demoDATA, 3, "x"))
	if send.Stats().Seen != 2 {
		t.Fatalf("the send filter saw %d messages, want the direct call and the scripted one", send.Stats().Seen)
	}
	if got, _ := send.Interp().Global("where"); got != "testnode/send/demo" {
		t.Fatalf("presets in a lazily built engine: %q", got)
	}

	// A peer global access builds the other direction's engine.
	if err := r.layer.SetSendScript(`peer_set flagged 1; set back [peer_get pfi_dir]`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 4, "x"))
	if recv.interp == nil {
		t.Fatal("peer_set did not build the peer's engine")
	}
	if got, _ := recv.Interp().Global("flagged"); got != "1" {
		t.Fatalf("peer_set before the peer had a script: flagged = %q", got)
	}
	if got, _ := send.Interp().Global("back"); got != "receive" {
		t.Fatalf("peer_get of a preset: %q", got)
	}
}

// TestInterpBeforeAnyScript: the driver-side handle works on a filter that
// never had a script — a value set through it is there when a script
// arrives — and a program can be disassembled against it.
func TestInterpBeforeAnyScript(t *testing.T) {
	r := newRig(t)
	recv := r.layer.ReceiveFilter()
	recv.Interp().SetGlobal("limit", "2") // what conformance's filter_set does
	if err := r.layer.SetReceiveScript(`
		if {![info exists n]} { set n 0 }
		incr n
		if {$n > $limit} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		r.deliver(t, demoMsg(demoACK, byte(i), ""))
	}
	if len(r.toApp) != 2 || recv.Stats().Dropped != 1 {
		t.Fatalf("a global set before any script did not reach it: %d delivered, stats %+v", len(r.toApp), recv.Stats())
	}

	var dump bytes.Buffer
	if err := r.layer.SendFilter().Interp().DumpProgram(&dump, "never-scripted", `xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dump.String(), "xDrop") {
		t.Fatalf("disassembly against a filter that never had a script:\n%s", dump.String())
	}
}

// TestSnapshotRoundTripsNoEngine: "no engine yet" is a state a capture
// holds. A script installed after such a capture is gone after the restore,
// engine included; and captures taken before and after the engine was built
// restore in either order, each to its own state.
func TestSnapshotRoundTripsNoEngine(t *testing.T) {
	r := newRig(t)
	send := r.layer.SendFilter()
	bare := r.layer.SnapshotState()

	if err := r.layer.SetSendScript(`
		if {![info exists n]} { set n 0 }
		incr n
		xDrop cur_msg
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, "x"))
	scripted := r.layer.SnapshotState() // n = 1
	r.send(t, demoMsg(demoDATA, 2, "x"))
	if got, _ := send.Interp().Global("n"); got != "2" || len(r.toNet) != 0 {
		t.Fatalf("before any restore: n = %q, %d forwarded", got, len(r.toNet))
	}

	r.layer.RestoreState(bare)
	if send.interp != nil {
		t.Fatal("restoring a capture taken without an engine kept the fork's engine")
	}
	r.send(t, demoMsg(demoDATA, 3, "x"))
	if len(r.toNet) != 1 {
		t.Fatal("the fork's script leaked through the restore: datagram not forwarded")
	}
	if _, ok := send.Interp().Global("n"); ok {
		t.Fatal("the fork's script state leaked into the next fork")
	}

	r.layer.RestoreState(scripted)
	r.send(t, demoMsg(demoDATA, 4, "x"))
	if got, _ := send.Interp().Global("n"); got != "2" || len(r.toNet) != 1 {
		t.Fatalf("restoring the later capture after the earlier one: n = %q, %d forwarded", got, len(r.toNet))
	}
}

// entryCounter counts the messages a stack hands a PFI layer. It embeds the
// layer, so the stack sees the layer's Passive answer and Wire.
type entryCounter struct {
	*Layer
	downs, ups int
}

func (c *entryCounter) HandleDown(m *message.Message) error { c.downs++; return c.Layer.HandleDown(m) }
func (c *entryCounter) HandleUp(m *message.Message) error   { c.ups++; return c.Layer.HandleUp(m) }

// TestScriptInstalledMidRunSeesTheNextMessage: an unscripted direction is
// off the stack's path, a script installed between two messages runs on the
// second, and restoring a capture taken before the install takes the
// direction off the path again.
func TestScriptInstalledMidRunSeesTheNextMessage(t *testing.T) {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "mid"}
	l := &entryCounter{Layer: NewLayer(env, WithStub(demoStub{}))}
	stk := stack.New(env, l)
	var toNet int
	stk.OnTransmit(func(*message.Message) error { toNet++; return nil })
	send := func(seq byte) {
		t.Helper()
		if err := stk.Send(demoMsg(demoDATA, seq, "x")); err != nil {
			t.Fatal(err)
		}
	}

	bare := l.SnapshotState()
	send(1)
	if l.downs != 0 || toNet != 1 {
		t.Fatalf("unscripted: layer entered %d times, %d reached the network; want 0 and 1", l.downs, toNet)
	}
	if err := l.SetSendScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	send(2)
	if l.downs != 1 || toNet != 1 || l.SendFilter().Stats().Dropped != 1 {
		t.Fatalf("scripted: layer entered %d times, %d reached the network, stats %+v; want the message dropped",
			l.downs, toNet, l.SendFilter().Stats())
	}
	if down, up := l.Passive(); down || !up {
		t.Fatalf("Passive() = %v, %v after a send script; want false, true", down, up)
	}

	l.RestoreState(bare)
	send(3)
	if l.downs != 1 || toNet != 2 {
		t.Fatalf("after restoring the unscripted capture: layer entered %d times, %d reached the network; want 1 and 2",
			l.downs, toNet)
	}
	if down, up := l.Passive(); !down || !up {
		t.Fatalf("Passive() = %v, %v after the restore; want true, true", down, up)
	}
}
