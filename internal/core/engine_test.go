package core

import (
	"bytes"
	"strings"
	"testing"
)

// TestEngineBuiltOnFirstUse: a layer that never sees a script never builds
// an interpreter — traffic passes and is counted without one — and each of
// the three ways in (SetScript, Interp, a peer global access) builds it
// with the same presets an eager layer had.
func TestEngineBuiltOnFirstUse(t *testing.T) {
	r := newRig(t)
	r.send(t, demoMsg(demoDATA, 1, "x"))
	r.deliver(t, demoMsg(demoACK, 1, ""))
	send, recv := r.layer.SendFilter(), r.layer.ReceiveFilter()
	if send.interp != nil || recv.interp != nil {
		t.Fatal("pass-through traffic built a filter engine")
	}
	if send.Stats().Seen != 1 || recv.Stats().Seen != 1 {
		t.Fatalf("stats without an engine: send %+v, receive %+v", send.Stats(), recv.Stats())
	}

	// SetScript builds this direction's engine only; the presets are there.
	if err := r.layer.SetSendScript(`set where $pfi_node/$pfi_dir/$pfi_protocol`); err != nil {
		t.Fatal(err)
	}
	if send.interp == nil || recv.interp != nil {
		t.Fatalf("after SetSendScript: send engine %v, receive engine %v", send.interp != nil, recv.interp != nil)
	}
	r.send(t, demoMsg(demoDATA, 3, "x"))
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
