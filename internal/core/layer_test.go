package core

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// demoStub recognizes a toy protocol whose first byte is the type and
// second byte the sequence number: [type][seq][payload...].
type demoStub struct{}

const (
	demoACK  = 0x1
	demoNACK = 0x2
	demoDATA = 0x3
)

func (demoStub) Protocol() string { return "demo" }

func (demoStub) Recognize(m *message.Message) (Info, error) {
	hdr := m.Bytes()
	if len(hdr) < 2 {
		return Info{}, fmt.Errorf("demo: short packet: %d bytes", len(hdr))
	}
	var typ string
	switch hdr[0] {
	case demoACK:
		typ = "ACK"
	case demoNACK:
		typ = "NACK"
	case demoDATA:
		typ = "DATA"
	default:
		typ = "UNKNOWN"
	}
	return Info{Type: typ, Fields: FieldMap{
		"seq": strconv.Itoa(int(hdr[1])),
	}}, nil
}

func (demoStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	var b byte
	switch typ {
	case "ACK":
		b = demoACK
	case "NACK":
		b = demoNACK
	case "DATA":
		b = demoDATA
	default:
		return nil, fmt.Errorf("demo: cannot generate %q", typ)
	}
	seq := 0
	if s, ok := fields["seq"]; ok {
		v, err := strconv.Atoi(s)
		if err != nil {
			return nil, fmt.Errorf("demo: bad seq %q", s)
		}
		seq = v
	}
	return message.New([]byte{b, byte(seq)}), nil
}

func demoMsg(typ byte, seq byte, payload string) *message.Message {
	return message.New(append([]byte{typ, seq}, payload...))
}

// rig wires app <-> PFI <-> network with capture at both ends.
type rig struct {
	sched *simtime.Scheduler
	log   *trace.Log
	layer *Layer
	stk   *stack.Stack
	toNet []*message.Message // what reached the network (below PFI)
	toApp []*message.Message // what reached the app (above PFI)
}

func newRig(t *testing.T, opts ...Option) *rig {
	t.Helper()
	r := &rig{sched: simtime.NewScheduler(), log: trace.NewLog()}
	env := &stack.Env{Sched: r.sched, Node: "testnode"}
	opts = append([]Option{WithStub(demoStub{}), WithTrace(r.log)}, opts...)
	r.layer = NewLayer(env, opts...)
	r.stk = stack.New(env, r.layer)
	r.stk.OnTransmit(func(m *message.Message) error {
		r.toNet = append(r.toNet, m)
		return nil
	})
	r.stk.OnDeliver(func(m *message.Message) error {
		r.toApp = append(r.toApp, m)
		return nil
	})
	return r
}

// held is the send filter's hold-queue length, as its held_count reports.
func (r *rig) held(t *testing.T) string {
	t.Helper()
	n, err := r.layer.SendFilter().Interp().Eval("held_count")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func (r *rig) send(t *testing.T, m *message.Message) {
	t.Helper()
	if err := r.stk.Send(m); err != nil {
		t.Fatal(err)
	}
}

func (r *rig) deliver(t *testing.T, m *message.Message) {
	t.Helper()
	if err := r.stk.Deliver(m); err != nil {
		t.Fatal(err)
	}
}

func TestPassThroughWithoutScripts(t *testing.T) {
	r := newRig(t)
	r.send(t, demoMsg(demoDATA, 1, "x"))
	r.deliver(t, demoMsg(demoACK, 1, ""))
	if len(r.toNet) != 1 || len(r.toApp) != 1 {
		t.Fatalf("toNet=%d toApp=%d, want 1/1", len(r.toNet), len(r.toApp))
	}
}

func TestDropAllACKsScript(t *testing.T) {
	// The paper's flagship example: a receive filter that drops all ACKs.
	r := newRig(t)
	err := r.layer.SetReceiveScript(`
		if {[msg_type cur_msg] eq "ACK"} {
			xDrop cur_msg
		}
	`)
	if err != nil {
		t.Fatal(err)
	}
	r.deliver(t, demoMsg(demoACK, 1, ""))
	r.deliver(t, demoMsg(demoDATA, 2, "keep"))
	r.deliver(t, demoMsg(demoACK, 3, ""))
	if len(r.toApp) != 1 {
		t.Fatalf("app received %d messages, want only the DATA", len(r.toApp))
	}
	if got := r.layer.ReceiveFilter().Stats(); got.Seen != 3 || got.Dropped != 2 {
		t.Fatalf("stats %+v", got)
	}
}

func TestSendFilterIndependentOfReceiveFilter(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	r.deliver(t, demoMsg(demoDATA, 2, ""))
	if len(r.toNet) != 0 {
		t.Fatal("send filter did not drop")
	}
	if len(r.toApp) != 1 {
		t.Fatal("receive path affected by send filter")
	}
}

func TestDelayForwardsLater(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`xDelay cur_msg 3000`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	if len(r.toNet) != 0 {
		t.Fatal("delayed message forwarded immediately")
	}
	r.sched.RunFor(2999 * time.Millisecond)
	if len(r.toNet) != 0 {
		t.Fatal("delayed message forwarded early")
	}
	r.sched.RunFor(time.Millisecond)
	if len(r.toNet) != 1 {
		t.Fatal("delayed message never forwarded")
	}
}

func TestDelayCausesReordering(t *testing.T) {
	// Experiment 5's mechanism: delay the first segment so the second
	// arrives first.
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		if {[msg_field cur_msg seq] == 1} { xDelay cur_msg 3000 }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	r.send(t, demoMsg(demoDATA, 2, ""))
	r.sched.Run()
	if len(r.toNet) != 2 {
		t.Fatalf("forwarded %d, want 2", len(r.toNet))
	}
	first, _ := r.toNet[0].ByteAt(1)
	second, _ := r.toNet[1].ByteAt(1)
	if first != 2 || second != 1 {
		t.Fatalf("wire order seq=%d,%d; want 2,1", first, second)
	}
}

func TestDuplicate(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`xDuplicate cur_msg 2 10`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 7, "dup"))
	r.sched.Run()
	if len(r.toNet) != 3 {
		t.Fatalf("forwarded %d, want original + 2 copies", len(r.toNet))
	}
	for _, m := range r.toNet {
		if b, _ := m.ByteAt(1); b != 7 {
			t.Fatal("copy differs from original")
		}
	}
	if s := r.layer.SendFilter().Stats(); s.Duplicated != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestCorruptionViaSetByte(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`msg_set_byte cur_msg 1 99`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 7, ""))
	if b, _ := r.toNet[0].ByteAt(1); b != 99 {
		t.Fatalf("seq byte = %d, want corrupted 99", b)
	}
}

func TestHoldAndReleaseFIFO(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		if {[msg_type cur_msg] eq "DATA"} { xHold cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	r.send(t, demoMsg(demoDATA, 2, ""))
	r.send(t, demoMsg(demoDATA, 3, ""))
	if n := r.held(t); len(r.toNet) != 0 || n != "3" {
		t.Fatalf("held %s, want 3", n)
	}
	// An ACK triggers release of two held messages.
	if err := r.layer.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK"} { xRelease 2 }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoACK, 0, ""))
	if len(r.toNet) != 3 { // 2 released + the ACK itself
		t.Fatalf("forwarded %d, want 3", len(r.toNet))
	}
	a, _ := r.toNet[0].ByteAt(1)
	b, _ := r.toNet[1].ByteAt(1)
	if a != 1 || b != 2 {
		t.Fatalf("release order %d,%d; want FIFO 1,2", a, b)
	}
	if n := r.held(t); n != "1" {
		t.Fatalf("still held %s, want 1", n)
	}
}

func TestReleaseLIFOReorders(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		if {[msg_type cur_msg] eq "DATA"} { xHold cur_msg }
		if {[msg_type cur_msg] eq "NACK"} { xReleaseLIFO; xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	r.send(t, demoMsg(demoDATA, 2, ""))
	r.send(t, demoMsg(demoNACK, 0, ""))
	if len(r.toNet) != 2 {
		t.Fatalf("forwarded %d, want 2", len(r.toNet))
	}
	a, _ := r.toNet[0].ByteAt(1)
	b, _ := r.toNet[1].ByteAt(1)
	if a != 2 || b != 1 {
		t.Fatalf("LIFO release order %d,%d; want 2,1", a, b)
	}
}

func TestInjectProbe(t *testing.T) {
	// Spontaneous message generation: inject a NACK downward whenever a
	// DATA passes, probing the sender.
	r := newRig(t)
	if err := r.layer.SetReceiveScript(`
		if {[msg_type cur_msg] eq "DATA"} {
			xInject NACK {seq 9} down
		}
	`); err != nil {
		t.Fatal(err)
	}
	r.deliver(t, demoMsg(demoDATA, 5, "probe-me"))
	if len(r.toApp) != 1 {
		t.Fatal("original DATA not delivered")
	}
	if len(r.toNet) != 1 {
		t.Fatalf("injected %d to net, want 1", len(r.toNet))
	}
	typ, _ := r.toNet[0].ByteAt(0)
	seq, _ := r.toNet[0].ByteAt(1)
	if typ != demoNACK || seq != 9 {
		t.Fatalf("injected packet type=%d seq=%d", typ, seq)
	}
}

// An xInject without a direction goes the filter's own way: from the
// receive filter, up to the app alongside the message that triggered it.
func TestInjectDefaultsToFilterDirection(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetReceiveScript(`
		if {[msg_type cur_msg] eq "DATA"} { xInject ACK [list seq [msg_field cur_msg seq]] }
	`); err != nil {
		t.Fatal(err)
	}
	r.deliver(t, demoMsg(demoDATA, 8, ""))
	if len(r.toApp) != 2 || len(r.toNet) != 0 {
		t.Fatalf("toApp=%d toNet=%d, want DATA + injected ACK up", len(r.toApp), len(r.toNet))
	}
	// The ACK leaves during the script run, before the DATA's verdict.
	if typ, _ := r.toApp[0].ByteAt(0); typ != demoACK {
		t.Fatalf("first delivery has type %d, want the injected ACK", typ)
	}
}

func TestInjectUpDeceivesTarget(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		xInject ACK {seq 3} up
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 3, ""))
	if len(r.toApp) != 1 {
		t.Fatalf("fake ACK not delivered up, toApp=%d", len(r.toApp))
	}
	if len(r.toNet) != 1 {
		t.Fatal("original DATA lost")
	}
}

func TestScriptStatePersistsAndCounts(t *testing.T) {
	// "after allowing thirty packets through ... all incoming packets were
	// dropped" — the Experiment 1 receive filter, verbatim in spirit.
	r := newRig(t)
	if err := r.layer.SetReceiveScript(`
		if {![info exists count]} { set count 0 }
		incr count
		if {$count > 30} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r.deliver(t, demoMsg(demoDATA, byte(i), ""))
	}
	if len(r.toApp) != 30 {
		t.Fatalf("app received %d, want exactly 30", len(r.toApp))
	}
}

func TestCrossInterpreterState(t *testing.T) {
	// The send filter flips a variable in the receive interpreter — the
	// paper's cross-interpreter communication example.
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		if {[msg_type cur_msg] eq "NACK"} { peer_set dropping 1 }
	`); err != nil {
		t.Fatal(err)
	}
	if err := r.layer.SetReceiveScript(`
		if {[info exists dropping] && $dropping} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	r.deliver(t, demoMsg(demoDATA, 1, ""))
	if len(r.toApp) != 1 {
		t.Fatal("receive filter dropped before signal")
	}
	r.send(t, demoMsg(demoNACK, 0, "")) // flips the switch
	r.deliver(t, demoMsg(demoDATA, 2, ""))
	if len(r.toApp) != 1 {
		t.Fatal("receive filter did not drop after peer_set")
	}
}

func TestPeerGetDefault(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		set v [peer_get phantom 7]
		if {$v != 7} { error "default not honored" }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
}

func TestSyncBusAcrossLayers(t *testing.T) {
	// Two PFI layers on different nodes share a bus: node A's filter
	// signals, node B's filter starts dropping.
	bus := NewSyncBus()
	ra := newRig(t, WithSyncBus(bus))
	rb := newRig(t, WithSyncBus(bus))
	if err := ra.layer.SetSendScript(`sync_signal partition`); err != nil {
		t.Fatal(err)
	}
	if err := rb.layer.SetReceiveScript(`
		if {[sync_test partition]} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	rb.deliver(t, demoMsg(demoDATA, 1, ""))
	if len(rb.toApp) != 1 {
		t.Fatal("B dropped before signal")
	}
	ra.send(t, demoMsg(demoDATA, 1, "")) // raises the flag
	rb.deliver(t, demoMsg(demoDATA, 2, ""))
	if len(rb.toApp) != 1 {
		t.Fatal("B did not drop after cross-node signal")
	}
}

func TestSyncWaitRunsScript(t *testing.T) {
	bus := NewSyncBus()
	r := newRig(t, WithSyncBus(bus))
	if err := r.layer.SetSendScript(`
		if {![info exists armed]} {
			set armed 1
			sync_wait go { set unleashed 1 }
		}
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	if _, ok := r.layer.SendFilter().Interp().Global("unleashed"); ok {
		t.Fatal("sync_wait fired before signal")
	}
	bus.Signal("go")
	if v, _ := r.layer.SendFilter().Interp().Global("unleashed"); v != "1" {
		t.Fatal("sync_wait script did not run on signal")
	}
}

func TestAfterTimer(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		if {![info exists armed]} {
			set armed 1
			after 5000 { set fired 1 }
		}
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	r.sched.RunFor(4 * time.Second)
	if _, ok := r.layer.SendFilter().Interp().Global("fired"); ok {
		t.Fatal("after fired early")
	}
	r.sched.RunFor(2 * time.Second)
	if v, _ := r.layer.SendFilter().Interp().Global("fired"); v != "1" {
		t.Fatal("after never fired")
	}
}

func TestMsgLogWritesTrace(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetReceiveScript(`
		msg_log cur_msg "before drop"
		xDrop cur_msg
	`); err != nil {
		t.Fatal(err)
	}
	r.deliver(t, demoMsg(demoDATA, 9, "")) // seq 9
	entries := r.log.Filter("testnode", "receive-filter", "DATA")
	if len(entries) != 1 {
		t.Fatalf("trace entries %d, want 1", len(entries))
	}
	e := entries[0]
	if e.Seq != 9 || e.Note != "before drop" {
		t.Fatalf("entry %+v", e)
	}
}

func TestProbabilisticDropIsSeeded(t *testing.T) {
	run := func() int {
		r := newRig(t)
		if err := r.layer.SetSendScript(`
			if {[coin 0.5]} { xDrop cur_msg }
		`); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			r.send(t, demoMsg(demoDATA, byte(i), ""))
		}
		return len(r.toNet)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed forwarded %d vs %d", a, b)
	}
	if a < 60 || a > 140 {
		t.Fatalf("50%% drop forwarded %d of 200", a)
	}
}

func TestDistributionCommands(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		set n [dst_normal 100 0]
		if {$n != 100} { error "normal with zero variance != mean: $n" }
		set u [dst_uniform 5 6]
		if {$u < 5 || $u >= 6} { error "uniform out of range: $u" }
		set e [dst_exponential 3]
		if {$e < 0} { error "exponential negative" }
		set ri [rand_int 10]
		if {$ri < 0 || $ri >= 10} { error "rand_int out of range" }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
}

// TestDistributionArgsRejectNonFinite: the dst_* commands refuse NaN and
// ±Inf, and coin refuses NaN, with their "bad argument" errors and before
// the layer's source takes a step — a NaN mean is not a draw. The
// documented clamps still answer without an error.
func TestDistributionArgsRejectNonFinite(t *testing.T) {
	for _, c := range []struct{ src, err string }{
		{`dst_normal 0 NaN`, `bad arguments "0" "NaN"`},
		{`dst_normal Inf 1`, `bad arguments "Inf" "1"`},
		{`dst_normal 0 +Inf`, `bad arguments "0" "+Inf"`},
		{`dst_uniform -Inf Inf`, `bad arguments "-Inf" "Inf"`},
		{`dst_uniform 0 Inf`, `bad arguments "0" "Inf"`},
		{`dst_uniform nan 1`, `bad arguments "nan" "1"`},
		{`dst_exponential Inf`, `bad mean "Inf"`},
		{`dst_exponential -infinity`, `bad mean "-infinity"`},
		{`dst_exponential NaN`, `bad mean "NaN"`},
		{`coin NaN`, `bad probability "NaN"`},
		{`dst_normal 5 -1`, ""},    // negative variance clamps to 0
		{`dst_exponential -2`, ""}, // mean <= 0 answers 0
		{`coin 7`, ""},             // p clamps to [0,1]
		{`coin -Inf`, ""},
		{`dst_uniform 1 0.5`, ""},
	} {
		r := newRig(t)
		if err := r.layer.SetSendScript(c.src); err != nil {
			t.Fatal(err)
		}
		err := r.stk.Send(demoMsg(demoDATA, 1, ""))
		if c.err == "" {
			if err != nil {
				t.Errorf("%s: %v", c.src, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: error %v, want %s", c.src, err, c.err)
		}
		if m := r.layer.rng.Mark(); m != 0 {
			t.Errorf("%s: refused, yet the source took %d step(s)", c.src, m)
		}
	}
}

func TestScriptErrorPropagates(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`error "filter exploded"`); err != nil {
		t.Fatal(err)
	}
	if err := r.stk.Send(demoMsg(demoDATA, 1, "")); err == nil ||
		!strings.Contains(err.Error(), "filter exploded") {
		t.Fatalf("err = %v, want script error", err)
	}
}

func TestBadScriptRejectedAtSetTime(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`if {1} {`); err == nil {
		t.Fatal("unbalanced script accepted")
	}
}

func TestClearScript(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, "")) // dropped
	if err := r.layer.SetSendScript(""); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 2, ""))
	if len(r.toNet) != 1 {
		t.Fatal("cleared script still filtering")
	}
}

func TestUnrecognizedPacketStillForwarded(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK"} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, message.New([]byte{0xFF})) // too short for the demo stub
	if len(r.toNet) != 1 {
		t.Fatal("unrecognizable packet was not forwarded")
	}
}

func TestNodeAndDirCommands(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`
		if {[node] ne "testnode"} { error "node: [node]" }
		if {[dir] ne "send"} { error "dir: [dir]" }
	`); err != nil {
		t.Fatal(err)
	}
	if err := r.layer.SetReceiveScript(`
		if {[dir] ne "receive"} { error "dir: [dir]" }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
	r.deliver(t, demoMsg(demoDATA, 1, ""))
}

func TestNowCommand(t *testing.T) {
	r := newRig(t)
	r.sched.RunFor(1500 * time.Millisecond)
	if err := r.layer.SetSendScript(`
		if {[now] != 1500} { error "now: [now]" }
		if {[now_s] != 1.5} { error "now_s: [now_s]" }
	`); err != nil {
		t.Fatal(err)
	}
	r.send(t, demoMsg(demoDATA, 1, ""))
}

func TestGenerateUnknownTypeFails(t *testing.T) {
	r := newRig(t)
	if err := r.layer.SetSendScript(`xInject BOGUS`); err != nil {
		t.Fatal(err)
	}
	if err := r.stk.Send(demoMsg(demoDATA, 1, "")); err == nil {
		t.Fatal("injection of unknown type succeeded")
	}
}

func TestCommandArgValidation(t *testing.T) {
	bad := []string{
		`xDrop`,
		`xDrop other_msg`,
		`xDelay cur_msg`,
		`xDelay cur_msg -5`,
		`xDelay cur_msg banana`,
		`xDuplicate cur_msg 0`,
		`xDuplicate cur_msg 1 -1`,
		`msg_set_byte cur_msg 0`,
		`msg_set_byte cur_msg zero 1`,
		`msg_set_byte cur_msg 0 999`,
		`msg_field cur_msg`,
		`xInject`,
		`xInject ACK {odd list here}`,
		`xInject ACK {} sideways`,
		`coin banana`,
		`rand_int 0`,
		`dst_normal 1`,
		`peer_get`,
		`after x {}`,
	}
	for _, src := range bad {
		t.Run(src, func(t *testing.T) {
			r := newRig(t)
			if err := r.layer.SetSendScript(src); err != nil {
				return // parse-time rejection is fine too
			}
			if err := r.stk.Send(demoMsg(demoDATA, 1, "")); err == nil {
				t.Fatalf("script %q ran without error", src)
			}
		})
	}
}

// TestMillisecondArgsRejectUnholdable: every command that takes a
// millisecond count refuses one no time.Duration holds, with its own error,
// instead of wrapping it to a negative duration the scheduler runs at once —
// `xDelay $m [dst_exponential 1e308]` must not mean "no delay". The largest
// count that fits is still accepted.
func TestMillisecondArgsRejectUnholdable(t *testing.T) {
	for _, cmd := range []struct{ format, err string }{
		{`xDelay cur_msg %s`, "bad delay"},
		{`xDuplicate cur_msg 1 %s`, "bad gap"},
		{`after %s {}`, "bad delay"},
	} {
		for _, ms := range []string{"NaN", "nan", "Inf", "+Inf", "-Inf", "infinity", "1e13", "9.3e12", "1e300", "-1"} {
			src := fmt.Sprintf(cmd.format, ms)
			r := newRig(t)
			if err := r.layer.SetSendScript(src); err != nil {
				t.Fatal(err)
			}
			err := r.stk.Send(demoMsg(demoDATA, 1, ""))
			if want := fmt.Sprintf("%s %q", cmd.err, ms); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %v, want %s", src, err, want)
			}
		}
		src := fmt.Sprintf(cmd.format, "9.2e12")
		r := newRig(t)
		if err := r.layer.SetSendScript(src); err != nil {
			t.Fatal(err)
		}
		if err := r.stk.Send(demoMsg(demoDATA, 1, "")); err != nil {
			t.Errorf("%s: %v", src, err)
		}
	}
}

func TestSyncBusUnit(t *testing.T) {
	b := NewSyncBus()
	if b.IsSet("x") {
		t.Fatal("fresh flag set")
	}
	fired := 0
	b.OnSignal("x", func() { fired++ })
	b.Signal("x")
	if fired != 1 || !b.IsSet("x") {
		t.Fatalf("fired=%d set=%v", fired, b.IsSet("x"))
	}
	b.Signal("x") // idempotent
	if fired != 1 {
		t.Fatal("duplicate signal re-fired waiters")
	}
	b.OnSignal("x", func() { fired++ }) // already set: fires immediately
	if fired != 2 {
		t.Fatal("OnSignal on a set flag did not fire")
	}
	b.Clear("x")
	if b.IsSet("x") {
		t.Fatal("Clear did not lower flag")
	}
}

func BenchmarkFilterPassThrough(b *testing.B) {
	sched := simtime.NewScheduler()
	env := &stack.Env{Sched: sched, Node: "bench"}
	l := NewLayer(env, WithStub(demoStub{}))
	stk := stack.New(env, l)
	stk.OnTransmit(func(m *message.Message) error { return nil })
	m := demoMsg(demoDATA, 1, "payload")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := stk.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilterScripted(b *testing.B) {
	sched := simtime.NewScheduler()
	env := &stack.Env{Sched: sched, Node: "bench"}
	l := NewLayer(env, WithStub(demoStub{}))
	if err := l.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK"} { xDrop cur_msg }
	`); err != nil {
		b.Fatal(err)
	}
	stk := stack.New(env, l)
	stk.OnTransmit(func(m *message.Message) error { return nil })
	m := demoMsg(demoDATA, 1, "payload")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := stk.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}
