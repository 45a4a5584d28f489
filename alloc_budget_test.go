package pfi

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/conformance"
	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/fault"
	"pfi/internal/gmp"
	"pfi/internal/harden"
	"pfi/internal/interpose"
	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/raft"
	"pfi/internal/rudp"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/tcp"
)

// benchStub is a minimal recognition stub for the filter-path budget: it
// types every packet without decoding header fields.
type benchStub struct{}

func (benchStub) Protocol() string { return "bench" }
func (benchStub) Recognize(m *message.Message) (core.Info, error) {
	return core.Info{Type: "DATA"}, nil
}
func (benchStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return message.New([]byte(typ)), nil
}

// TestFilterProcessAllocBudget pins the steady-state allocation count of
// the per-message filter path so regressions fail `make check` instead of
// silently eroding campaign throughput. The budget is the compiled VM's
// steady state (the ledger times the same path as script.filter_ns_per_msg);
// raise it only with a ledger entry explaining why.
//
// The race detector instruments allocations, so the budget is only
// meaningful (and only enforced) in normal builds.
func TestFilterProcessAllocBudget(t *testing.T) {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "alloc"}
	l := core.NewLayer(env, core.WithStub(benchStub{}))
	stk := stack.New(env, l)
	stk.OnTransmit(func(m *message.Message) error { return nil })
	if err := l.SetSendScript(`if {[msg_type cur_msg] eq "DATA"} {
	if {![info exists dropped]} { set dropped 0 }
	if {$dropped < 3} {
		incr dropped
		xDrop cur_msg
	}
}
`); err != nil {
		t.Fatal(err)
	}
	m := message.New([]byte("payload-0123456789"))
	// The per-message filter path must stay allocation-free.
	allocBudget(t, "FilterProcess", 0, 200, func() {
		if err := stk.Send(m); err != nil {
			t.Fatal(err)
		}
	})
}

// forkPrefix is a deliberately expensive shared prefix: a lossy first
// minute forces the vendor stack through its full retransmission machinery
// before the world settles. Fuzzing candidates that mutate only the tail
// share all of this work.
const forkPrefix = `world tcp
faultload vendor send {
if {[msg_type cur_msg] eq "DATA" && [now] < 60000} { xDrop cur_msg }
}
tcp_dial
tcp_stream 32 250
run 240000
`

// forkSuffix is the cheap mutated tail a candidate actually varies.
const forkSuffix = "run 5000\nsent_len\n"

// TestWorldForkAllocBudget pins the allocation count of one snapshot-forked
// fuzzing iteration (restore the captured world, run the mutated suffix,
// package the Result). The point of the fork path is that its cost scales
// with the suffix, not the prefix — a ballooning per-fork allocation count
// would quietly hand the prefix work back. The budget is the measured count
// with headroom for runtime variance (the ledger times the same path as
// snapshot.fork_us); raise it only with a ledger entry explaining why.
func TestWorldForkAllocBudget(t *testing.T) {
	sess, err := conformance.NewSession(forkPrefix, conformance.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// ISSUE: fork+suffix must stay O(suffix), not O(prefix).
	allocBudget(t, "WorldFork", 256, 50, func() {
		if r, ok := sess.Run("alloc-fork", forkSuffix); !ok || r.Outcome != harden.Pass {
			t.Fatalf("fork not clean: ok=%v", ok)
		}
	})
}

// allocBudget fails the test when fn's steady-state allocation count per
// call exceeds budget, so a change that re-introduces a per-hop map,
// closure, label string or second copy shows up as a count, not as a noisy
// timing. Raise a budget only with a bench entry explaining why.
//
// The race detector instruments allocations, so budgets are only
// meaningful (and only enforced) in normal builds.
func allocBudget(t *testing.T, what string, budget float64, runs int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	for i := 0; i < 16; i++ {
		fn() // warm up: grow slices, trace blocks and interpreter stacks
	}
	if avg := testing.AllocsPerRun(runs, fn); avg > budget {
		t.Fatalf("%s allocates %.1f/op, budget is %.1f", what, avg, budget)
	}
}

// TestSchedulerEventAllocBudget: scheduling and running one event costs the
// Event and nothing else — no boxing through a heap interface, no label.
func TestSchedulerEventAllocBudget(t *testing.T) {
	s := simtime.NewScheduler()
	ran := 0
	tick := func() { ran++ }
	allocBudget(t, "Scheduler.After+Step", 1, 1000, func() {
		s.After(time.Millisecond, "tick", tick)
		s.Step()
	})
	var tm simtime.Timer
	tm.Init(s, tick)
	allocBudget(t, "Timer.Arm+Step", 0, 1000, func() {
		tm.Arm(time.Millisecond, "tick")
		s.Step()
	})
	l := s.Lane(time.Millisecond)
	allocBudget(t, "Lane.Arm+Step", 0, 1000, func() {
		l.Arm(&tm.Event, "tick", &tm)
		s.Step()
	})
}

// TestInterpNewEvalAllocBudget: a fresh interpreter that evaluates one
// short script — what every world's scenario and filter interpreters cost
// before their first message — pays for its parse, its one program and
// its globals, and for one table of compiled bodies made on first use.
func TestInterpNewEvalAllocBudget(t *testing.T) {
	allocBudget(t, "script.New+Eval", 80, 200, func() {
		if _, err := script.New().Eval(`set n 0; if {$n < 3} { incr n }; set n`); err != nil {
			t.Fatal(err)
		}
	})
}

// TestMessageBuildAllocBudget: a frame an encoder builds is one object
// while it fits the message's inline array and two — the message and one
// exactly-sized buffer — when it spills; the Writer itself is a value and
// never reaches the heap. Every per-hop budget below counts on this.
func TestMessageBuildAllocBudget(t *testing.T) {
	payload := make([]byte, 4*message.InlineCap)
	var sink *message.Message
	allocBudget(t, "inline frame", 1, 1000, func() {
		sink = message.Build(message.InlineCap).U8(3).U32(7).Str8("r12").Bytes(payload[:16]).Message()
	})
	allocBudget(t, "spilled frame", 2, 1000, func() {
		sink = message.Build(5 + len(payload)).U8(3).U32(7).Bytes(payload).Message()
	})
	allocBudget(t, "bare ACK segment", 1, 1000, func() {
		sink = (&tcp.Segment{SrcPort: 9, DstPort: 80, Seq: 1, Ack: 2, Flags: tcp.FlagACK, Window: 4096}).Encode()
	})
	_ = sink
}

// TestNetsimHopAllocBudget: one driver-to-driver hop through a two-node
// world measures the wire alone, and it costs nothing. The delivery comes
// off the world's free list and goes back when it has fired; the message,
// its 16 bytes inline, is one the wire released after an earlier hop, and
// the receiving driver keeps nothing, so it is released again. (The ledger
// times this path as netsim.hop_ns, with a 64-byte payload that is inline
// too.)
func TestNetsimHopAllocBudget(t *testing.T) {
	w := netsim.NewWorld(1)
	var from *core.Driver
	for _, name := range []string{"a", "b"} {
		n := w.MustAddNode(name)
		d := core.NewDriver(n.Env())
		n.SetStack(stack.New(n.Env(), d))
		if from == nil {
			from = d
		}
	}
	if err := w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789abcdef")
	allocBudget(t, "netsim hop", 0, 2000, func() {
		if err := from.Send(payload, "b"); err != nil {
			t.Fatal(err)
		}
		w.Run()
	})
}

// TestStreamSegmentAllocBudget: a steady 512-byte segment through a
// two-node TCP world, and the ACK that answers it, allocate nothing. Each
// is a message built from the world's free list — the segment's a spilled
// one that comes back with its buffer — and a delivery off the world's
// list; the receiving TCP decodes the segment in place and lends its payload
// to OnData without keeping the message, and the sender's retransmission
// queue holds the segment by value in storage it reuses. (The ledger counts
// this path in conformance.allocs_per_segment.)
func TestStreamSegmentAllocBudget(t *testing.T) {
	w := netsim.NewWorld(1)
	var layers []*tcp.Layer
	for _, name := range []string{"a", "b"} {
		n := w.MustAddNode(name)
		l := tcp.NewLayer(n.Env(), tcp.SunOS413())
		n.SetStack(stack.New(n.Env(), l))
		layers = append(layers, l)
	}
	if err := w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	received := 0
	if err := layers[1].Listen(80, func(c *tcp.Conn) {
		c.OnData(func(d []byte) { received += len(d) })
	}); err != nil {
		t.Fatal(err)
	}
	conn, err := layers[0].Connect("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	if conn.State() != tcp.StateEstablished {
		t.Fatalf("connection is %v", conn.State())
	}
	payload := make([]byte, 512)
	segments := 0
	allocBudget(t, "stream segment and its ACK", 0, 1000, func() {
		if err := conn.Send(payload); err != nil {
			t.Fatal(err)
		}
		w.Run()
		segments++
	})
	if received != segments*len(payload) || conn.UnackedSegments() != 0 {
		t.Fatalf("%d bytes of %d segments received, %d unacked", received, segments, conn.UnackedSegments())
	}
}

// TestRUDPReliableRoundAllocBudget: a round of reliable sends between two
// rudp layers in a two-node world — one send acked at once, and one sent
// while the receiver is unplugged, so that it is retransmitted and then
// acked — allocates nothing once warm. Each send takes its pending record,
// and the copy of its payload, from the records earlier acks gave back; the
// per-peer window is a slice in sequence order that an ack shrinks in place;
// the frames and the acks are messages from the world's free list, the one
// lost in the unplugged world included, and the retransmission timer rides
// DefaultRTO's lane.
func TestRUDPReliableRoundAllocBudget(t *testing.T) {
	w := netsim.NewWorld(1)
	var layers []*rudp.Layer
	var receiver *netsim.Node
	for _, name := range []string{"a", "b"} {
		n := w.MustAddNode(name)
		l := rudp.NewLayer(n.Env())
		n.SetStack(stack.New(n.Env(), l))
		layers = append(layers, l)
		receiver = n
	}
	if err := w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	layers[1].OnDeliver(func(string, []byte) { delivered++ })
	payload := []byte("membership change")
	rounds := 0
	allocBudget(t, "reliable rudp round", 0, 500, func() {
		if err := layers[0].Send("b", payload); err != nil {
			t.Fatal(err)
		}
		w.RunFor(10 * time.Millisecond)
		receiver.Unplug()
		if err := layers[0].Send("b", payload); err != nil {
			t.Fatal(err)
		}
		w.RunFor(10 * time.Millisecond)
		receiver.Replug()
		w.RunFor(rudp.DefaultRTO) // the retransmission, and its ack
		rounds++
	})
	if delivered != 2*rounds || w.Sched.Len() != 0 {
		t.Fatalf("%d of %d sends delivered, %d events pending", delivered, 2*rounds, w.Sched.Len())
	}
	if st := w.Stats(); st.LostDown != rounds {
		t.Fatalf("%d frames lost to the unplugged cable in %d rounds, want one a round", st.LostDown, rounds)
	}
}

// TestRecognizeAllocBudget measures recognition on both of its paths. A bare
// stub.Recognize through the core.Stub interface — what the ledger's
// core.recognize_ns_tcp probe calls — costs the decoded header it hands back
// (boxed once into core.Info.Fields) plus the strings the header itself
// carries: no field map, no rendered numbers. The filter path — what a PFI
// layer runs per message — decodes into a core.Header the filter owns, so
// the box goes and a TCP DATA segment costs nothing. A GMP message's header
// builds its strings only when a script reads a field, so recognizing one
// costs the box alone.
func TestRecognizeAllocBudget(t *testing.T) {
	data := (&tcp.Segment{SrcPort: 9, DstPort: 80, Seq: 70000, Ack: 1, Flags: tcp.FlagACK | tcp.FlagPSH,
		Window: 4096, Payload: make([]byte, 512)}).Encode()
	appendMsg := (&raft.Msg{Type: raft.TypeAppend, Term: 3, From: "r1", PrevIndex: 5, PrevTerm: 3, Commit: 5,
		Entries: []raft.LogEntry{{Term: 3, Data: "w1"}}}).Encode()
	hb := rudp.Frame{Kind: rudp.KindRaw,
		Payload: gmp.Msg{Type: gmp.TypeHeartbeat, Gen: 4, Origin: "n1", Sender: "n1"}.Encode()}.Encode()
	for _, tc := range []struct {
		name   string
		stub   core.HeaderStub
		m      *message.Message
		typ    string
		budget float64 // bare Recognize; the filter path is one less
	}{
		{"tcp DATA", tcp.PFIStub{}, data, "DATA", 1},
		{"raft APPEND_ENTRIES", raft.PFIStub{}, appendMsg, "APPEND_ENTRIES", 4}, // header, From, entry slice, entry data
		{"gmp HEARTBEAT", gmp.PFIStub{}, hb, "HEARTBEAT", 1},                    // header: fields wait for a read
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Run("bare stub", func(t *testing.T) {
				allocBudget(t, "Recognize", tc.budget, 1000, func() {
					if info, err := tc.stub.Recognize(tc.m); err != nil || info.Type != tc.typ {
						t.Fatalf("recognized %q, %v", info.Type, err)
					}
				})
			})
			t.Run("filter path", func(t *testing.T) {
				h := tc.stub.NewHeader()
				allocBudget(t, "Header.Recognize", tc.budget-1, 1000, func() {
					if typ, err := h.Recognize(tc.m); err != nil || typ != tc.typ {
						t.Fatalf("recognized %q, %v", typ, err)
					}
				})
			})
		})
	}
}

// TestMsgFieldAllocBudget: a filter activation that reads one field of a
// DATA segment allocates nothing: the header is decoded into storage the
// filter owns, and the field reaches the variable as the integer it is —
// the digits are rendered when something (here, the test) reads them.
func TestMsgFieldAllocBudget(t *testing.T) {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "alloc"}
	l := core.NewLayer(env, core.WithStub(tcp.PFIStub{}))
	stk := stack.New(env, l)
	stk.OnTransmit(func(m *message.Message) error { return nil })
	if err := l.SetSendScript(`set seq [msg_field cur_msg seq]`); err != nil {
		t.Fatal(err)
	}
	data := (&tcp.Segment{SrcPort: 9, DstPort: 80, Seq: 70000, Flags: tcp.FlagACK | tcp.FlagPSH,
		Payload: make([]byte, 512)}).Encode()
	allocBudget(t, "msg_field on a DATA segment", 0, 1000, func() {
		if err := stk.Send(data); err != nil {
			t.Fatal(err)
		}
	})
	if got, _ := l.SendFilter().Interp().Global("seq"); got != "70000" {
		t.Fatalf("script read seq %q", got)
	}
}

// denseFaultload is the vendor send faultload bench/ledger generates for
// conformance-dense (ledger.DenseSendFilter), shape by shape.
var denseFaultload = []struct{ name, script string }{
	{"counter past 512", `incr n`},
	{"sum of a field", `set len [msg_field cur_msg len]; set bytes [expr {$bytes + $len}]`},
	{"foreach over a literal list", `set seq [msg_field cur_msg seq]
		foreach k {5 7 8} { set w [expr {($seq / 512 + $k) % 11}] }`},
	{"modulo ladder", `if {$n % 109 == 0} {
			incr dropped
		} elseif {$n % 41 == 0} {
			incr late
		} elseif {$n % 55 == 0} {
			incr dup
		}`},
}

// TestDenseFaultloadAllocBudget: the four shapes of the dense faultload —
// a counter past the range whose digits are cached, a running sum of a
// header field, a foreach over a literal list with arithmetic on a field,
// and the modulo if/elseif ladder — run over a 512-byte DATA segment
// without allocating, one by one and together. Numbers stay numbers from
// the decoded header to the slots: nothing is rendered, nothing re-parsed,
// no header boxed. (The fault verbs the ladder picks in the real faultload —
// xDrop with a msg_log line, xDelay, xDuplicate — allocate what they must:
// a trace entry, an event, a copy.)
func TestDenseFaultloadAllocBudget(t *testing.T) {
	data := (&tcp.Segment{SrcPort: 32769, DstPort: 80, Seq: 65513, Ack: 65001, Flags: tcp.FlagACK | tcp.FlagPSH,
		Window: 4096, Payload: make([]byte, 512)}).Encode()
	const prologue = `if {![info exists n]} { set n 600; set dropped 0; set late 0; set dup 0; set bytes 0 }
		if {[msg_type cur_msg] ne "DATA"} { error "not DATA" }
	`
	all := prologue
	shapes := denseFaultload
	for _, sh := range denseFaultload {
		all += sh.script + "\n"
	}
	shapes = append(shapes[:len(shapes):len(shapes)], struct{ name, script string }{"whole faultload", all})
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			env := &stack.Env{Sched: simtime.NewScheduler(), Node: "alloc"}
			l := core.NewLayer(env, core.WithStub(tcp.PFIStub{}))
			stk := stack.New(env, l)
			stk.OnTransmit(func(m *message.Message) error { return nil })
			if err := l.SetSendScript(prologue + sh.script); err != nil {
				t.Fatal(err)
			}
			allocBudget(t, sh.name, 0, 2000, func() {
				if err := stk.Send(data); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}

// TestGMPHeartbeatRoundAllocBudget: one heartbeat interval of a settled
// three-daemon group — nine heartbeats sent, delivered, decoded, and nine
// expectation timers re-armed in place. Unscripted, a heartbeat allocates
// nothing: the message — RUDP header and GMP payload encoded once, inside
// it — and its delivery are ones the wire got back from an earlier hop, and
// the daemon's decode finds Origin and Sender in the datagram's source. With
// a script that reads a field on both sides of every node, each filter
// decodes into the header it owns (TestRecognizeAllocBudget), so recognition
// adds only what the send side, which runs before the network has stamped a
// source, allocates for Origin and Sender: two. A script that asks only
// for the type — what the fuzzer's fault genes run — decodes no field and
// allocates nothing. The timers, the scheduler and the scripts add none.
// This is the hop fuzz-mixed spends most of its time in; the ledger counts
// it in explore.allocs_per_candidate.
func TestGMPHeartbeatRoundAllocBudget(t *testing.T) {
	const script = `if {[msg_type cur_msg] eq "HEARTBEAT"} { set from [msg_field cur_msg origin] }`
	const typeOnly = `if {[msg_type cur_msg] eq "PROCLAIM"} { incr proclaims }`
	for _, tc := range []struct {
		name, script string
		perHeartbeat float64
	}{
		{"scripted", script, 2},
		{"type only", typeOnly, 0},
		{"unscripted", "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rig, err := exp.NewGMPRig([]string{"n1", "n2", "n3"})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range rig.Ms {
				if tc.script == "" {
					continue
				}
				if err := m.PFI.SetSendScript(tc.script); err != nil {
					t.Fatal(err)
				}
				if err := m.PFI.SetReceiveScript(tc.script); err != nil {
					t.Fatal(err)
				}
			}
			rig.StartAll()
			rig.W.RunFor(30 * time.Second)
			for name, m := range rig.Ms {
				if got := len(m.Gmd.Group().Members); got != 3 {
					t.Fatalf("%s sees %d members", name, got)
				}
			}
			allocBudget(t, "GMP heartbeat round (3 daemons, "+tc.name+")", 9*tc.perHeartbeat, 100, func() {
				rig.W.RunFor(time.Second)
			})
		})
	}
}

// TestProxyRoundTripAllocBudget: one round trip through a live proxy with a
// counting script in both directions is two filter-and-forward steps, and
// each allocates the message — the one copy out of the reader's scratch
// buffer, inline for a 64-byte datagram — and nothing else: no address per
// read, no hand-off record, no timer. The client and the echo upstream
// below allocate nothing per datagram, so the count is the proxy's.
func TestProxyRoundTripAllocBudget(t *testing.T) {
	echo, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer echo.Close()
	go func() {
		buf := make([]byte, 2048)
		for {
			n, from, err := echo.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			_, _ = echo.WriteToUDPAddrPort(buf[:n], from)
		}
	}()
	p, err := interpose.New(interpose.Config{Listen: "127.0.0.1:0", Upstream: echo.LocalAddr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	const counting = `if {![info exists n]} { set n 0 }; incr n`
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetSendScript(counting); err != nil {
			t.Error(err)
		}
		if err := l.SetReceiveScript(counting); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	send, recv := make([]byte, 64), make([]byte, 128)
	allocBudget(t, "proxy round trip (2 datagrams)", 2, 500, func() {
		if _, err := c.Write(send); err != nil {
			t.Fatal(err)
		}
		if n, err := c.Read(recv); err != nil || n != len(send) {
			t.Fatalf("echo: %d bytes, %v", n, err)
		}
	})
}

// TestRaftRigBuildAllocBudget: a raft world pays up front for nothing a
// node may never use. Filter engines are built on first use, and a random
// source seeds its 4.9 KB generator on its first draw, so building a
// 25-node rig seeds none — neither a node's election jitter, which first
// draws when StartAll arms the election timers, nor a PFI layer's dst_*
// source, which an unscripted node never draws from. The budgets are in
// objects and in bytes because one seeded generator is a single object but
// more bytes than the rest of its node. (raft.world_build_ms_250 in the
// ledger.)
func TestRaftRigBuildAllocBudget(t *testing.T) {
	build := func() {
		if _, err := exp.NewRaftRig(25); err != nil {
			t.Fatal(err)
		}
	}
	allocBudget(t, "NewRaftRig(25)", 900, 10, build)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	build()
	runtime.ReadMemStats(&after)
	const budget = 80 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("NewRaftRig(25) allocates %d bytes, budget is %d", got, budget)
	}
}

// TestRaftHeartbeatRoundAllocBudget: one simulated second of a settled
// 25-node cluster is a heartbeat to every follower and its acknowledgement,
// and allocates nothing. Each datagram is a message, encoded inside it, and
// a delivery, both handed back by the wire when an earlier hop ended (raft
// decodes and lets go, so nothing is kept); the node fills its one outgoing
// Msg and lends it to the encoder, each frame is decoded into its layer's
// own Msg, the decoder finds From in the datagram's source, the leader's
// per-peer progress is a slice, and the election timer every heartbeat
// resets is re-keyed where it sits. This is the step the ledger times as
// raft.step_ns_25.
func TestRaftHeartbeatRoundAllocBudget(t *testing.T) {
	rig, err := exp.NewRaftRig(25)
	if err != nil {
		t.Fatal(err)
	}
	rig.StartAll()
	rig.W.RunFor(20 * time.Second)
	if ls := rig.Leaders(); len(ls) != 1 {
		t.Fatalf("leaders after 20 s: %v", ls)
	}
	sent := rig.W.Stats().Sent
	rig.W.RunFor(time.Second)
	if perRound := rig.W.Stats().Sent - sent; perRound < 2*24 {
		t.Fatalf("a heartbeat round sent %d datagrams, want at least %d", perRound, 2*24)
	}
	allocBudget(t, "raft heartbeat round (25 nodes)", 0, 50, func() {
		rig.W.RunFor(time.Second)
	})
}

// TestRaftReplicationAllocBudget: a 25-node leader streams a 64-entry
// backlog to its 24 followers, one AppendEntries each, and allocates no more
// than the followers' logs growing. The leader lends the tail of its log to
// the encoder instead of copying it, and each follower's layer decodes the
// entries into the storage its earlier frames left: without either, every
// follower costs every round one slice more. Every follower's log grows
// alike, so their regrowths come in the same round; over the eight rounds
// measured here each log regrows at most twice, and the budget allows three
// objects per follower. The entries carry no data, so no string is decoded,
// and each window closes before the acknowledgements reach the leader, so
// nothing is committed or applied in it. Measured: 48 objects over the eight
// rounds, two regrowth rounds of 24 (432 before the change).
func TestRaftReplicationAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under -race")
	}
	rig, err := exp.NewRaftRig(25)
	if err != nil {
		t.Fatal(err)
	}
	rig.StartAll()
	rig.W.RunFor(20 * time.Second)
	ls := rig.Leaders()
	if len(ls) != 1 {
		t.Fatalf("leaders after 20 s: %v", ls)
	}
	leader := rig.Ms[ls[0]].Raft()
	var followers []*raft.Node
	for _, name := range rig.Names {
		if name != ls[0] {
			followers = append(followers, rig.Ms[name].Raft())
		}
	}
	const backlog, rounds = 64, 8
	round := func() uint64 {
		// Build the backlog where no follower takes it: the frames each
		// proposal sends reach suspended nodes, which drop them.
		for _, f := range followers {
			f.Suspend()
		}
		for i := 1; i < backlog; i++ {
			leader.Propose("")
		}
		rig.W.RunFor(10 * time.Millisecond)
		for _, f := range followers {
			f.Resume()
		}
		commit := leader.Commit()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		leader.Propose("") // the last entry, and the whole backlog to every follower
		rig.W.RunFor(2 * time.Millisecond)
		runtime.ReadMemStats(&after)
		if leader.Commit() != commit {
			t.Fatal("the window reached the acknowledgements: the leader committed in it")
		}
		for _, f := range followers {
			if f.LastIndex() != leader.LastIndex() {
				t.Fatalf("a follower holds %d entries after the stream, the leader %d", f.LastIndex(), leader.LastIndex())
			}
		}
		rig.W.RunFor(2 * time.Second) // acknowledge, commit, apply
		return after.Mallocs - before.Mallocs
	}
	for i := 0; i < 4; i++ {
		round() // warm up: decode storage, pooled frames and deliveries reach a backlog's size
	}
	var total uint64
	for i := 0; i < rounds; i++ {
		total += round()
	}
	if budget := uint64(3 * len(followers)); total > budget {
		t.Fatalf("streaming a %d-entry backlog to %d followers %d times allocates %d objects, budget is %d",
			backlog, len(followers), rounds, total, budget)
	}
}

// TestRaftCellAllocBudget: one whole campaign cell of the shape the ledger
// counts as campaign.allocs_per_cell_25 — a 25-node world built, a drop
// faultload on one node, 75 simulated seconds with three proposals, judged
// — stays under 1,550 objects and 450 KB: the world itself, the faultload,
// and the trace of what happened. Measured: 1,407 objects and 104 KB
// (1,501 objects and 100 KB while each AppendEntries copied its entries on
// the way out and the receiver decoded them into a fresh slice; 8,899
// objects before the wire reused its deliveries and messages; 1,569
// objects and 551 KB while every started node's dist.Source seeded a
// math/rand generator, 3 objects and 5,440 bytes apiece).
func TestRaftCellAllocBudget(t *testing.T) {
	cases, err := campaign.Generate(campaign.Spec{Protocol: "raft",
		Types:  []string{"REQUEST_VOTE", "VOTE_RESP", "APPEND_ENTRIES", "APPEND_RESP"},
		Faults: []fault.Kind{fault.Drop}})
	if err != nil || len(cases) == 0 {
		t.Fatalf("generated %d cases, %v", len(cases), err)
	}
	cell := func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
		rig, err := exp.NewRaftRig(25)
		if err != nil {
			return false, "", err
		}
		victim := rig.Ms[rig.Names[0]]
		m.Attach(rig.W.Sched, rig.Log, func() int {
			return victim.PFI.SendFilter().Stats().Injected + victim.PFI.ReceiveFilter().Stats().Injected
		})
		if err := c.Apply(victim.PFI); err != nil {
			return false, "", err
		}
		rig.StartAll()
		for k, d := range []time.Duration{20, 10 + 20, 10} {
			rig.W.RunFor(d * time.Second)
			if ls := rig.Leaders(); len(ls) == 1 {
				rig.Ms[ls[0]].Raft().Propose(fmt.Sprintf("w%d", k))
			}
		}
		rig.W.RunFor(15 * time.Second)
		applied := 0
		for _, name := range rig.Names {
			if rig.Ms[name].Raft().Applied() >= 1 {
				applied++
			}
		}
		return applied >= 13, fmt.Sprintf("applied=%d/25", applied), nil
	}
	run := func() {
		if v := campaign.RunCase(cases[0], cell, harden.Config{}, nil); !v.OK || v.Err != nil {
			t.Fatalf("cell failed: %s %v", v.Note, v.Err)
		}
	}
	allocBudget(t, "campaign cell (25-node raft, 75 s)", 1550, 3, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	const budget = 450 << 10
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("a 25-node campaign cell allocates %d bytes, budget is %d", got, budget)
	}
}

// denseStream is the shape of the ledger's conformance-dense scenarios (the
// paper's scripted TCP runs): a 2,000-segment stream with drop, delay and
// duplicate faultloads on both nodes, in both directions.
const denseStream = `world tcp
tcp_dial
faultload vendor send {
	if {![info exists n]} { set n 0; set dropped 0 }
	incr n
	if {[msg_type cur_msg] eq "DATA"} {
		if {$n % 97 == 0} {
			incr dropped
			msg_log cur_msg "dropped $dropped"
			xDrop cur_msg
		} elseif {$n % 41 == 0} {
			xDelay cur_msg 55
		} elseif {$n % 11 == 0} {
			xDuplicate cur_msg
		}
	}
}
faultload xkernel receive {
	if {![info exists n]} { set n 0 }
	incr n
	if {[msg_type cur_msg] eq "DATA" && $n % 89 == 0} { xDelay cur_msg 7 }
}
faultload xkernel send {
	if {![info exists n]} { set n 0 }
	incr n
	if {[msg_type cur_msg] eq "ACK" && $n % 61 == 0} { xDelay cur_msg 9 }
}
faultload vendor receive {
	if {![info exists acks]} { set acks 0 }
	if {[msg_type cur_msg] eq "ACK"} { incr acks }
}
tcp_stream 2000 5ms
run 30m
assert {[recv_matches]} "stream delivered intact"
assert {[tcp_unacked] == 0} "everything acknowledged"
`

// TestDenseStreamAllocBudget: a whole scripted TCP run — scenario parse,
// world, four filter programs, 2,000 segments, the trace — allocates a
// bounded number of bytes per byte streamed. A stream byte is copied once
// on its way (Segment.Encode, into the message a fault may mutate): Send
// queues the caller's slice, OnData lends the message's bytes, and the
// harness logs what it sent as runs of that slice. When each of those kept
// a copy of its own this read 6.1; it reads 3.4 now, plus 20 %. (The
// 10,000-segment ledger round amortizes set-up further: 5.7 → 2.7.)
func TestDenseStreamAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not stable under -race")
	}
	sc := conformance.New("dense", denseStream)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := conformance.Run(sc, conformance.Options{})
	runtime.ReadMemStats(&after)
	if !r.OK() {
		t.Fatalf("dense stream did not pass: %v %+v", r.Err, r.Failed())
	}
	streamed := 2000 * tcp.MSS
	const budget = 4.0
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(streamed); perByte > budget {
		t.Fatalf("%.2f bytes allocated per byte streamed through a dense scenario, budget is %.1f", perByte, budget)
	}
}
