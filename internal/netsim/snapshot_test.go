package netsim

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/gmp"
	"pfi/internal/message"
	"pfi/internal/rudp"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// snapWorld is the world TestSnapshotRestoreReplaysDeliveries runs: a
// three-daemon GMP group with a tap on the wire side of every PFI layer.
type snapWorld struct {
	w         *World
	pfi       map[string]*core.Layer
	gmds      map[string]*gmp.Daemon
	delivered []string
	wire      *trace.Log // the world's wire log: every hop by its number
}

// newSnapWorld builds the group over links with the given jitter and steps
// it to an instant with datagrams on the wire, heartbeats parked in n1's
// delayed forwards, a message on n3's hold queue and heartbeat-expect timers
// armed.
func newSnapWorld(t *testing.T, jitter time.Duration) *snapWorld {
	t.Helper()
	sw := &snapWorld{w: NewWorld(7), pfi: map[string]*core.Layer{}, gmds: map[string]*gmp.Daemon{}, wire: trace.NewLog()}
	w := sw.w
	w.SetTrace(sw.wire)
	names := []string{"n1", "n2", "n3"}
	for _, name := range names {
		node := w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		pl := core.NewLayer(node.Env(), core.WithStub(gmp.PFIStub{}))
		// tap sits on the wire side of the PFI layer: it sees exactly what
		// the network delivers, before any receive filter touches it. On n2
		// it then wrecks the message's bytes and addressing, so a rewind
		// that did not put an in-flight or delayed message's content back
		// would deliver the wreckage next run.
		tap := stack.NewFunc("tap", nil, func(m *message.Message, next stack.Sink) error {
			sw.delivered = append(sw.delivered, fmt.Sprintf("%v %s: %s->%s %x",
				w.Now(), name, m.Src(), m.Dst(), m.Bytes()))
			err := next(m)
			if name == "n2" {
				clear(m.Bytes())
				m.SetSrc("")
			}
			return err
		})
		node.SetStack(stack.New(node.Env(), net, pl, tap))
		gmd, err := gmp.New(node.Env(), net, names)
		if err != nil {
			t.Fatal(err)
		}
		w.Snapshots().Register("rudp:"+name, net)
		w.Snapshots().Register("pfi:"+name, pl)
		w.Snapshots().Register("gmd:"+name, gmd)
		sw.pfi[name], sw.gmds[name] = pl, gmd
	}
	if err := w.ConnectAll(LinkConfig{Latency: 5 * time.Millisecond, Jitter: jitter}); err != nil {
		t.Fatal(err)
	}
	// n1 delays every heartbeat it sends; n3 parks every third message it
	// receives and lets the backlog go two messages later.
	if err := sw.pfi["n1"].SetSendScript(`if {[msg_type cur_msg] eq "HEARTBEAT"} { xDelay cur_msg 300 }`); err != nil {
		t.Fatal(err)
	}
	if err := sw.pfi["n3"].SetReceiveScript(`
		incr seen
		if {$seen % 3 == 0} { xHold cur_msg } elseif {$seen % 3 == 2} { xRelease }`); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		sw.gmds[name].Start()
	}
	w.RunFor(20 * time.Second)
	for _, name := range names {
		if got := len(sw.gmds[name].Group().Members); got != 3 {
			t.Fatalf("%s sees %d members after warm-up", name, got)
		}
	}
	for w.Sched.Len() > 0 {
		flights, delayed := pendingByKind(w.Sched)
		if flights > 1 && delayed > 0 && sw.held(t) != "0" {
			break
		}
		w.Sched.Step()
	}
	return sw
}

// held is n3's receive hold-queue length, as its filter's held_count
// reports it.
func (sw *snapWorld) held(t *testing.T) string {
	t.Helper()
	n, err := sw.pfi["n3"].ReceiveFilter().Interp().Eval("held_count")
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// run plays the ten seconds after the snapshot point and returns what the
// taps saw, then the wire entries of the same window, and the counters the
// world ended on.
func (sw *snapWorld) run() (string, Stats) {
	sw.delivered = sw.delivered[:0]
	start := sw.wire.Len()
	sw.w.RunFor(10 * time.Second)
	lines := slices.Clone(sw.delivered)
	for _, e := range sw.wire.Entries()[start:] {
		lines = append(lines, e.Canonical())
	}
	return strings.Join(lines, "\n"), sw.w.Stats()
}

// TestSnapshotRestoreReplaysDeliveries proves the restore path — and the
// wire's reuse of deliveries and messages underneath it — invisible for
// everything that rides on a scheduler event or a message pointer: a
// three-daemon GMP group is snapshotted while messages are in flight, a PFI
// delayed forward is pending, a message sits on a hold queue and
// heartbeat-expect timers are armed; the world then runs, is rewound, runs
// again, is rewound, and runs a third time. Each run is long enough for
// every captured delivery to fire and for the free list to go round many
// times. Every run must deliver what a second world, built the same way and
// never snapshotted (so its in-flight messages are reused, not pinned),
// delivers over the same ten seconds — order, instant, source, destination
// and bytes — log the same wire entries, hop numbers included, and end on
// the same counters.
// It runs over jittered links, where every delivery is a lone heap event,
// and over jitter-free ones, where every delivery rides the scheduler's
// lane for the link latency: there, with two in flight at the capture, one
// is chained behind the other, and each restore puts both back in the heap.
func TestSnapshotRestoreReplaysDeliveries(t *testing.T) {
	for _, jitter := range []time.Duration{2 * time.Millisecond, 0} {
		t.Run(fmt.Sprintf("jitter=%v", jitter), func(t *testing.T) { testSnapshotRestoreReplaysDeliveries(t, jitter) })
	}
}

func testSnapshotRestoreReplaysDeliveries(t *testing.T, jitter time.Duration) {
	fresh := newSnapWorld(t, jitter)
	want, wantStats := fresh.run()
	if n := len(fresh.delivered); n < 50 {
		t.Fatalf("only %d deliveries in the replayed window", n)
	}

	sw := newSnapWorld(t, jitter)
	w := sw.w
	flights, delayed := pendingByKind(w.Sched)
	held := sw.held(t)
	armed := sw.gmds["n2"].ArmedHBExpect()
	if flights < 2 || delayed == 0 || held == "0" || armed == 0 {
		t.Fatalf("snapshot point lacks state to rewind: %d in flight, %d delayed forwards, %s held, %d hb-expect armed",
			flights, delayed, held, armed)
	}
	snap := w.Snapshots().Capture()
	var captured []*delivery
	w.Sched.EachPending(func(h simtime.Handler) {
		if d, ok := h.(*delivery); ok {
			captured = append(captured, d)
		}
	})
	for round := 1; round <= 3; round++ {
		if round > 1 {
			snap.Restore()
			if f, d := pendingByKind(w.Sched); f != flights || d != delayed ||
				sw.held(t) != held || sw.gmds["n2"].ArmedHBExpect() != armed {
				t.Fatalf("run %d: restore left %d in flight, %d delayed, want %d, %d", round, f, d, flights, delayed)
			}
		}
		got, gotStats := sw.run()
		if gotStats != wantStats {
			t.Fatalf("run %d: stats %+v, never-snapshotted world %+v", round, gotStats, wantStats)
		}
		if got != want {
			a, b := strings.Split(want, "\n"), strings.Split(got, "\n")
			for i := range a {
				if i >= len(b) || a[i] != b[i] {
					t.Fatalf("run %d diverges at delivery %d:\n fresh: %s\n  this: %s", round, i, a[i], append(b, "<none>")[min(i, len(b))])
				}
			}
			t.Fatalf("run %d delivered %d messages, never-snapshotted world %d", round, len(b), len(a))
		}
		// Everything the capture saw has fired and is still the capture's:
		// none of it is on the free list, which the run's own deliveries
		// went through many times over.
		for _, d := range captured {
			if d.Pending() {
				t.Fatalf("run %d: a captured delivery is still pending", round)
			}
			for _, f := range w.free {
				if f == d {
					t.Fatalf("run %d: a captured delivery is on the free list", round)
				}
			}
		}
		if n := len(w.free); n == 0 || len(sw.delivered) < 5*n {
			t.Fatalf("run %d: %d deliveries through a free list of %d: not reused many times over", round, len(sw.delivered), n)
		}
	}
}

// pendingByKind counts the scheduler's pending network deliveries and PFI
// delayed forwards.
func pendingByKind(s *simtime.Scheduler) (flights, delayed int) {
	s.EachPending(func(h simtime.Handler) {
		if _, ok := h.(*delivery); ok {
			flights++
		} else if fmt.Sprintf("%T", h) == "*core.delayedForward" {
			delayed++
		}
	})
	return flights, delayed
}
