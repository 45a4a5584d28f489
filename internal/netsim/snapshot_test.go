package netsim

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/gmp"
	"pfi/internal/message"
	"pfi/internal/rudp"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// TestSnapshotRestoreReplaysDeliveries proves the restore path invisible
// for everything that rides on a scheduler event or a message pointer: a
// three-daemon GMP group is snapshotted while messages are in flight, a PFI
// delayed forward is pending, a message sits on a hold queue and
// heartbeat-expect timers are armed; the world then runs, is rewound, runs
// again, is rewound, and runs a third time. Every run must deliver the same
// messages — order, instant, source, destination and bytes — and end on
// the same counters.
func TestSnapshotRestoreReplaysDeliveries(t *testing.T) {
	w := NewWorld(7)
	names := []string{"n1", "n2", "n3"}
	var delivered []string
	pfi := map[string]*core.Layer{}
	gmds := map[string]*gmp.Daemon{}
	for _, name := range names {
		node := w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		pl := core.NewLayer(node.Env(), core.WithStub(gmp.PFIStub{}))
		// tap sits on the wire side of the PFI layer: it sees exactly what
		// the network delivers, before any receive filter touches it. On n2
		// it then consumes the message the way a header-popping stack
		// would, so a rewind that did not put an in-flight or delayed
		// message's content back would deliver the wreckage next run.
		tap := stack.NewFunc("tap", nil, func(m *message.Message, next stack.Sink) error {
			delivered = append(delivered, fmt.Sprintf("%v %s: %s->%s %x",
				w.Now(), name, m.Src(), m.Dst(), m.Bytes()))
			err := next(m)
			if name == "n2" {
				_ = m.Truncate(0)
				m.SetSrc("")
			}
			return err
		})
		node.SetStack(stack.New(node.Env(), net, pl, tap))
		gmd := gmp.MustNew(node.Env(), net, names)
		w.Snapshots().Register("rudp:"+name, net)
		w.Snapshots().Register("pfi:"+name, pl)
		w.Snapshots().Register("gmd:"+name, gmd)
		pfi[name], gmds[name] = pl, gmd
	}
	if err := w.ConnectAll(LinkConfig{Latency: 5 * time.Millisecond, Jitter: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	// n1 delays every heartbeat it sends; n3 parks every third message it
	// receives and lets the backlog go two messages later.
	if err := pfi["n1"].SetSendScript(`if {[msg_type cur_msg] eq "HEARTBEAT"} { xDelay cur_msg 300 }`); err != nil {
		t.Fatal(err)
	}
	if err := pfi["n3"].SetReceiveScript(`
		incr seen
		if {$seen % 3 == 0} { xHold cur_msg } elseif {$seen % 3 == 2} { xRelease }`); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		gmds[name].Start()
	}

	// Warm up until the group has formed, then step to an instant with
	// datagrams on the wire, heartbeats parked in n1's delayed forwards
	// and a message on n3's hold queue.
	w.RunFor(20 * time.Second)
	for _, name := range names {
		if got := len(gmds[name].Group().Members); got != 3 {
			t.Fatalf("%s sees %d members after warm-up", name, got)
		}
	}
	for w.Sched.Len() > 0 {
		flights, delayed := pendingByKind(w.Sched)
		if flights > 0 && delayed > 0 && pfi["n3"].ReceiveFilter().HeldCount() > 0 {
			break
		}
		w.Sched.Step()
	}
	flights, delayed := pendingByKind(w.Sched)
	held := pfi["n3"].ReceiveFilter().HeldCount()
	armed := gmds["n2"].ArmedHBExpect()
	if flights == 0 || delayed == 0 || held == 0 || armed == 0 {
		t.Fatalf("snapshot point lacks state to rewind: %d in flight, %d delayed forwards, %d held, %d hb-expect armed",
			flights, delayed, held, armed)
	}

	snap := w.Snapshots().Capture()
	run := func() (string, Stats) {
		delivered = delivered[:0]
		w.RunFor(10 * time.Second)
		return strings.Join(delivered, "\n"), w.Stats()
	}
	first, firstStats := run()
	if n := len(delivered); n < 50 {
		t.Fatalf("only %d deliveries in the replayed window", n)
	}
	for round := 2; round <= 3; round++ {
		snap.Restore()
		if f, d := pendingByKind(w.Sched); f != flights || d != delayed ||
			pfi["n3"].ReceiveFilter().HeldCount() != held || gmds["n2"].ArmedHBExpect() != armed {
			t.Fatalf("run %d: restore left %d in flight, %d delayed, want %d, %d", round, f, d, flights, delayed)
		}
		got, gotStats := run()
		if gotStats != firstStats {
			t.Fatalf("run %d: stats %+v, first run %+v", round, gotStats, firstStats)
		}
		if got != first {
			a, b := strings.Split(first, "\n"), strings.Split(got, "\n")
			for i := range a {
				if i >= len(b) || a[i] != b[i] {
					t.Fatalf("run %d diverges at delivery %d:\n first: %s\n again: %s", round, i, a[i], append(b, "<none>")[min(i, len(b))])
				}
			}
			t.Fatalf("run %d delivered %d messages, first run %d", round, len(b), len(a))
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
