package gmp

import (
	"slices"
	"testing"
	"time"

	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// TestTimerTableSnapshotKeepsArmingOrder: a re-arm after a snapshot rewrites
// the entry's arming stamp in place, so the snapshot keeps each entry's
// stamp beside it. Restored, a — armed first — is again the first of its
// kind, and the buggy unset-all removes it, not b.
func TestTimerTableSnapshotKeepsArmingOrder(t *testing.T) {
	s := simtime.NewScheduler()
	tt := newTimerTable(s, true, nofire)
	for _, k := range []string{"a", "b", "c"} {
		tt.set(timerHBExpect, k, time.Second)
	}
	snap, sched := tt.snapshotState(), s.SnapshotState()
	tt.set(timerHBExpect, "a", time.Second)
	tt.unset(timerHBExpect, "") // buggy: removes b, now the oldest
	if tt.isSet(timerHBExpect, "b") || !tt.isSet(timerHBExpect, "a") {
		t.Fatal("before the restore, the first of the kind should be b")
	}
	s.RestoreState(sched)
	tt.restoreState(snap)
	tt.unset(timerHBExpect, "")
	if tt.isSet(timerHBExpect, "a") || !tt.isSet(timerHBExpect, "b") || !tt.isSet(timerHBExpect, "c") {
		t.Fatalf("after the restore the buggy unset should remove a: a=%v b=%v c=%v",
			tt.isSet(timerHBExpect, "a"), tt.isSet(timerHBExpect, "b"), tt.isSet(timerHBExpect, "c"))
	}
}

// TestTimerTableOldestSurvivesReArms: re-arming one key over and over — a
// member heartbeating — never makes it older than an entry armed once
// before it was last re-armed, and the buggy unset removes entries oldest
// first whatever their places in the bucket.
func TestTimerTableOldestSurvivesReArms(t *testing.T) {
	s := simtime.NewScheduler()
	tt := newTimerTable(s, true, nofire)
	for _, k := range []string{"a", "b", "c", "d"} {
		tt.set(timerHBExpect, k, time.Second)
	}
	for i := 0; i < 100; i++ {
		tt.set(timerHBExpect, "b", time.Second)
		tt.set(timerHBExpect, "a", time.Second)
	}
	for _, want := range []string{"c", "d", "b", "a"} {
		tt.unset(timerHBExpect, "")
		if tt.isSet(timerHBExpect, want) || tt.armedOf(timerHBExpect) != len(tt.kinds[timerHBExpect]) {
			t.Fatalf("the buggy unset should have removed %s next", want)
		}
	}
	if n := len(tt.kinds[timerHBExpect]); n != 0 || s.Len() != 0 {
		t.Fatalf("%d entries registered and %d events pending after four unsets", n, s.Len())
	}
}

// TestDaemonRestoreSuspectsTwice: a daemon restored from one snapshot sees
// the snapshot's suspects, and sees them again after a second restore from
// the same snapshot, though the first restore's suspects were emptied in
// place and refilled in between.
func TestDaemonRestoreSuspectsTwice(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	w := netsim.NewWorld(5)
	var d *Daemon
	for _, name := range names {
		node := w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		node.SetStack(stack.New(node.Env(), net))
		if gd := MustNew(node.Env(), net, names); name == "n1" {
			d = gd
		}
	}
	if err := w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	d.Start()
	w.RunFor(time.Second)
	d.suspect("n3")
	d.suspect("n2")
	d.suspect("n3")
	snap := d.SnapshotState()
	want := []string{"n3", "n2"}
	for round := 0; round < 2; round++ {
		d.unsuspect("n3")
		d.commitLocal(NewGroup(d.genCounter+1, []string{"n1"}))
		d.suspect("n1")
		d.RestoreState(snap)
		if !slices.Equal(d.suspects, want) {
			t.Fatalf("restore %d: suspects %v, want %v", round+1, d.suspects, want)
		}
	}
}
