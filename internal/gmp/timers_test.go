package gmp

import (
	"testing"
	"time"

	"pfi/internal/simtime"
)

// nofire is an expiry handler for tables whose timers never matter.
func nofire(kind timerKind, key string) {}

// isSet reports whether the (kind, key) timer is armed.
func (t *timerTable) isSet(kind timerKind, key string) bool {
	i := t.find(kind, key)
	return i >= 0 && t.kinds[kind][i].Pending()
}

func TestTimerTableSetFires(t *testing.T) {
	s := simtime.NewScheduler()
	fired := 0
	tt := newTimerTable(s, false, func(kind timerKind, key string) {
		if kind != timerHBExpect || key != "n1" {
			t.Errorf("fired (%s, %q)", timerNames[kind], key)
		}
		fired++
	})
	tt.set(timerHBExpect, "n1", time.Second)
	if !tt.isSet(timerHBExpect, "n1") {
		t.Fatal("timer not armed")
	}
	if tt.isSet(timerHBExpect, "n2") {
		t.Fatal("wrong key reported armed")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d", fired)
	}
	if tt.isSet(timerHBExpect, "n1") {
		t.Fatal("fired timer still reported armed")
	}
}

func TestTimerTableReArmReplaces(t *testing.T) {
	s := simtime.NewScheduler()
	var fired []simtime.Time
	tt := newTimerTable(s, false, func(kind timerKind, key string) { fired = append(fired, s.Now()) })
	tt.set(timerHBExpect, "n1", time.Second)
	tt.set(timerHBExpect, "n1", 2*time.Second)
	if s.Len() != 1 {
		t.Fatalf("%d events pending after a re-arm, want 1", s.Len())
	}
	s.Run()
	if len(fired) != 1 || fired[0] != simtime.Time(2*time.Second) {
		t.Fatalf("fired at %v, want only the re-armed timer at 2s", fired)
	}
	if tt.armedOf(timerHBExpect) != 0 {
		t.Fatal("armed count after fire")
	}
}

// A re-armed timer goes to the back of the arming order, where a freshly
// registered one would: the buggy unset's "first of the kind" is the one
// armed longest ago.
func TestTimerTableReArmMovesToEnd(t *testing.T) {
	s := simtime.NewScheduler()
	tt := newTimerTable(s, true, nofire)
	for _, k := range []string{"a", "b", "c"} {
		tt.set(timerHBExpect, k, time.Second)
	}
	tt.set(timerHBExpect, "a", time.Second)
	tt.unset(timerHBExpect, "") // buggy: removes only the first
	if tt.isSet(timerHBExpect, "b") || !tt.isSet(timerHBExpect, "a") || !tt.isSet(timerHBExpect, "c") {
		t.Fatalf("after re-arming a, the first of the kind should be b: a=%v b=%v c=%v",
			tt.isSet(timerHBExpect, "a"), tt.isSet(timerHBExpect, "b"), tt.isSet(timerHBExpect, "c"))
	}
}

func TestTimerTableUnsetCorrectSemantics(t *testing.T) {
	s := simtime.NewScheduler()
	tt := newTimerTable(s, false, nofire) // fixed code
	for _, k := range []string{"a", "b", "c"} {
		tt.set(timerHBExpect, k, time.Second)
	}
	tt.set(timerProclaim, "", time.Second)

	// Keyed unset removes exactly that entry.
	tt.unset(timerHBExpect, "b")
	if tt.armedOf(timerHBExpect) != 2 || tt.isSet(timerHBExpect, "b") {
		t.Fatalf("keyed unset: armed=%d", tt.armedOf(timerHBExpect))
	}
	// Empty key unsets ALL of the kind, leaving other kinds alone.
	tt.unset(timerHBExpect, "")
	if tt.armedOf(timerHBExpect) != 0 {
		t.Fatalf("unset-all left %d armed", tt.armedOf(timerHBExpect))
	}
	if tt.armedOf(timerProclaim) != 1 {
		t.Fatal("unset-all crossed kinds")
	}
}

func TestTimerTableUnsetBuggySemantics(t *testing.T) {
	s := simtime.NewScheduler()
	tt := newTimerTable(s, true, nofire) // the inverted logic of the student code
	for _, k := range []string{"a", "b", "c"} {
		tt.set(timerHBExpect, k, time.Second)
	}
	// The NULL (unset-all) path removes only the FIRST entry.
	tt.unset(timerHBExpect, "")
	if got := tt.armedOf(timerHBExpect); got != 2 {
		t.Fatalf("buggy unset-all left %d armed, want 2 (the bug)", got)
	}
	if tt.isSet(timerHBExpect, "a") {
		t.Fatal("buggy unset-all should have removed the oldest entry")
	}
	// The keyed path removes ALL of the kind, ignoring the key.
	tt.unset(timerHBExpect, "c")
	if got := tt.armedOf(timerHBExpect); got != 0 {
		t.Fatalf("buggy keyed unset left %d armed, want 0 (the bug)", got)
	}
}

func TestTypeNames(t *testing.T) {
	if TypeName(TypeProclaim) != "PROCLAIM" {
		t.Error("PROCLAIM name")
	}
	if TypeName(99) != "TYPE(99)" {
		t.Error("unknown type name")
	}
	m := &Msg{Type: TypeCommit}
	if m.TypeName() != "COMMIT" {
		t.Error("Msg.TypeName")
	}
}

func TestStubProtocolName(t *testing.T) {
	if (PFIStub{}).Protocol() != "gmp" {
		t.Error("stub protocol name")
	}
}
