package gmp

import (
	"testing"
	"time"

	"pfi/internal/simtime"
)

// nofire is an expiry handler for tables whose timers never matter.
func nofire(kind, key string) {}

func TestTimerTableSetFires(t *testing.T) {
	s := simtime.NewScheduler()
	fired := 0
	tt := newTimerTable(s, false, func(kind, key string) {
		if kind != "hb-expect" || key != "n1" {
			t.Errorf("fired (%q, %q)", kind, key)
		}
		fired++
	})
	tt.set("hb-expect", "n1", time.Second)
	if !tt.isSet("hb-expect", "n1") {
		t.Fatal("timer not armed")
	}
	if tt.isSet("hb-expect", "n2") {
		t.Fatal("wrong key reported armed")
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d", fired)
	}
	if tt.isSet("hb-expect", "n1") {
		t.Fatal("fired timer still reported armed")
	}
}

func TestTimerTableReArmReplaces(t *testing.T) {
	s := simtime.NewScheduler()
	var fired []simtime.Time
	tt := newTimerTable(s, false, func(kind, key string) { fired = append(fired, s.Now()) })
	tt.set("hb-expect", "n1", time.Second)
	tt.set("hb-expect", "n1", 2*time.Second)
	if s.Len() != 1 {
		t.Fatalf("%d events pending after a re-arm, want 1", s.Len())
	}
	s.Run()
	if len(fired) != 1 || fired[0] != simtime.Time(2*time.Second) {
		t.Fatalf("fired at %v, want only the re-armed timer at 2s", fired)
	}
	if tt.armedOf("hb-expect") != 0 {
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
		tt.set("hb-expect", k, time.Second)
	}
	tt.set("hb-expect", "a", time.Second)
	tt.unset("hb-expect", "") // buggy: removes only the first
	if tt.isSet("hb-expect", "b") || !tt.isSet("hb-expect", "a") || !tt.isSet("hb-expect", "c") {
		t.Fatalf("after re-arming a, the first of the kind should be b: a=%v b=%v c=%v",
			tt.isSet("hb-expect", "a"), tt.isSet("hb-expect", "b"), tt.isSet("hb-expect", "c"))
	}
}

func TestTimerTableUnsetCorrectSemantics(t *testing.T) {
	s := simtime.NewScheduler()
	tt := newTimerTable(s, false, nofire) // fixed code
	for _, k := range []string{"a", "b", "c"} {
		tt.set("hb-expect", k, time.Second)
	}
	tt.set("proclaim", "", time.Second)

	// Keyed unset removes exactly that entry.
	tt.unset("hb-expect", "b")
	if tt.armedOf("hb-expect") != 2 || tt.isSet("hb-expect", "b") {
		t.Fatalf("keyed unset: armed=%d", tt.armedOf("hb-expect"))
	}
	// Empty key unsets ALL of the kind, leaving other kinds alone.
	tt.unset("hb-expect", "")
	if tt.armedOf("hb-expect") != 0 {
		t.Fatalf("unset-all left %d armed", tt.armedOf("hb-expect"))
	}
	if tt.armedOf("proclaim") != 1 {
		t.Fatal("unset-all crossed kinds")
	}
}

func TestTimerTableUnsetBuggySemantics(t *testing.T) {
	s := simtime.NewScheduler()
	tt := newTimerTable(s, true, nofire) // the inverted logic of the student code
	for _, k := range []string{"a", "b", "c"} {
		tt.set("hb-expect", k, time.Second)
	}
	// The NULL (unset-all) path removes only the FIRST entry.
	tt.unset("hb-expect", "")
	if got := tt.armedOf("hb-expect"); got != 2 {
		t.Fatalf("buggy unset-all left %d armed, want 2 (the bug)", got)
	}
	if tt.isSet("hb-expect", "a") {
		t.Fatal("buggy unset-all should have removed the oldest entry")
	}
	// The keyed path removes ALL of the kind, ignoring the key.
	tt.unset("hb-expect", "c")
	if got := tt.armedOf("hb-expect"); got != 0 {
		t.Fatalf("buggy keyed unset left %d armed, want 0 (the bug)", got)
	}
}

func TestTimerTableUnsetAllKinds(t *testing.T) {
	s := simtime.NewScheduler()
	fired := 0
	tt := newTimerTable(s, false, func(kind, key string) { fired++ })
	tt.set("a", "", time.Second)
	tt.set("b", "", time.Second)
	tt.unsetAllKinds()
	s.Run()
	if fired != 0 {
		t.Fatalf("cancelled timers fired %d times", fired)
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
