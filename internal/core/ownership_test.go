package core

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/stack"
)

// wireRig is two nodes on a simulated wire, a PFI layer on each under an
// app that writes down the bytes of everything that reaches it. The wire
// reuses a message once its hop is over, so whatever a filter parked — held,
// delayed, duplicated — must have been kept to arrive as it left.
type wireRig struct {
	w       *netsim.World
	pfi     map[string]*Layer
	stk     map[string]*stack.Stack
	arrived []string // at b's app, in order
}

func newWireRig(t *testing.T) *wireRig {
	t.Helper()
	r := &wireRig{w: netsim.NewWorld(3), pfi: map[string]*Layer{}, stk: map[string]*stack.Stack{}}
	for _, name := range []string{"a", "b"} {
		node := r.w.MustAddNode(name)
		pl := NewLayer(node.Env())
		app := stack.NewFunc("app", nil, func(m *message.Message, next stack.Sink) error {
			if name == "b" {
				r.arrived = append(r.arrived, string(m.Bytes()))
			}
			return next(m)
		})
		r.pfi[name], r.stk[name] = pl, stack.New(node.Env(), app, pl)
		node.SetStack(r.stk[name])
	}
	if err := r.w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return r
}

// payload is message i's bytes: every one different, every seventh spilled
// out of the message's inline array.
func payload(i int) string {
	if i%7 == 0 {
		return fmt.Sprintf("msg-%02d-%s", i, strings.Repeat("long", message.InlineCap/2))
	}
	return fmt.Sprintf("msg-%02d", i)
}

// stream sends messages 1..n from a to b, ten milliseconds apart, and runs
// the world dry.
func (r *wireRig) stream(t *testing.T, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		m := message.New([]byte(payload(i)))
		m.SetDst("b")
		if err := r.stk["a"].Send(m); err != nil {
			t.Fatal(err)
		}
		r.w.RunFor(10 * time.Millisecond)
	}
	r.w.Run()
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// TestParkedMessagesArriveIntact: a filter holds every fourth message until
// two messages later, delays some by 35 ms and sends a late second copy of
// every third, on the receiving node and then on the sending one, while the
// stream carries on and the wire keeps reusing what each finished hop used.
// Every message must reach the app with the bytes it was sent with, the
// copies too.
func TestParkedMessagesArriveIntact(t *testing.T) {
	const n = 62 // the last hold (60) is released by 62
	const script = `
		incr n
		if {$n % 4 == 0} { xHold cur_msg } elseif {$n % 4 == 2} { xRelease }
		if {$n % 5 == 1} { xDelay cur_msg 35 }
		if {$n % 3 == 0} { xDuplicate cur_msg 1 25 }`
	var want []string
	for i := 1; i <= n; i++ {
		want = append(want, payload(i))
		if i%3 == 0 { // a held message is duplicated too
			want = append(want, payload(i))
		}
	}
	want = sortedCopy(want)
	for _, tc := range []struct {
		name string
		set  func(r *wireRig) error
	}{
		{"receive filter", func(r *wireRig) error { return r.pfi["b"].SetReceiveScript(script) }},
		{"send filter", func(r *wireRig) error { return r.pfi["a"].SetSendScript(script) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newWireRig(t)
			if err := tc.set(r); err != nil {
				t.Fatal(err)
			}
			r.stream(t, n)
			if got := sortedCopy(r.arrived); strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("arrived:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestHeldMessageIsDuplicated: a run that holds and duplicates a message
// parks the original and sends the copies on their own schedule, counted in
// Duplicated; the original arrives only when released. A drop in the same
// run suppresses the copies.
func TestHeldMessageIsDuplicated(t *testing.T) {
	r := newWireRig(t)
	if err := r.pfi["a"].SetSendScript(`
		incr n
		if {$n == 1} { xHold cur_msg; xDuplicate cur_msg 2 5 }
		if {$n == 2} { xHold cur_msg; xDuplicate cur_msg 1; xDrop cur_msg }
		if {$n == 3} { xRelease }`); err != nil {
		t.Fatal(err)
	}
	r.stream(t, 3)
	// Message 1's copies arrive before it; message 2 is released with 1.
	want := []string{payload(1), payload(1), payload(1), payload(2), payload(3)}
	if got := strings.Join(r.arrived, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("arrived:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
	if st := r.pfi["a"].SendFilter().Stats(); st.Duplicated != 2 || st.Held != 2 || st.Released != 2 {
		t.Fatalf("stats %+v, want 2 duplicated, 2 held, 2 released", st)
	}
}

// TestDuplicateOfAMessageTheWireDropped: the send filter forwards a message
// and only then clones it for xDuplicate, so the original may already have
// been dropped by the wire — here by a partition — when the copy is taken.
// The wire lets go of a message at the end of a hop, never when it refuses
// one, so the copy, sent after the partition heals, carries the original's
// bytes. (Releasing on the send-side drop kept every short fuzz fingerprint
// and moved the long one.)
func TestDuplicateOfAMessageTheWireDropped(t *testing.T) {
	r := newWireRig(t)
	if err := r.pfi["a"].SetSendScript(`xDuplicate cur_msg 1 500`); err != nil {
		t.Fatal(err)
	}
	const n = 14
	r.w.Partition([]string{"a"}, []string{"b"})
	r.w.Sched.After(300*time.Millisecond, "heal", r.w.Heal)
	r.stream(t, n)
	var want []string
	for i := 1; i <= n; i++ {
		want = append(want, payload(i))
	}
	if st := r.w.Stats(); st.LostCut != n || st.Delivered != n {
		t.Fatalf("wire dropped %d originals and delivered %d copies, want %d and %d", st.LostCut, st.Delivered, n, n)
	}
	if got := strings.Join(r.arrived, "\n"); got != strings.Join(want, "\n") {
		t.Fatalf("arrived:\n%s\nwant:\n%s", got, strings.Join(want, "\n"))
	}
}
