package rudp

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"pfi/internal/netsim"
	"pfi/internal/stack"
)

// TestRestoreRebuildsTheWindow: a capture taken with three sends pending
// across an unplugged cable — one of them already retransmitted — restores
// the window exactly: the same records, in the same order, with their seqs,
// retry counts and payloads, even after the originals were acknowledged
// and a later send reused a record. The run from the restore replays the
// deliveries the first run made.
func TestRestoreRebuildsTheWindow(t *testing.T) {
	w := netsim.NewWorld(1)
	var got []string
	var layers []*Layer
	for _, name := range []string{"a", "b"} {
		n := w.MustAddNode(name)
		l := NewLayer(n.Env())
		n.SetStack(stack.New(n.Env(), l))
		l.OnDeliver(func(src string, payload []byte) {
			got = append(got, fmt.Sprintf("%v %s<-%s %s", w.Now(), name, src, payload))
		})
		w.Snapshots().Register("rudp:"+name, l)
		layers = append(layers, l)
	}
	if err := w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	a, b := layers[0], func() *netsim.Node { n, _ := w.Node("b"); return n }()
	send := func(payload string) {
		t.Helper()
		if err := a.Send("b", []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	window := func() string {
		p := a.find("b")
		if p == nil {
			return "no peer"
		}
		s := ""
		for _, ps := range p.window {
			s += fmt.Sprintf("[%d %q retries %d pending %v] ", ps.seq, ps.payload, ps.retries, ps.Pending())
		}
		return s
	}

	send("one")
	w.RunFor(10 * time.Millisecond)
	b.Unplug()
	send("two")
	w.RunFor(300 * time.Millisecond)
	send("three")
	send("four")
	w.RunFor(300 * time.Millisecond) // "two" goes out a second time
	want := window()
	if want != `[2 "two" retries 1 pending true] [3 "three" retries 0 pending true] [4 "four" retries 0 pending true] ` {
		t.Fatalf("window before the capture: %s", want)
	}
	records := slices.Clone(a.find("b").window)
	snap := w.Snapshots().Capture()
	mark := len(got)

	run := func() []string {
		b.Replug()
		w.RunFor(2 * time.Second)
		send("five") // takes a record an ack gave back, never a captured one
		w.RunFor(time.Second)
		return slices.Clone(got[mark:])
	}
	first := run()
	if len(first) != 4 || window() != "" {
		t.Fatalf("first run delivered %v and left the window %q", first, window())
	}
	for i := 0; i < 2; i++ {
		snap.Restore()
		got = got[:mark]
		if win := window(); win != want || !slices.Equal(a.find("b").window, records) {
			t.Fatalf("restore %d: window %s, want %s, same records %v", i+1, win, want, slices.Equal(a.find("b").window, records))
		}
		if again := run(); !slices.Equal(again, first) {
			t.Fatalf("restore %d replayed %v, want %v", i+1, again, first)
		}
	}
}
