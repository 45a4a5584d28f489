package netsim

import (
	"fmt"
	"testing"
	"time"

	"pfi/internal/message"
	"pfi/internal/stack"
)

// arrival is what a node's stack saw of one delivered message.
type arrival struct {
	at, payload  string
	srcNo, dstNo uint16
}

// numberedWorld builds nodes named by names, each with a stack that writes
// down every arrival, on one default link.
func numberedWorld(names ...string) (*World, *[]arrival) {
	w := NewWorld(1)
	w.SetDefaultLink(&LinkConfig{Latency: time.Millisecond})
	var got []arrival
	for _, name := range names {
		n := w.MustAddNode(name)
		s := stack.New(n.Env())
		s.OnDeliver(func(m *message.Message) error {
			got = append(got, arrival{name, string(m.Bytes()), m.SrcNo(), m.DstNo()})
			return nil
		})
		n.SetStack(s)
	}
	return w, &got
}

// sendNumbered sends payload from a node to dst with the number hint no,
// and runs the world dry.
func sendNumbered(t *testing.T, w *World, from, dst string, no uint16, payload string) {
	t.Helper()
	m := message.New([]byte(payload))
	m.SetDst(dst)
	m.SetDstNo(no)
	n, _ := w.Node(from)
	if err := n.stk.Send(m); err != nil {
		t.Fatal(err)
	}
	w.Run()
}

// TestWorldNumberFallback: the network stamps the sender's world number on
// each message and routes by the destination number the sender gave only
// when it names the node the destination name names; any other number — one
// naming a different node, one past the world's node count, none — leaves
// routing to the name, and the message arrives carrying the numbers of the
// nodes it really left and reached.
func TestWorldNumberFallback(t *testing.T) {
	w, got := numberedWorld("a", "b", "c")
	a, b, c := w.order[0], w.order[1], w.order[2]
	if a.no != 1 || b.no != 2 || c.no != 3 {
		t.Fatalf("world numbers %d %d %d, want 1 2 3", a.no, b.no, c.no)
	}
	for _, tc := range []struct {
		name string
		no   uint16
	}{
		{"its own number", c.no},
		{"a number naming a different node", b.no},
		{"a number past the world's node count", 200},
		{"no number", 0},
	} {
		*got = (*got)[:0]
		sendNumbered(t, w, "a", "c", tc.no, tc.name)
		if want := []arrival{{"c", tc.name, a.no, c.no}}; fmt.Sprint(*got) != fmt.Sprint(want) {
			t.Errorf("%s: arrivals %v, want %v", tc.name, *got, want)
		}
	}

	// Re-addressing forgets the number given for the old destination.
	*got = (*got)[:0]
	m := message.New([]byte("re-addressed"))
	m.SetDst("b")
	m.SetDstNo(b.no)
	m.SetDst("c")
	if m.DstNo() != 0 {
		t.Fatalf("SetDst kept the old destination's number %d", m.DstNo())
	}
	if err := a.stk.Send(m); err != nil {
		t.Fatal(err)
	}
	w.Run()
	if want := []arrival{{"c", "re-addressed", a.no, c.no}}; fmt.Sprint(*got) != fmt.Sprint(want) {
		t.Errorf("re-addressed: arrivals %v, want %v", *got, want)
	}
	m.SetSrc("x")
	if m.SrcNo() != 0 {
		t.Fatalf("SetSrc kept the old source's number %d", m.SrcNo())
	}
}

// TestWorldTooLargeForNumbers: a node past what a message's number field
// holds has no world number, and messages to and from it route by name.
func TestWorldTooLargeForNumbers(t *testing.T) {
	w, got := numberedWorld("a")
	for i := 1; i < 1<<16; i++ {
		w.MustAddNode(fmt.Sprintf("n%d", i))
	}
	last := w.order[len(w.order)-1]
	if last.no != 0 || w.order[len(w.order)-2].no != 1<<16-1 {
		t.Fatalf("the last two nodes are numbered %d and %d, want %d and 0",
			w.order[len(w.order)-2].no, last.no, 1<<16-1)
	}
	s := stack.New(last.Env())
	s.OnDeliver(func(m *message.Message) error {
		*got = append(*got, arrival{last.name, string(m.Bytes()), m.SrcNo(), m.DstNo()})
		return nil
	})
	last.SetStack(s)
	sendNumbered(t, w, "a", last.name, 0, "out")
	sendNumbered(t, w, last.name, "a", 0, "back")
	sendNumbered(t, w, last.name, "a", 1, "back, numbered")
	want := []arrival{{last.name, "out", 1, 0}, {"a", "back", 0, 1}, {"a", "back, numbered", 0, 1}}
	if fmt.Sprint(*got) != fmt.Sprint(want) {
		t.Fatalf("arrivals %v, want %v", *got, want)
	}
}
