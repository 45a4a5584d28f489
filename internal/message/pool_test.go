//go:build !race

package message

import (
	"bytes"
	"testing"
)

// TestReusedMessageIsAFreshOne: a Pool hands a released message out again
// only to a frame of the same class — inline or spilled — and whatever the
// message was before — addressed, cloned from another, truncated — the New
// or Build that gets it cannot tell: no addressing, no bytes, not
// kept, room for what was asked (inline when that fits), and it takes its
// bytes like any other. A spilled message comes back with its buffer, so a
// stream of same-sized segments allocates no buffer after the first; a
// small frame never takes a spilled message, which would carry a buffer it
// does not use. A kept message, or one a snapshot saw, never comes back.
func TestReusedMessageIsAFreshOne(t *testing.T) {
	spills := func(n int) bool { return n > InlineCap }
	for _, before := range []int{3, InlineCap, InlineCap + 1, 6 * InlineCap} {
		for _, after := range []int{0, 5, InlineCap, InlineCap + 1, 4 * InlineCap, 8 * InlineCap} {
			p := new(Pool)
			old := p.Clone(New(bytes.Repeat([]byte("o"), before)))
			old.SetSrc("a")
			old.SetDst("b")
			old.buf = old.buf[:before-1]
			oldBuf := old.buf[:1]
			p.Release(old)

			payload := bytes.Repeat([]byte("n"), after)
			w := p.Build(after)
			m := w.m
			if reused := m == old; reused != (spills(before) == spills(after)) {
				t.Fatalf("%d then %d bytes: reused = %v", before, after, reused)
			}
			if m.next != nil || m.src != "" || m.dst != "" || m.kept || len(m.buf) != 0 || cap(m.buf) < after {
				t.Fatalf("%d then %d bytes: built message is %+v", before, after, m)
			}
			if inline := cap(m.buf) > 0 && &m.buf[:1][0] == &m.inline[0]; inline != (after <= InlineCap) {
				t.Fatalf("%d then %d bytes: inline = %v", before, after, inline)
			}
			if sameBuf := spills(after) && &m.buf[:1][0] == &oldBuf[0]; sameBuf != (spills(before) && spills(after) && after <= before) {
				t.Fatalf("%d then %d bytes: spill buffer reused = %v", before, after, sameBuf)
			}
			room := cap(m.buf)
			m = w.Bytes(payload).Message()
			if !bytes.Equal(m.Bytes(), payload) || cap(m.buf) != room {
				t.Fatalf("%d then %d bytes: built %d bytes in capacity %d, had room for %d", before, after, m.Len(), cap(m.buf), room)
			}
			if c := p.New(payload); c == m {
				t.Fatal("a message in use was handed out again")
			}
		}
	}

	// Each class is a list: what goes back last comes out first, and the
	// other class's messages stay where they are.
	p := new(Pool)
	small, big := p.New([]byte("s")), p.New(make([]byte, 2*InlineCap))
	small2, big2 := p.New([]byte("t")), p.New(make([]byte, 2*InlineCap))
	for _, m := range []*Message{small, big, small2, big2} {
		p.Release(m)
	}
	for _, want := range []*Message{big2, big} {
		if got := p.New(make([]byte, InlineCap+1)); got != want {
			t.Fatal("a spilled frame did not take the last spilled message released")
		}
	}
	if got := p.New(make([]byte, InlineCap+1)); got == small || got == small2 {
		t.Fatal("a spilled frame took an inline message")
	}
	for _, want := range []*Message{small2, small} {
		if got := p.New(nil); got != want {
			t.Fatal("an inline frame did not take the last inline message released")
		}
	}

	// A kept message never comes back, and neither does one a snapshot saw,
	// nor one released into a nil pool.
	p = new(Pool)
	kept, saved := p.New([]byte("kept")), p.New(make([]byte, 2*InlineCap))
	kept.Keep()
	_ = saved.SaveState()
	p.Release(kept)
	p.Release(saved)
	var none *Pool
	dropped := p.New([]byte("dropped"))
	none.Release(dropped)
	for i := 0; i < 4; i++ {
		if m := p.New(nil); m == kept || m == saved || m == dropped {
			t.Fatal("a kept message was reused")
		}
		if m := p.New(make([]byte, InlineCap+1)); m == saved {
			t.Fatal("a saved message was reused")
		}
	}
}
