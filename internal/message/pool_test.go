//go:build !race

package message

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"testing"
)

// TestReusedMessageIsAFreshOne: whatever a message was before the wire gave
// it back — inline or spilled, addressed, cloned from another, truncated —
// the next New or Build that gets it cannot tell: a new ID that is its own
// origin, no addressing, no bytes, not kept, room for what was asked
// (inline when that fits), and it takes its bytes like any other.
func TestReusedMessageIsAFreshOne(t *testing.T) {
	// One P and no collection: the pool hands back what it was just given.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	for _, before := range []int{3, InlineCap, InlineCap + 1, 6 * InlineCap} {
		for _, after := range []int{0, 5, InlineCap, InlineCap + 1, 4 * InlineCap, 8 * InlineCap} {
			old := New(bytes.Repeat([]byte("o"), before)).Clone()
			old.SetSrc("a")
			old.SetDst("b")
			_ = old.Truncate(before - 1)
			oldID := old.ID()
			old.Release()

			payload := bytes.Repeat([]byte("n"), after)
			w := Build(after)
			m := w.m
			if m != old {
				t.Fatalf("%d then %d bytes: Build did not reuse the released message", before, after)
			}
			if m.id <= oldID || m.origin != m.id || m.src != "" || m.dst != "" || m.kept || len(m.buf) != 0 || cap(m.buf) < after {
				t.Fatalf("%d then %d bytes: reused message is %+v (was #%d)", before, after, m, oldID)
			}
			if inline := cap(m.buf) > 0 && &m.buf[:1][0] == &m.inline[0]; inline != (after <= InlineCap) {
				t.Fatalf("%d then %d bytes: inline = %v", before, after, inline)
			}
			room := cap(m.buf)
			m = w.Bytes(payload).Message()
			if !bytes.Equal(m.Bytes(), payload) || cap(m.buf) != room {
				t.Fatalf("%d then %d bytes: built %d bytes in capacity %d, had room for %d", before, after, m.Len(), cap(m.buf), room)
			}
			if c := New(payload); c == m || c.id <= m.id {
				t.Fatal("a message in use was handed out again")
			}
		}
	}

	// A kept message never comes back, and neither does one a snapshot saw.
	kept, saved := NewString("kept"), NewString("saved")
	kept.Keep()
	_ = saved.SaveState()
	kept.Release()
	saved.Release()
	for i := 0; i < 4; i++ {
		if m := New(nil); m == kept || m == saved {
			t.Fatal("a kept message was reused")
		}
	}
}
