package trace

import (
	"fmt"
	"testing"

	"pfi/internal/simtime"
)

func fillLog(n int) *Log {
	l := NewLog()
	for i := 0; i < n; i++ {
		l.Addf(simtime.Time(i), fmt.Sprintf("n%d", i%7), "kind", "TYPE", uint64(i), "")
	}
	return l
}

// TestLogSegmentedSemantics pins the whole Log contract across block
// boundaries: Len/Entries/AppendEntries/Filter/each agree with a flat
// reference, and RestoreState truncates to any mark (including marks that
// land exactly on, just before, and just after a block edge) with appends
// continuing cleanly afterwards.
func TestLogSegmentedSemantics(t *testing.T) {
	const total = 3*blockSize + 17
	l := fillLog(total)
	if l.Len() != total {
		t.Fatalf("Len = %d, want %d", l.Len(), total)
	}
	es := l.Entries()
	if len(es) != total {
		t.Fatalf("Entries len = %d, want %d", len(es), total)
	}
	for i, e := range es {
		if e.Seq != uint64(i) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	if got := l.AppendEntries(nil); len(got) != total || got[total-1].Seq != total-1 {
		t.Fatalf("AppendEntries mismatch: len %d", len(got))
	}
	// AppendEntries extends, never replaces.
	pre := []Entry{{Node: "pre"}}
	if got := l.AppendEntries(pre); len(got) != total+1 || got[0].Node != "pre" {
		t.Fatalf("AppendEntries did not extend dst")
	}
	if got := l.Filter("n3", "", ""); len(got) == 0 || got[0].Seq != 3 {
		t.Fatalf("Filter across blocks broken: %v", got)
	}
	visited := 0
	l.each(func(e Entry) {
		if e.Seq == uint64(visited) {
			visited++
		}
	})
	if visited != total {
		t.Fatalf("each visited %d entries in order, want %d", visited, total)
	}

	for _, mark := range []int{0, 1, blockSize - 1, blockSize, blockSize + 1, 2 * blockSize, total} {
		l := fillLog(total)
		l.RestoreState(mark)
		if l.Len() != mark {
			t.Fatalf("after restore to %d: Len = %d", mark, l.Len())
		}
		es := l.Entries()
		if len(es) != mark || (mark > 0 && es[mark-1].Seq != uint64(mark-1)) {
			t.Fatalf("after restore to %d: bad entries (len %d)", mark, len(es))
		}
		// Appending after a truncation resumes exactly at the mark.
		l.Addf(0, "post", "k", "", 9999, "")
		if es := l.Entries(); len(es) != mark+1 || es[mark].Node != "post" {
			t.Fatalf("append after restore to %d landed wrong", mark)
		}
	}

	// Restoring to a length beyond the log is a no-op (snapshot contract:
	// marks only ever shrink the log).
	l2 := fillLog(10)
	l2.RestoreState(99)
	if l2.Len() != 10 {
		t.Fatalf("restore past end mutated log: %d", l2.Len())
	}
}

// TestLogAppendDoesNotMoveEntries is the append-regrowth regression: once an
// entry is logged its storage never moves, no matter how much is appended
// after it — growth allocates new blocks instead of re-copying history.
func TestLogAppendDoesNotMoveEntries(t *testing.T) {
	l := fillLog(blockSize + 10)
	p0 := &l.blocks[0][0]
	p1 := &l.blocks[1][0]
	for i := 0; i < 5*blockSize; i++ {
		l.Addf(0, "x", "k", "", 0, "")
	}
	if p0 != &l.blocks[0][0] || p1 != &l.blocks[1][0] {
		t.Fatal("append moved previously logged entries")
	}
}
