package trace

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"pfi/internal/simtime"
)

func fillLog(n int) *Log {
	l := NewLog()
	for i := 0; i < n; i++ {
		l.Addf(simtime.Time(i), fmt.Sprintf("n%d", i%7), "kind", "TYPE", uint64(i), "")
	}
	return l
}

// checkBlocks asserts the block layout RestoreState's arithmetic counts on:
// no block holds more than blockSize entries, every block but the last is
// full, a block after the first was made whole, and the lengths add up.
func checkBlocks(t *testing.T, l *Log) {
	t.Helper()
	n := 0
	for i, b := range l.blocks {
		if cap(b) > blockSize || (i < len(l.blocks)-1 && len(b) != blockSize) || (i > 0 && cap(b) != blockSize) {
			t.Fatalf("block %d of %d holds %d of %d entries", i, len(l.blocks), len(b), cap(b))
		}
		n += len(b)
	}
	if n != l.n {
		t.Fatalf("blocks hold %d entries, Len %d", n, l.n)
	}
}

// TestLogSegmentedSemantics pins the whole Log contract across block
// boundaries: Len/Entries/Filter/each agree with a flat
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
	if got := l.Filter("n3", "", ""); len(got) == 0 || got[0].Seq != 3 {
		t.Fatalf("Filter across blocks broken: %v", got)
	} else if cap(got) != len(got) {
		t.Fatalf("Filter allocated room for %d entries to return %d", cap(got), len(got))
	}
	visited := 0
	l.each(func(e *Entry) {
		if e.Seq == uint64(visited) {
			visited++
		}
	})
	if visited != total {
		t.Fatalf("each visited %d entries in order, want %d", visited, total)
	}

	for _, mark := range []int{0, 1, blockSize - 1, blockSize, blockSize + 1, 2 * blockSize, total} {
		l := fillLog(total)
		checkBlocks(t, l)
		l.RestoreState(mark)
		checkBlocks(t, l)
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

	// The same inside the first block while it is still growing: marks at
	// its first sizes' edges, and a log that outgrows it after the restore.
	for _, mark := range []int{1, firstBlock - 1, firstBlock, firstBlock + 1, blockSize / 2, blockSize - 1} {
		for _, size := range []int{mark, mark + 1, 2*mark + 1} {
			l := fillLog(size)
			checkBlocks(t, l)
			l.RestoreState(mark)
			checkBlocks(t, l)
			if es := l.Entries(); l.Len() != mark || len(es) != mark || es[mark-1].Seq != uint64(mark-1) {
				t.Fatalf("log of %d restored to %d: Len %d, %d entries", size, mark, l.Len(), len(es))
			}
			for i := mark; i < blockSize+firstBlock; i++ {
				l.Addf(0, "post", "k", "", uint64(i), "")
			}
			checkBlocks(t, l)
			for i, e := range l.Entries() {
				if e.Seq != uint64(i) {
					t.Fatalf("log of %d restored to %d and refilled: entry %d has seq %d", size, mark, i, e.Seq)
				}
			}
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

// TestLogAppendDoesNotMoveEntries is the append-regrowth regression: the
// first block is re-copied while it grows, but once it is full no logged
// entry's storage moves, no matter how much is appended after it — growth
// allocates new blocks instead of re-copying history.
func TestLogAppendDoesNotMoveEntries(t *testing.T) {
	l := fillLog(blockSize)
	p0 := &l.blocks[0][0]
	l.Addf(0, "x", "k", "", 0, "")
	p1 := &l.blocks[1][0]
	for i := 1; i < 3*blockSize; i++ { // three more blocks, full
		l.Addf(0, "x", "k", "", 0, "")
	}
	if len(l.blocks) != 4 || p0 != &l.blocks[0][0] || p1 != &l.blocks[1][0] {
		t.Fatal("append moved previously logged entries")
	}
}

// TestShortLogStaysSmall: a log of a couple of hundred entries — a short
// world's — holds a 256-entry first block, 20 KB, not a whole 320 KB one,
// and allocates that block and the two it outgrew, 35 KB in all.
func TestShortLogStaysSmall(t *testing.T) {
	const logs, entries = 20, 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept := make([]*Log, logs)
	for i := range kept {
		l := NewLog()
		for j := 0; j < entries; j++ {
			l.Addf(simtime.Time(j), "n1", "kind", "TYPE", uint64(j), "")
		}
		kept[i] = l
	}
	runtime.ReadMemStats(&after)
	if held := cap(kept[0].blocks[0]) * int(unsafe.Sizeof(Entry{})); held >= 32<<10 {
		t.Fatalf("a %d-entry log holds %d bytes of entries", entries, held)
	}
	if per := (after.TotalAlloc - before.TotalAlloc) / logs; per >= 40<<10 {
		t.Fatalf("a %d-entry log allocates %d bytes", entries, per)
	}
}
