// Package trace records timestamped experiment events — the equivalent of
// the paper's receive-filter packet logs ("each packet was logged with a
// timestamp by the receive filter script before it was dropped") — and
// provides the analysis used to build the paper's tables: interval
// extraction, exponential-backoff detection, and bound estimation.
package trace

import (
	"time"

	"pfi/internal/simtime"
)

// Entry is one logged event.
type Entry struct {
	At   simtime.Time
	Node string
	Kind string // e.g. "drop", "send", "recv", "retransmit", "keepalive"
	Type string // protocol message type, e.g. "DATA", "ACK", "COMMIT"
	Seq  uint64 // protocol sequence number when meaningful
	Note string
}

// Entry storage is segmented: the log holds fixed-size blocks and appends
// into the last one, so growing never re-copies earlier entries. A
// 1000-node consensus run logs hundreds of thousands of entries; with a
// flat slice, append-regrowth re-copies the whole history O(log n) times
// and the copies dominate the run's budget. Blocks also keep the
// truncate-to-mark snapshot contract trivial: dropping back to a mark
// releases whole tail blocks and shortens the last kept one in place.
//
// Only the first block grows, doubling from firstBlock entries to
// blockSize, so a short world never allocates, zeroes and scans a 320 KB
// block; every later block is made whole, and all but the last are full.
const (
	blockShift = 12 // 4096 entries per block
	blockSize  = 1 << blockShift
	firstBlock = 64
)

// Log is an append-only event log. It is not safe for concurrent use; the
// simulation is single-threaded.
type Log struct {
	blocks [][]Entry // every block but the last is full
	n      int       // total entries across blocks
}

// NewLog returns an empty log.
func NewLog() *Log { return &Log{} }

// Add appends an entry.
func (l *Log) Add(e Entry) {
	k := len(l.blocks) - 1
	switch {
	case k < 0:
		l.blocks, k = append(l.blocks, make([]Entry, 0, firstBlock)), 0
	case len(l.blocks[k]) < cap(l.blocks[k]):
	case k == 0 && cap(l.blocks[0]) < blockSize:
		l.blocks[0] = append(make([]Entry, 0, 2*cap(l.blocks[0])), l.blocks[0]...)
	default:
		l.blocks, k = append(l.blocks, make([]Entry, 0, blockSize)), k+1
	}
	l.blocks[k] = append(l.blocks[k], e)
	l.n++
}

// Addf appends an entry built from parts.
func (l *Log) Addf(at simtime.Time, node, kind, typ string, seq uint64, note string) {
	l.Add(Entry{At: at, Node: node, Kind: kind, Type: typ, Seq: seq, Note: note})
}

// Len reports the entry count.
func (l *Log) Len() int { return l.n }

// SnapshotState captures the log for the snapshot registry. The log is
// append-only, so its whole mutable state is its length.
func (l *Log) SnapshotState() any { return l.n }

// RestoreState truncates the log back to a length captured by
// SnapshotState. Entries appended since the snapshot are discarded.
func (l *Log) RestoreState(state any) {
	n := state.(int)
	if n > l.n {
		return
	}
	keep := (n + blockSize - 1) >> blockShift
	for i := keep; i < len(l.blocks); i++ {
		l.blocks[i] = nil
	}
	l.blocks = l.blocks[:keep]
	if keep > 0 {
		l.blocks[keep-1] = l.blocks[keep-1][:n-(keep-1)<<blockShift]
	}
	l.n = n
}

// each visits every entry in order.
func (l *Log) each(fn func(e *Entry)) {
	for _, b := range l.blocks {
		for i := range b {
			fn(&b[i])
		}
	}
}

// Entries returns a copy of the logged entries. Mutating the returned slice
// cannot corrupt the log.
func (l *Log) Entries() []Entry {
	out := make([]Entry, 0, l.n)
	for _, b := range l.blocks {
		out = append(out, b...)
	}
	return out
}

// Detach returns the logged entries and leaves the log empty. Entries that
// fit in one block come back in that block, uncopied: for an owner done with
// the log, Entries' copy would be garbage at once.
func (l *Log) Detach() []Entry {
	var out []Entry
	if len(l.blocks) == 1 {
		out = l.blocks[0]
	} else {
		out = l.Entries()
	}
	l.blocks, l.n = nil, 0
	return out
}

// Matches reports whether e is of node, kind and type; an empty criterion
// matches any.
func (e *Entry) Matches(node, kind, typ string) bool {
	return (node == "" || e.Node == node) && (kind == "" || e.Kind == kind) && (typ == "" || e.Type == typ)
}

// Filter returns the entries matching all non-empty criteria. It counts
// them first, so the result is allocated once at its size.
func (l *Log) Filter(node, kind, typ string) []Entry {
	n := 0
	l.each(func(e *Entry) {
		if e.Matches(node, kind, typ) {
			n++
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]Entry, 0, n)
	l.each(func(e *Entry) {
		if e.Matches(node, kind, typ) {
			out = append(out, *e)
		}
	})
	return out
}

// Times extracts the timestamps of the filtered entries.
func (l *Log) Times(node, kind, typ string) []simtime.Time {
	es := l.Filter(node, kind, typ)
	ts := make([]simtime.Time, len(es))
	for i, e := range es {
		ts[i] = e.At
	}
	return ts
}

// Intervals returns the successive gaps between timestamps.
func Intervals(ts []simtime.Time) []time.Duration {
	if len(ts) < 2 {
		return nil
	}
	out := make([]time.Duration, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out[i-1] = ts[i].Sub(ts[i-1])
	}
	return out
}

// BackoffReport summarizes a retransmission schedule the way the paper's
// tables do: how many retransmissions, whether gaps grew exponentially, and
// the plateau (upper bound) if one was reached.
type BackoffReport struct {
	Retransmissions int
	First           time.Duration   // gap between original send and first retransmit
	Gaps            []time.Duration // successive retransmission gaps
	Exponential     bool            // each pre-plateau gap ~doubles
	Plateau         time.Duration   // 0 if never stabilized
	PlateauReached  bool
}

// AnalyzeBackoff inspects the timestamps of an original transmission
// followed by its retransmissions. tolerance is the allowed relative error
// when checking doubling and plateau equality (e.g. 0.25).
func AnalyzeBackoff(ts []simtime.Time, tolerance float64) BackoffReport {
	r := BackoffReport{Retransmissions: len(ts) - 1}
	if len(ts) < 2 {
		return r
	}
	r.Gaps = Intervals(ts)
	r.First = r.Gaps[0]
	// Find the plateau: a maximal run of near-equal gaps at the tail. A run
	// of at least three gaps is required to call the timeout "stabilized" —
	// two incidentally similar gaps (e.g. Solaris's 42 s then 48 s before
	// the abrupt close) are not an upper bound.
	n := len(r.Gaps)
	plateauStart := n
	for i := n - 1; i > 0; i-- {
		if approxEqual(r.Gaps[i], r.Gaps[i-1], tolerance) {
			plateauStart = i - 1
		} else {
			break
		}
	}
	if plateauStart <= n-3 {
		r.PlateauReached = true
		r.Plateau = r.Gaps[n-1]
	}
	// Check doubling before the plateau.
	r.Exponential = true
	end := plateauStart
	if !r.PlateauReached {
		end = n
	}
	for i := 1; i < end; i++ {
		ratio := float64(r.Gaps[i]) / float64(r.Gaps[i-1])
		if ratio < 2-4*tolerance || ratio > 2+4*tolerance {
			r.Exponential = false
			break
		}
	}
	return r
}

func approxEqual(a, b time.Duration, tol float64) bool {
	if a == b {
		return true
	}
	hi := float64(a)
	lo := float64(b)
	if lo > hi {
		hi, lo = lo, hi
	}
	return (hi-lo)/hi <= tol
}
