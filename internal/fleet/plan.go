package fleet

// Span is one contiguous shard of an index space: cells [Lo, Hi).
type Span struct {
	Lo, Hi int
}

// Plan splits n cells into at most shards contiguous spans that cover
// 0..n-1 exactly once, in order. Sizes differ by at most one, with the
// larger spans first, so any prefix of the plan is as balanced as the
// whole. Degenerate inputs stay sane: shards < 1 plans one span, n == 0
// plans none, and shards > n plans one single-cell span per cell.
//
// The plan is a pure function of (n, shards) — it never consults the
// live worker pool, so a pool that shrinks (or grows) mid-run changes
// only who executes a span, never what the spans are. Loss recovery
// reassigns spans; it never replans.
func Plan(n, shards int) []Span {
	if n <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	base, rem := n/shards, n%shards
	out := make([]Span, 0, shards)
	lo := 0
	for i := 0; i < shards; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Span{Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}
