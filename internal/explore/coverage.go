package explore

import (
	"fmt"

	"pfi/internal/trace"
)

// mapBits is the coverage bitmap size. 64Ki buckets keeps collision rates
// negligible for the few thousand distinct tuples a protocol world emits.
const mapBits = 1 << 16

const mapWords = mapBits / 64

// Coverage is a fixed-size bitmap over hashed trace features. The zero
// value is an empty map.
type Coverage struct {
	bits [mapWords]uint64
}

// set marks one hashed feature.
func (c *Coverage) set(h uint64) {
	h &= mapBits - 1
	c.bits[h/64] |= 1 << (h % 64)
}

// Count returns the number of set bits.
func (c *Coverage) Count() int {
	n := 0
	for _, w := range c.bits {
		for ; w != 0; w &= w - 1 {
			n++
		}
	}
	return n
}

// Merge ORs other into c and reports how many bits were new.
func (c *Coverage) Merge(other *Coverage) int {
	fresh := 0
	for i, w := range other.bits {
		nw := w &^ c.bits[i]
		for ; nw != 0; nw &= nw - 1 {
			fresh++
		}
		c.bits[i] |= w
	}
	return fresh
}

// Bits calls fn for every set bit index.
func (c *Coverage) Bits(fn func(bit int)) {
	for i, w := range c.bits {
		for w != 0 {
			b := w & -w
			bit := 0
			for m := b; m != 1; m >>= 1 {
				bit++
			}
			fn(i*64 + bit)
			w &^= b
		}
	}
}

// CovWord is one non-zero word of a coverage bitmap: W holds feature bits
// [64*I, 64*I+64). A []CovWord is the sparse form a bitmap is journaled and
// shipped over the fleet wire in.
type CovWord struct {
	I int    `json:"i"`
	W uint64 `json:"w"`
}

// Sparse returns c's non-zero words in index order (nil for a nil map).
func (c *Coverage) Sparse() []CovWord {
	if c == nil {
		return nil
	}
	var out []CovWord
	for i, w := range c.bits {
		if w != 0 {
			out = append(out, CovWord{I: i, W: w})
		}
	}
	return out
}

// CoverageFrom rebuilds a bitmap from its sparse form. An out-of-range word
// index means a corrupt journal or a hostile fleet result, and is an error.
func CoverageFrom(words []CovWord) (*Coverage, error) {
	cov := &Coverage{}
	for _, cw := range words {
		if cw.I < 0 || cw.I >= mapWords {
			return nil, fmt.Errorf("explore: coverage word index %d out of [0,%d)", cw.I, mapWords)
		}
		cov.bits[cw.I] |= cw.W
	}
	return cov, nil
}

// Fingerprint hashes the bitmap into a short stable hex string.
func (c *Coverage) Fingerprint() string {
	h := uint64(14695981039346656037)
	for _, w := range c.bits {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= 1099511628211
		}
	}
	return fmt.Sprintf("%016x", h)
}

// countBucket collapses an occurrence count into an AFL-style log bucket,
// so "3 retransmits" and "11 retransmits" light different bits but 11 and
// 12 do not.
func countBucket(n int) int {
	switch {
	case n <= 3:
		return n
	case n <= 7:
		return 4
	case n <= 15:
		return 5
	case n <= 31:
		return 6
	case n <= 127:
		return 7
	default:
		return 8
	}
}

func hashParts(parts ...string) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= 0x1f // separator
		h *= 1099511628211
	}
	return h
}

// CoverageOf hashes a run's trace into its coverage map. Three feature
// classes:
//
//   - tuples: (node, event-kind, message-type)
//   - tuple count buckets: the same tuple at log-bucketed multiplicity
//   - transitions: per-node (previous event-kind -> event-kind) edges,
//     the state-transition signal of the trace
func CoverageOf(entries []trace.Entry) *Coverage {
	cov := &Coverage{}
	counts := map[uint64]int{}
	prevKind := map[string]string{}
	for _, e := range entries {
		t := hashParts("t", e.Node, e.Kind, e.Type)
		cov.set(t)
		counts[t]++
		if prev, ok := prevKind[e.Node]; ok {
			cov.set(hashParts("x", e.Node, prev, e.Kind))
		}
		prevKind[e.Node] = e.Kind
	}
	for t, n := range counts {
		cov.set(t ^ uint64(0xb1a9<<32) ^ uint64(countBucket(n)))
	}
	return cov
}
