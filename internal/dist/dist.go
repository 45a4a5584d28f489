// Package dist provides the deterministic probability distributions the PFI
// scripts use for probabilistic fault injection (the paper's
// dst_normal/dst_uniform-style utilities).
//
// All randomness flows from a single seeded source per experiment, so every
// "probabilistic" run is replayable. A Source draws exactly the values
// math/rand would for its seed. The generator is ours (rng.go): math/rand's,
// seeded one word at a time, so an undrawn source is free and a position is
// a step count. The distributions are math/rand's: each Source is the
// rand.Source64 behind its own rand.Rand, and every draw goes through it.
package dist

import (
	"math"
	"math/rand"
)

// Source is a seeded random source for one experiment. A draw costs what
// it draws: each of a source's first 273 generator steps is computed from
// the seed alone (six multiplications), so a source holds no generator
// state until its 274th step, and only a long stream — the fuzzer's root,
// say — ever builds math/rand's 4.9 KB register. Most sources draw far less
// or never: one per PFI layer, for scripts that may call dst_*, and one per
// started raft node, for its election jitter.
//
// A Source is a rand.Source64, and it draws through r, a rand.Rand over
// itself. So a Source must never be copied by value: the copy's r would
// still step the original. Use *Source only.
type Source struct {
	x   uint32    // the seed, reduced as math/rand reduces it
	n   uint64    // generator steps taken: the position Mark reports
	reg *register // nil until step 274; stale while n <= rngTap
	r   rand.Rand // math/rand's draws over this source; set once by NewSource
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a deterministic source.
func NewSource(seed int64) *Source {
	s := &Source{x: seedState(seed)}
	s.r = *rand.New(s)
	return s
}

// Mark returns the number of generator steps consumed so far — an opaque
// position usable with Rewind. Every distribution below funnels through the
// generator one step at a time (rejection samplers like Normal just take
// several), so the step count is the complete mutable state of a Source.
// That holds because no method here reaches r.Read, the one rand.Rand
// method that buffers bytes between calls. Snapshots store the mark to
// rewind probabilistic state alongside the rest of a world.
func (s *Source) Mark() uint64 { return s.n }

// Rewind moves the source to a Mark position, so draws replay exactly as
// they did the first time. A position at or under 273 steps needs no
// generator state, so rewinding there only sets the count; a later one is
// reached by stepping on from where the source is, or, if that is past it,
// from step 273.
func (s *Source) Rewind(mark uint64) {
	if mark < s.n || s.n < rngTap {
		s.n = min(mark, rngTap)
	}
	for s.n < mark {
		s.next()
	}
}

// Uniform returns a value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + s.r.Float64()*(hi-lo)
}

// Normal returns a draw from N(mean, variance) — the paper's
// dst_normal mean var.
func (s *Source) Normal(mean, variance float64) float64 {
	if variance < 0 {
		variance = 0
	}
	return mean + s.r.NormFloat64()*math.Sqrt(variance)
}

// Exponential returns a draw with the given mean (>0).
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r.ExpFloat64() * mean
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Weighted returns an index in [0, len(weights)) drawn with probability
// proportional to weights[i]. Non-positive weights contribute no mass; if
// the total mass is zero (or weights is empty after clamping) the draw
// falls back to uniform. It panics on an empty slice, mirroring Intn.
func (s *Source) Weighted(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 && !math.IsInf(w, 1) && !math.IsNaN(w) {
			total += w
		}
	}
	if total <= 0 {
		return s.Intn(len(weights))
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		if w <= 0 || math.IsInf(w, 1) || math.IsNaN(w) {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	// Float64 rounding can leave x at ~0; return the last positive weight.
	for i := len(weights) - 1; i >= 0; i-- {
		if weights[i] > 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Source) Intn(n int) int { return s.r.Intn(n) }

// Split derives an independent child source; children with distinct labels
// are decorrelated while remaining reproducible. It draws one value from s.
func (s *Source) Split(label string) *Source {
	h := int64(1469598103934665603) // FNV offset basis
	for i := 0; i < len(label); i++ {
		h ^= int64(label[i])
		h *= 1099511628211
	}
	return NewSource(h ^ s.Int63())
}
