// Package dist provides the deterministic probability distributions the PFI
// scripts use for probabilistic fault injection (the paper's
// dst_normal/dst_uniform-style utilities).
//
// All randomness flows from a single seeded source per experiment, so every
// "probabilistic" run is replayable.
package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Source is a seeded random source for one experiment. It seeds its
// generator on the first draw: math/rand's generator state is 4.9 KB and
// takes 12–15 µs to fill, and most sources a world builds — one per PFI
// layer, for scripts that may call dst_* — are never drawn from. (The ones
// that are — every started raft node draws its election jitter — are what a
// many-node world pays next: see EXPERIMENTS "A hop that allocates
// nothing".)
type Source struct {
	seed int64
	cnt  *countingSource // nil until the first draw
	rng  *rand.Rand      // draws through cnt
}

// NewSource returns a deterministic source.
func NewSource(seed int64) *Source { return &Source{seed: seed} }

// r returns the generator, seeding it if this is the first draw.
func (s *Source) r() *rand.Rand {
	if s.rng == nil {
		s.cnt = &countingSource{src: rand.NewSource(s.seed).(rand.Source64)}
		s.rng = rand.New(s.cnt)
	}
	return s.rng
}

// countingSource counts raw generator steps so a Source can be rewound to
// any previously observed point. Every distribution below funnels through
// the underlying generator one step at a time (rejection samplers like
// NormFloat64 just take several counted steps), so the step count is the
// complete mutable state of a Source.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { c.src.Seed(seed); c.n = 0 }

// Mark returns the number of generator steps consumed so far — an opaque
// position usable with Rewind. Snapshots store it to rewind probabilistic
// state alongside the rest of a world.
func (s *Source) Mark() uint64 {
	if s.cnt == nil {
		return 0
	}
	return s.cnt.n
}

// Rewind returns the source to an earlier Mark position, so draws replay
// exactly as they did the first time. Rewinding to the current position is
// free; a source that never drew (the common conformance case) rewinds to
// 0 without ever seeding. Forward positions are reached by advancing;
// earlier ones by reseeding in place and replaying mark steps.
func (s *Source) Rewind(mark uint64) {
	if mark == s.Mark() {
		return
	}
	s.r()
	if s.cnt.n > mark {
		s.cnt.Seed(s.seed)
	}
	for s.cnt.n < mark {
		s.cnt.Uint64()
	}
}

// Uniform returns a value in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		lo, hi = hi, lo
	}
	return lo + s.r().Float64()*(hi-lo)
}

// Normal returns a draw from N(mean, variance) — the paper's
// dst_normal mean var.
func (s *Source) Normal(mean, variance float64) float64 {
	if variance < 0 {
		variance = 0
	}
	return mean + s.r().NormFloat64()*math.Sqrt(variance)
}

// Exponential returns a draw with the given mean (>0).
func (s *Source) Exponential(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return s.r().ExpFloat64() * mean
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r().Float64() < p
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (s *Source) Intn(n int) int { return s.r().Intn(n) }

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
		return s.r().Intn(len(weights))
	}
	x := s.r().Float64() * total
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

// Int63 returns a uniform non-negative int64.
func (s *Source) Int63() int64 { return s.r().Int63() }

// Float64 returns a uniform draw in [0,1).
func (s *Source) Float64() float64 { return s.r().Float64() }

// Shuffle permutes indexes [0,n) via swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) { s.r().Shuffle(n, swap) }

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

// String describes the source for diagnostics.
func (s *Source) String() string { return fmt.Sprintf("dist.Source(%p)", s) }
