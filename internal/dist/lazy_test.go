package dist

import (
	"math"
	"math/rand"
	"testing"
)

// eager is the definition a Source is held to: math/rand seeded up front,
// every distribution drawn straight from it.
func eager(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// eagerAt is eager advanced by n generator steps.
func eagerAt(seed int64, n uint64) *rand.Rand {
	r := eager(seed)
	for i := uint64(0); i < n; i++ {
		r.Uint64()
	}
	return r
}

// splitSeed is the seed Split derives, written out independently.
func splitSeed(label string, parentDraw int64) int64 {
	h := int64(1469598103934665603)
	for _, c := range []byte(label) {
		h = (h ^ int64(c)) * 1099511628211
	}
	return h ^ parentDraw
}

// sameDraws pulls a mix of every distribution from s and from want and
// fails on the first difference.
func sameDraws(t *testing.T, what string, s *Source, want *rand.Rand, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		switch i % 6 {
		case 0:
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: draw %d: Int63 %d, reference %d", what, i, g, w)
			}
		case 1:
			if g, w := s.Uniform(0, 1), want.Float64(); g != w {
				t.Fatalf("%s: draw %d: Uniform %v, reference %v", what, i, g, w)
			}
		case 2:
			if g, w := s.Intn(3000), want.Intn(3000); g != w {
				t.Fatalf("%s: draw %d: Intn %d, reference %d", what, i, g, w)
			}
		case 3: // a rejection sampler: several generator steps per draw
			if g, w := s.Normal(0, 1), want.NormFloat64(); g != w {
				t.Fatalf("%s: draw %d: Normal %v, reference %v", what, i, g, w)
			}
		case 4:
			if g, w := s.Exponential(1), want.ExpFloat64(); g != w {
				t.Fatalf("%s: draw %d: Exponential %v, reference %v", what, i, g, w)
			}
		case 5: // clamped probabilities among them, which draw nothing
			p := probs[i/6%len(probs)]
			if g, w := s.Bernoulli(p), refBernoulli(want, p); g != w {
				t.Fatalf("%s: draw %d: Bernoulli(%v) %v, reference %v", what, i, p, g, w)
			}
		}
	}
}

// probs are the Bernoulli probabilities the tests draw with: two clamped
// low, two clamped high, and three that draw.
var probs = []float64{0.3, -0.5, 0, 0.999, 1, 2, 1e-9}

// refBernoulli is Bernoulli written against math/rand: p is clamped to
// [0,1] without a draw, and otherwise decides ref.Float64() < p.
func refBernoulli(ref *rand.Rand, p float64) bool {
	if p <= 0 || p >= 1 {
		return p >= 1
	}
	return ref.Float64() < p
}

// TestStreamsMatchEagerSeeding: a Source draws math/rand's stream. For a
// table of seeds — math/rand's special cases among them — and labels,
// draws after NewSource (past the register's build at step 274 and its
// first wrap at 607), after Split, and after Mark/Rewind in every direction
// and on both sides of step 273 — including to 0 on a source that never
// drew, and forward on one that never drew — are the draws of an eagerly
// seeded math/rand.
func TestStreamsMatchEagerSeeding(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 42, 1995, -7, 1 << 40, int32max, -1, 89482311, math.MinInt64} {
		sameDraws(t, "NewSource", NewSource(seed), eager(seed), 1500)

		for _, label := range []string{"", "raft:r1", "raft:r250", "node:m3", "link-a"} {
			parent, parentRef := NewSource(seed), eager(seed)
			for k := 0; k < 3; k++ { // successive splits draw successive parent values
				child := parent.Split(label)
				sameDraws(t, "Split "+label, child, eager(splitSeed(label, parentRef.Int63())), 50)
			}
			sameDraws(t, "parent after Split", parent, parentRef, 20)
		}

		// Backwards: replay from a mark taken mid-stream, before and after
		// the register exists.
		for _, prefix := range []int{30, 300} {
			s, ref := NewSource(seed), eager(seed)
			sameDraws(t, "prefix", s, ref, prefix)
			mark := s.Mark()
			first := make([]float64, 40)
			for i := range first {
				first[i] = s.Normal(10, 4)
			}
			end := s.Mark()
			s.Rewind(mark)
			for i, w := range first {
				if g := s.Normal(10, 4); g != w {
					t.Fatalf("seed %d: replay draw %d = %v, first time %v", seed, i, g, w)
				}
			}
			// Backwards to 0, then forwards past everything drawn so far.
			s.Rewind(0)
			sameDraws(t, "after Rewind(0)", s, eager(seed), 30)
			s.Rewind(end + 17)
			sameDraws(t, "after forward Rewind", s, eagerAt(seed, end+17), 30)
		}

		// A source that never drew: Rewind(0) is free, a forward Rewind
		// only counts, or builds the register past step 273.
		never := NewSource(seed)
		never.Rewind(never.Mark())
		never.Rewind(0)
		if never.reg != nil || never.Mark() != 0 {
			t.Fatal("Rewind(0) on a never-drawn source built a register")
		}
		sameDraws(t, "never-drawn, rewound to 0", never, eager(seed), 30)
		for _, at := range []uint64{5, rngTap, rngTap + 1, rngLen + 3} {
			skip := NewSource(seed)
			skip.Rewind(at)
			if skip.Mark() != at {
				t.Fatalf("forward Rewind(%d) on a never-drawn source left mark %d", at, skip.Mark())
			}
			sameDraws(t, "never-drawn, rewound forward", skip, eagerAt(seed, at), 30)
		}
	}
}

// TestUndrawnSourceHoldsNoGenerator: a source that draws up to 273 times —
// every source a raft world draws from — allocates the Source and nothing
// else, however it is marked and rewound within those steps. (When each
// source seeded a math/rand generator, its first draw cost 3 objects and
// 5,440 bytes.) The 274th step builds the register, once.
func TestUndrawnSourceHoldsNoGenerator(t *testing.T) {
	var s *Source
	allocs := testing.AllocsPerRun(200, func() {
		s = NewSource(1)
		s.Rewind(s.Mark())
		s.Rewind(0)
		for s.Mark() < rngTap {
			s.Intn(1000)
		}
		s.Rewind(100)
		s.Rewind(rngTap)
	})
	if allocs > 1 || s.reg != nil {
		t.Fatalf("a source drawn %d times costs %.1f objects (register built: %v), want 1 and none",
			rngTap, allocs, s.reg != nil)
	}
	if s.Int63(); s.reg == nil || s.Mark() != rngTap+1 {
		t.Fatalf("step %d did not build the register", rngTap+1)
	}
	if allocs := testing.AllocsPerRun(200, func() { s.Rewind(100); s.Rewind(rngLen * 2) }); allocs != 0 {
		t.Fatalf("rewinding across step %d with a register cost %.1f objects, want 0", rngTap, allocs)
	}
}

// countingSource counts the steps the reference takes, so the fuzz target
// can hold Mark to it as well as every value.
type countingSource struct {
	src rand.Source64
	n   uint64
}

func (c *countingSource) Int63() int64    { c.n++; return c.src.Int63() }
func (c *countingSource) Uint64() uint64  { c.n++; return c.src.Uint64() }
func (c *countingSource) Seed(seed int64) { panic("unused") }

// FuzzSourceMatchesMathRand: every draw, Mark and Rewind of a Source is
// that of an eagerly seeded math/rand. Each byte of ops is one operation,
// its kind op%9 and its argument op/9 — a draw from one of the seven
// distributions, a Mark, or a Rewind to a recorded mark or to a position
// either side of step 273 (where the register is built) and 607 (where it
// first wraps).
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, -1, int32max, 89482311} {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 17, 26, 35, 44, 53, 62, 71, 16, 25, 34, 43, 52, 61})
	}
	weights := [][]float64{{1, 2, 3}, {0, 0}, {0.5, 0, 4, 1e-3}}
	positions := []uint64{0, 1, rngTap - 1, rngTap, rngTap + 1, rngLen - 1, rngLen, rngLen + 1}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		s := NewSource(seed)
		cnt := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
		ref := rand.New(cnt)
		var marks []uint64
		for i, op := range ops {
			arg := int(op / 9)
			switch op % 9 {
			case 0:
				if g, w := s.Int63(), ref.Int63(); g != w {
					t.Fatalf("op %d: Int63 %d, reference %d", i, g, w)
				}
			case 1:
				n := 1 + arg*arg*arg*arg*arg*arg*100 // past 2³¹ (Intn's second path) from arg 17
				if g, w := s.Intn(n), ref.Intn(n); g != w {
					t.Fatalf("op %d: Intn(%d) %d, reference %d", i, n, g, w)
				}
			case 2:
				if g, w := s.Uniform(0, 1), ref.Float64(); g != w {
					t.Fatalf("op %d: Uniform %v, reference %v", i, g, w)
				}
			case 3:
				if g, w := s.Normal(0, 1), ref.NormFloat64(); g != w {
					t.Fatalf("op %d: Normal %v, reference %v", i, g, w)
				}
			case 4:
				if g, w := s.Exponential(1), ref.ExpFloat64(); g != w {
					t.Fatalf("op %d: Exponential %v, reference %v", i, g, w)
				}
			case 5:
				w := weights[arg%len(weights)]
				if g, want := s.Weighted(w), refWeighted(ref, w); g != want {
					t.Fatalf("op %d: Weighted(%v) %d, reference %d", i, w, g, want)
				}
			case 6:
				marks = append(marks, s.Mark())
			case 7: // a clamped p must take no step: the Mark check below
				p := probs[arg%len(probs)]
				if g, w := s.Bernoulli(p), refBernoulli(ref, p); g != w {
					t.Fatalf("op %d: Bernoulli(%v) %v, reference %v", i, p, g, w)
				}
			case 8:
				var to uint64
				if arg < len(positions) || len(marks) == 0 {
					to = positions[arg%len(positions)]
				} else {
					to = marks[arg%len(marks)]
				}
				s.Rewind(to)
				cnt = &countingSource{src: rand.NewSource(seed).(rand.Source64)}
				ref = rand.New(cnt)
				for cnt.n < to {
					cnt.Uint64()
				}
			}
			if s.Mark() != cnt.n {
				t.Fatalf("op %d: Mark %d, reference took %d steps", i, s.Mark(), cnt.n)
			}
		}
	})
}

// refWeighted is Weighted over finite non-negative weights, drawn from r.
func refWeighted(r *rand.Rand, w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	if total == 0 {
		return r.Intn(len(w))
	}
	x := r.Float64() * total
	for i, v := range w {
		if v == 0 {
			continue
		}
		if x -= v; x < 0 {
			return i
		}
	}
	for i := len(w) - 1; ; i-- {
		if w[i] > 0 {
			return i
		}
	}
}
