package dist

import (
	"math/rand"
	"testing"
)

// eager is the definition a Source is held to: math/rand seeded up front,
// every distribution drawn straight from it.
func eager(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

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
		switch i % 5 {
		case 0:
			if g, w := s.Int63(), want.Int63(); g != w {
				t.Fatalf("%s: draw %d: Int63 %d, reference %d", what, i, g, w)
			}
		case 1:
			if g, w := s.Float64(), want.Float64(); g != w {
				t.Fatalf("%s: draw %d: Float64 %v, reference %v", what, i, g, w)
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
		}
	}
}

// TestStreamsMatchEagerSeeding: seeding on the first draw changes no
// stream. For a table of seeds and labels, draws after NewSource, after
// Split, and after Mark/Rewind in every direction — including to 0 on a
// source that never drew, and forward on one that never drew — are the
// draws of an eagerly seeded math/rand.
func TestStreamsMatchEagerSeeding(t *testing.T) {
	for _, seed := range []int64{0, 1, 2, 42, 1995, -7, 1 << 40} {
		sameDraws(t, "NewSource", NewSource(seed), eager(seed), 200)

		for _, label := range []string{"", "raft:r1", "raft:r250", "node:m3", "link-a"} {
			parent, parentRef := NewSource(seed), eager(seed)
			for k := 0; k < 3; k++ { // successive splits draw successive parent values
				child := parent.Split(label)
				if child.rng != nil {
					t.Fatal("Split seeded the child before its first draw")
				}
				sameDraws(t, "Split "+label, child, eager(splitSeed(label, parentRef.Int63())), 50)
			}
			sameDraws(t, "parent after Split", parent, parentRef, 20)
		}

		// Backwards: replay from a mark taken mid-stream.
		s, ref := NewSource(seed), eager(seed)
		sameDraws(t, "prefix", s, ref, 30)
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
		fwd := eager(seed)
		for i := uint64(0); i < end+17; i++ {
			fwd.Uint64()
		}
		sameDraws(t, "after forward Rewind", s, fwd, 30)

		// A source that never drew: Rewind(0) is free, a forward Rewind
		// seeds and skips.
		never := NewSource(seed)
		never.Rewind(never.Mark())
		never.Rewind(0)
		if never.rng != nil || never.Mark() != 0 {
			t.Fatal("Rewind(0) on a never-drawn source seeded it")
		}
		sameDraws(t, "never-drawn, rewound to 0", never, eager(seed), 30)
		skip := NewSource(seed)
		skip.Rewind(5)
		if skip.Mark() != 5 {
			t.Fatalf("forward Rewind on a never-drawn source left mark %d", skip.Mark())
		}
		skipRef := eager(seed)
		for i := 0; i < 5; i++ {
			skipRef.Uint64()
		}
		sameDraws(t, "never-drawn, rewound forward", skip, skipRef, 30)
	}
}

// TestUndrawnSourceHoldsNoGenerator: building a source, marking it and
// rewinding it to where it is — what a world does for every PFI layer whose
// script never calls dst_* — allocates the 24-byte Source and not the
// 4.9 KB generator state behind it.
func TestUndrawnSourceHoldsNoGenerator(t *testing.T) {
	var s *Source
	allocs := testing.AllocsPerRun(200, func() {
		s = NewSource(1)
		s.Rewind(s.Mark())
		s.Rewind(0)
	})
	if allocs > 1 || s.rng != nil || s.cnt != nil {
		t.Fatalf("an undrawn source costs %.1f objects (generator built: %v), want 1 and none", allocs, s.rng != nil)
	}
	s.Intn(10)
	if s.rng == nil || s.Mark() != 1 {
		t.Fatal("the first draw did not seed the source")
	}
}
