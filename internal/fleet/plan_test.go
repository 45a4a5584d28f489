package fleet

import (
	"reflect"
	"testing"
)

// TestPlan pins the shard planner's shape on every edge the coordinator
// can hand it: empty matrices, single cells, more shards than cells, and
// uneven divisions.
func TestPlan(t *testing.T) {
	tests := []struct {
		name      string
		n, shards int
		want      []Span
	}{
		{"empty matrix", 0, 4, nil},
		{"negative n", -3, 4, nil},
		{"one cell one shard", 1, 1, []Span{{0, 1}}},
		{"one cell many shards", 1, 8, []Span{{0, 1}}},
		{"cells fewer than shards", 3, 8, []Span{{0, 1}, {1, 2}, {2, 3}}},
		{"exact division", 8, 4, []Span{{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
		{"uneven division", 10, 4, []Span{{0, 3}, {3, 6}, {6, 8}, {8, 10}}},
		{"zero shards clamps to one", 5, 0, []Span{{0, 5}}},
		{"negative shards clamps to one", 5, -2, []Span{{0, 5}}},
		{"single shard", 7, 1, []Span{{0, 7}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Plan(tt.n, tt.shards)
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("Plan(%d, %d) = %v, want %v", tt.n, tt.shards, got, tt.want)
			}
		})
	}
}

// TestPlanCoversExactly sweeps a grid of (n, shards) and checks the
// invariants the merge depends on: spans are contiguous, cover [0, n)
// exactly once, and sizes differ by at most one with larger spans first.
func TestPlanCoversExactly(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for shards := -1; shards <= 12; shards++ {
			spans := Plan(n, shards)
			if n <= 0 {
				if spans != nil {
					t.Fatalf("Plan(%d, %d) = %v, want nil", n, shards, spans)
				}
				continue
			}
			lo, min, max := 0, n+1, 0
			for _, sp := range spans {
				if sp.Lo != lo {
					t.Fatalf("Plan(%d, %d): span %v not contiguous at %d", n, shards, sp, lo)
				}
				size := sp.Hi - sp.Lo
				if size <= 0 {
					t.Fatalf("Plan(%d, %d): empty span %v", n, shards, sp)
				}
				if size < min {
					min = size
				}
				if size > max {
					max = size
				}
				lo = sp.Hi
			}
			if lo != n {
				t.Fatalf("Plan(%d, %d) covers [0,%d), want [0,%d)", n, shards, lo, n)
			}
			if max-min > 1 {
				t.Fatalf("Plan(%d, %d): span sizes range %d..%d, want spread <= 1", n, shards, min, max)
			}
			for i := 1; i < len(spans); i++ {
				if spans[i].Hi-spans[i].Lo > spans[i-1].Hi-spans[i-1].Lo {
					t.Fatalf("Plan(%d, %d): span %d larger than span %d", n, shards, i, i-1)
				}
			}
		}
	}
}

// TestPlanIgnoresPoolSize pins the replanning contract: the plan is a
// pure function of (n, shards) — a worker pool that shrinks or grows
// mid-run can change who executes a span, never what the spans are.
func TestPlanIgnoresPoolSize(t *testing.T) {
	first := Plan(36, 8)
	for i := 0; i < 5; i++ {
		if got := Plan(36, 8); !reflect.DeepEqual(got, first) {
			t.Fatalf("Plan(36, 8) unstable: %v then %v", first, got)
		}
	}
}
