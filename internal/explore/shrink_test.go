package explore

import (
	"testing"

	"pfi/internal/core"
	"pfi/internal/fault"
)

// coreGenes are the two genes a synthetic failure depends on; everything
// else in the haystack is noise the shrinker must strip.
func coreGenes() (Gene, Gene) {
	a := Gene{Kind: GeneFault, Node: "vendor", Dir: core.Send, Fault: fault.Corrupt, Type: "DATA", AtMS: 4000, DurMS: 8000, Param: 20, Prob: 1}
	b := Gene{Kind: GeneFault, Node: "xkernel", Dir: core.Receive, Fault: fault.Drop, Type: "ACK", AtMS: 12_000, DurMS: 4000, Prob: 1}
	return a, b
}

// haystack builds a 50-gene schedule hiding the two core genes at fixed
// positions among deterministic filler.
func haystack() Schedule {
	a, b := coreGenes()
	s := Schedule{World: WorldTCP, Warmup: 4, TailMS: 160_000}
	faults := []fault.Kind{fault.Drop, fault.Delay, fault.Duplicate, fault.Reorder}
	for i := 0; i < 50; i++ {
		switch i {
		case 17:
			s.Genes = append(s.Genes, a)
		case 42:
			s.Genes = append(s.Genes, b)
		default:
			s.Genes = append(s.Genes, Gene{
				Kind:  GeneFault,
				Node:  tcpNodes[i%2],
				Dir:   core.Direction(1 + i%2),
				Fault: faults[i%len(faults)],
				Type:  tcpTypes[i%len(tcpTypes)],
				AtMS:  quantize(i * 700),
				DurMS: quantize(3000 + i*300),
				Param: map[fault.Kind]int{fault.Delay: 1500}[faults[i%len(faults)]],
				Prob:  1,
			})
		}
	}
	return s
}

// hasCore reports whether both core genes survive (matching on the
// identifying fields, not the shrinkable timing/params).
func hasCore(s Schedule) bool {
	a, b := coreGenes()
	match := func(want, g Gene) bool {
		return g.Kind == want.Kind && g.Node == want.Node && g.Dir == want.Dir &&
			g.Fault == want.Fault && g.Type == want.Type
	}
	var foundA, foundB bool
	for _, g := range s.Genes {
		foundA = foundA || match(a, g)
		foundB = foundB || match(b, g)
	}
	return foundA && foundB
}

// TestShrinkFindsCore: ddmin strips a 50-gene haystack down to exactly the
// two genes the failure predicate depends on.
func TestShrinkFindsCore(t *testing.T) {
	min, runs := Shrink(haystack(), hasCore, 2000)
	if len(min.Genes) != 2 {
		t.Fatalf("shrunk to %d genes, want 2 (spent %d runs): %v", len(min.Genes), runs, min.Genes)
	}
	if !hasCore(min) {
		t.Fatalf("shrunk schedule lost the failing core: %v", min.Genes)
	}
	// The workload shrinks to its floor too: the predicate ignores it.
	if min.Warmup != 1 {
		t.Errorf("warmup = %d, want 1", min.Warmup)
	}
	if runs > 500 {
		t.Errorf("ddmin spent %d runs on a 50-gene haystack; want well under 500", runs)
	}
}

// TestShrinkIdempotent: re-shrinking a minimal schedule returns it
// unchanged.
func TestShrinkIdempotent(t *testing.T) {
	min, _ := Shrink(haystack(), hasCore, 2000)
	again, _ := Shrink(min, hasCore, 2000)
	if again.Key() != min.Key() {
		t.Fatalf("shrink not idempotent:\nfirst:  %s\nsecond: %s", min.Key(), again.Key())
	}
}

// TestShrinkBudget: predicate invocations never exceed maxRuns, and an
// exhausted budget still returns a schedule satisfying the predicate.
func TestShrinkBudget(t *testing.T) {
	calls := 0
	counting := func(s Schedule) bool { calls++; return hasCore(s) }
	min, runs := Shrink(haystack(), counting, 25)
	if calls != runs {
		t.Errorf("reported %d runs but predicate saw %d calls", runs, calls)
	}
	if runs > 25 {
		t.Errorf("budget 25 exceeded: %d runs", runs)
	}
	if !hasCore(min) {
		t.Error("budget-limited shrink returned a non-failing schedule")
	}
}

// TestShrinkCanonicalizesParams: per-gene parameter shrinking pulls a
// probabilistic, late, long window toward the deterministic minimum.
func TestShrinkCanonicalizesParams(t *testing.T) {
	g := Gene{Kind: GeneFault, Node: "vendor", Dir: core.Send, Fault: fault.Delay, Type: "DATA",
		AtMS: 16_000, DurMS: 32_000, Param: 6000, Prob: 0.5}
	s := Schedule{World: WorldTCP, Warmup: 2, TailMS: 150_000, Genes: []Gene{g}}
	// The "failure" only needs a vendor-send Delay gene to exist at all.
	pred := func(c Schedule) bool {
		for _, g := range c.Genes {
			if g.Kind == GeneFault && g.Fault == fault.Delay && g.Node == "vendor" {
				return true
			}
		}
		return false
	}
	min, _ := Shrink(s, pred, 1000)
	if len(min.Genes) != 1 {
		t.Fatalf("want 1 gene, got %v", min.Genes)
	}
	got := min.Genes[0]
	if got.Prob != 1 {
		t.Errorf("Prob = %g, want canonicalized to 1", got.Prob)
	}
	if got.AtMS != 0 {
		t.Errorf("AtMS = %d, want pulled to 0", got.AtMS)
	}
	if got.DurMS != timeQuantumMS {
		t.Errorf("DurMS = %d, want floor %d", got.DurMS, timeQuantumMS)
	}
	if got.Param != 500 {
		t.Errorf("Param = %d, want delay floor 500", got.Param)
	}
}
