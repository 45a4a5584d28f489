package explore

// Shrink minimizes a failing schedule with delta debugging: ddmin over the
// gene list, then per-gene and workload parameter canonicalization. The
// predicate must report whether a candidate still fails (still violates
// the same oracle); it is assumed deterministic — every candidate runs in
// a fresh seeded world. maxRuns bounds predicate invocations; the returned
// count reports how many were spent.
//
// Shrinking is idempotent: re-shrinking a minimal schedule performs only
// no-op probes and returns it unchanged.
func Shrink(s Schedule, failing func(Schedule) bool, maxRuns int) (Schedule, int) {
	runs := 0
	budgetLeft := func() bool { return runs < maxRuns }
	check := func(c Schedule) bool {
		if !budgetLeft() {
			return false
		}
		runs++
		return failing(c)
	}

	// Phase 1: ddmin over genes. Try ever-finer chunk removals until no
	// chunk of any size can go.
	genes := append([]Gene(nil), s.Genes...)
	chunk := len(genes) / 2
	for chunk >= 1 && budgetLeft() {
		removedAny := false
		for start := 0; start+chunk <= len(genes) && budgetLeft(); {
			cand := s
			cand.Genes = append(append([]Gene(nil), genes[:start]...), genes[start+chunk:]...)
			if check(cand) {
				genes = cand.Genes
				removedAny = true
				// Same start now addresses the next chunk; don't advance.
			} else {
				start += chunk
			}
		}
		if !removedAny || chunk > len(genes) {
			chunk /= 2
		}
	}
	s.Genes = genes

	// Phase 2: canonicalize each surviving gene — deterministic, always
	// probing toward the simplest value first.
	for i := range s.Genes {
		if !budgetLeft() {
			break
		}
		s.Genes[i] = shrinkGene(s, i, check)
	}

	// Phase 3: shrink the workload. Halve the warm-up and the tail while
	// the failure persists.
	for s.Warmup > 1 && budgetLeft() {
		cand := s
		cand.Warmup = s.Warmup / 2
		if !check(cand) {
			break
		}
		s = cand
	}
	minTail := timeQuantumMS
	for s.TailMS/2 >= minTail && budgetLeft() {
		cand := s
		cand.TailMS = quantize(s.TailMS / 2)
		if !check(cand) {
			break
		}
		s = cand
	}
	return s, runs
}

// shrinkGene simplifies one gene field-by-field, keeping each change only
// if the schedule still fails.
func shrinkGene(s Schedule, i int, check func(Schedule) bool) Gene {
	g := s.Genes[i]
	try := func(cand Gene) bool {
		if cand == g {
			return false
		}
		next := s
		next.Genes = append([]Gene(nil), s.Genes...)
		next.Genes[i] = cand
		if check(next) {
			g = cand
			s.Genes[i] = cand
			return true
		}
		return false
	}

	// Probabilistic genes become deterministic.
	if g.Prob > 0 && g.Prob < 1 {
		c := g
		c.Prob = 1
		try(c)
	}
	// Pull the activation earlier (halving toward 0).
	for g.AtMS > 0 {
		c := g
		c.AtMS = quantize(g.AtMS / 2)
		if c.AtMS == g.AtMS || !try(c) {
			break
		}
	}
	// Narrow the window (halving, floor one quantum).
	for g.DurMS > timeQuantumMS {
		c := g
		c.DurMS = quantize(g.DurMS / 2)
		if c.DurMS == g.DurMS || !try(c) {
			break
		}
	}
	// Shrink the parameter (delay/first-N/corrupt offset) toward its
	// smallest meaningful value.
	if g.Kind == GeneFault {
		floor := g.Fault.Floor()
		for g.Param > floor {
			c := g
			c.Param = g.Param / 2
			if c.Param < floor {
				c.Param = floor
			}
			if c.Param == g.Param || !try(c) {
				break
			}
		}
		// A narrower type selector reads better than "*" in a repro, but
		// widening loses information — only try specializing "*" away is
		// impossible without observation, so leave Type alone.
	}
	return g
}
