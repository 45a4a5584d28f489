package explore

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"

	"pfi/internal/campaign"
	"pfi/internal/dist"
	"pfi/internal/harden"
	"pfi/internal/journal"
	"pfi/internal/tcp"
)

// Options configures a fuzzing run.
type Options struct {
	// Seed drives every random decision; the same seed replays the same
	// exploration bit-for-bit at any worker count.
	Seed int64
	// Budget is the number of candidate evaluations (shrink evaluations
	// are accounted separately in Report.ShrinkRuns).
	Budget int
	// Workers is the evaluation fan-out (<=1: serial).
	Workers int
	// BatchSize is the generation size: candidates per deterministic
	// derive-evaluate-merge cycle (default 32).
	BatchSize int
	// Profile is the default vendor profile for TCP worlds whose genome
	// does not pin one (zero value: SunOS 4.1.3).
	Profile tcp.Profile
	// OutDir, when non-empty, is where minimized repro scenarios and
	// golden traces are written (OutDir/found_*.pfi, OutDir/golden/).
	OutDir string
	// QuarantineDir, when non-empty, is where deterministic contained
	// failures (tool-fault, livelock, budget-exceeded) are written as
	// headered quarantine repros (QuarantineDir/quarantine_*.pfi). These
	// cannot pass as conformance tests, so they never land in OutDir.
	QuarantineDir string
	// ShrinkBudget bounds predicate evaluations per finding (default 300).
	ShrinkBudget int
	// Harden is the per-candidate isolation policy. The zero value still
	// contains panics (a crashing world becomes a tool-fault finding, not
	// a dead fuzzer); budgets and watchdogs are opt-in. Only the
	// simulated-time knobs (StallSteps, Budget) keep findings
	// deterministic across machines — wall-clock timeouts degrade to
	// exec-error and are reported but never emitted.
	Harden harden.Config
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
	// Context cancels the run between generations.
	Context context.Context
	// Seeds are extra generation-zero schedules appended after the built-in
	// seed corpus — the only way raft worlds enter a run. Leaving it empty
	// reproduces the historical exploration bit-for-bit: the corpus, the
	// random stream, and every repro hash are untouched.
	Seeds []Schedule
	// Snapshot turns on the world snapshot/fork fast path: candidates
	// sharing a schedule prefix are bucketed, the prefix runs once in a
	// fresh world, and each candidate forks from that warm parent and
	// executes only its mutated suffix. Results are bit-identical to full
	// replays at any worker count; candidates that do not complete cleanly
	// from a fork fall back to the fresh path automatically. Ignored (with
	// everything on the fresh path) when a wall-clock Timeout or Context
	// is configured in Harden — those are measured per run and would see a
	// different clock from a fork.
	Snapshot bool

	// Journal, when non-nil, checkpoints the exploration at every
	// generation boundary: corpus deltas, coverage, findings, tried
	// schedule keys, and the RNG position stream into the write-ahead
	// log (compacted every few generations). A run killed mid-
	// generation and restarted with the same journal rewinds the RNG to
	// the last boundary, replays the interrupted generation, and ends
	// bit-identical to an uninterrupted run: same fingerprint, same
	// findings, same emitted repro bytes. A journal write failure
	// aborts the run as a tool fault.
	Journal *journal.Log

	// EvalBatch, when non-nil, overrides whole-batch candidate evaluation
	// — the fleet coordinator uses it to shard generation batches over
	// worker processes. It must return outs[i] = the evaluation of
	// batch[i] (a pure function of the schedule), preserving order;
	// completion order inside the hook is free. Shrink evaluations still
	// run locally through the default path, and Snapshot is ignored while
	// the hook is set (the hook owns batch execution).
	EvalBatch func(ctx context.Context, batch []Schedule) ([]*Outcome, error)

	// evaluate overrides candidate evaluation; tests use it to inject
	// deterministic crashes and stalls without a buggy protocol stack.
	// Both the fuzz loop and the shrinker route through it.
	evaluate func(Schedule, tcp.Profile) *Outcome
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 1000
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 32
	}
	if o.Profile.Name == "" {
		o.Profile = tcp.SunOS413()
	}
	if o.ShrinkBudget <= 0 {
		o.ShrinkBudget = 300
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	if o.Context == nil {
		o.Context = context.Background()
	}
	if o.evaluate == nil {
		cfg := o.Harden
		o.evaluate = func(s Schedule, prof tcp.Profile) *Outcome {
			return EvaluateWith(s, prof, cfg)
		}
	}
	return o
}

// Finding is one shrunk oracle violation.
type Finding struct {
	// Violation is the oracle breach as re-observed on the minimized
	// schedule.
	Violation Violation `json:"violation"`
	// Schedule is the minimized genome.
	Schedule Schedule `json:"schedule"`
	// Scenario is the committable repro source ("" for kinds that cannot
	// be expressed as a passing scenario, i.e. exec-error).
	Scenario string `json:"scenario,omitempty"`
	// Path and GoldenPath are where the repro was emitted ("" when
	// Options.OutDir was empty or the kind is not emittable).
	Path       string `json:"path,omitempty"`
	GoldenPath string `json:"golden_path,omitempty"`
}

// Report summarizes a fuzzing run.
type Report struct {
	Seed         int64
	Runs         int // candidate evaluations
	ShrinkRuns   int // extra evaluations spent minimizing findings
	Generations  int
	CorpusSize   int
	CoverageBits int
	// Fingerprint hashes the final coverage map and the corpus schedule
	// keys — the worker-count-invariant identity of the whole exploration.
	Fingerprint string
	Findings    []Finding
	// Snapshot reports how candidates were served when Options.Snapshot
	// was on (zero value otherwise). Shrink evaluations always run fresh
	// and are not counted here.
	Snapshot SnapshotStats
}

// String renders a one-paragraph summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "seed %d: %d runs (+%d shrink) over %d generations, corpus %d, %d coverage bits, fingerprint %s\n",
		r.Seed, r.Runs, r.ShrinkRuns, r.Generations, r.CorpusSize, r.CoverageBits, r.Fingerprint)
	if s := r.Snapshot; s.Sessions > 0 || s.FreshRuns > 0 {
		fmt.Fprintf(&b, "  snapshots: %d session(s), %d forked, %d fallback(s), %d fresh\n",
			s.Sessions, s.FastRuns, s.Fallbacks, s.FreshRuns)
	}
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "  %-17s %s", f.Violation.Kind, f.Violation.Detail)
		if f.Path != "" {
			fmt.Fprintf(&b, " -> %s", f.Path)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// corpusEntry is one admitted schedule with its coverage.
type corpusEntry struct {
	sched Schedule
	cov   *Coverage
}

// Fuzz runs the coverage-guided exploration loop.
//
// Determinism: candidates are derived sequentially from the seeded source,
// evaluated in parallel (each evaluation is a pure function of its
// schedule), and merged strictly in candidate order — so corpus evolution,
// findings, and the final fingerprint are identical for every worker
// count.
func Fuzz(opts Options) (*Report, error) {
	// The snapshot fast path replaces whole-batch evaluation, so it only
	// applies when candidate evaluation is the real thing (not a test
	// hook or a fleet batch dispatcher) and the isolation policy carries
	// no wall-clock semantics.
	snapOn := opts.Snapshot && opts.evaluate == nil && opts.EvalBatch == nil && snapshotEligible(opts.Harden)
	opts = opts.withDefaults()
	rng := dist.NewSource(opts.Seed)
	rep := &Report{Seed: opts.Seed}

	var (
		corpus  []corpusEntry
		global  = &Coverage{}
		bitHits = make([]uint32, mapBits)
		seen    = map[string]bool{} // schedule keys ever evaluated
		found   = map[string]bool{} // violation signatures already shrunk
	)

	// Journal bookkeeping: deltas accumulated since the last generation
	// boundary (only when a journal is attached).
	jl := opts.Journal
	var jstate *fuzzState
	var newSeen, newFound []string
	markSeen := func(k string) {
		seen[k] = true
		if jl != nil {
			newSeen = append(newSeen, k)
		}
	}

	admit := func(o *Outcome) {
		fresh := global.Merge(o.Cov)
		if fresh == 0 {
			return
		}
		o.Cov.Bits(func(bit int) { bitHits[bit]++ })
		corpus = append(corpus, corpusEntry{sched: o.Schedule, cov: o.Cov})
	}

	handle := func(o *Outcome) error {
		for _, v := range o.Violations {
			sig := v.Signature(o.Schedule)
			if found[sig] {
				continue
			}
			found[sig] = true
			if jl != nil {
				newFound = append(newFound, sig)
			}
			f, err := shrinkAndEmit(o.Schedule, v, opts, rep)
			if err != nil {
				return err
			}
			rep.Findings = append(rep.Findings, f)
			opts.Log("finding: %s (%s)", f.Violation.Kind, f.Violation.Detail)
		}
		return nil
	}

	evalBatch := func(batch []Schedule) ([]*Outcome, error) {
		var outs []*Outcome
		var err error
		if opts.EvalBatch != nil {
			outs, err = opts.EvalBatch(opts.Context, batch)
			if err == nil && len(outs) != len(batch) {
				err = fmt.Errorf("explore: EvalBatch returned %d outcomes for %d candidates", len(outs), len(batch))
			}
		} else if snapOn {
			outs, err = snapEvalBatch(opts.Context, opts.Workers, batch, opts.Profile, opts.Harden, &rep.Snapshot)
		} else {
			outs = make([]*Outcome, len(batch))
			err = campaign.ForEach(opts.Context, opts.Workers, len(batch), func(i int) {
				outs[i] = opts.evaluate(batch[i], opts.Profile)
			})
		}
		rep.Runs += len(batch)
		return outs, err
	}

	// Generation zero: the deterministic seed corpus, plus any caller seeds.
	seeds := append(seedCorpus(), opts.Seeds...)

	// Resume: validate the journal against this run's parameters and
	// restore the state at its last completed generation boundary. The
	// RNG rewinds to that boundary, so the next derivation — including
	// a replay of any generation the crash interrupted — is the one an
	// uninterrupted run would have made.
	if jl != nil {
		meta := fuzzMeta{Kind: "fuzz", Seed: opts.Seed, Batch: opts.BatchSize,
			Profile: opts.Profile.Name, SeedHash: seedHash(seeds)}
		st, err := prepareFuzzJournal(jl, meta)
		if err != nil {
			return rep, err
		}
		jstate = st
	}
	corpusBase, findingsBase := 0, 0
	boundary := func() error {
		if jl == nil {
			return nil
		}
		rec := genRecord{Gen: rep.Generations, Runs: rep.Runs, ShrinkRuns: rep.ShrinkRuns,
			RngMark: rng.Mark(), Seen: newSeen, Found: newFound}
		for _, e := range corpus[corpusBase:] {
			rec.Corpus = append(rec.Corpus, jEntry{Schedule: e.sched, Cov: e.cov.Sparse()})
		}
		rec.Findings = append(rec.Findings, rep.Findings[findingsBase:]...)
		if err := jl.Append(RecGen, rec); err != nil {
			return err
		}
		if jstate == nil {
			jstate = &fuzzState{}
		}
		jstate.apply(rec, false)
		jstate.genRecords++
		newSeen, newFound = nil, nil
		corpusBase, findingsBase = len(corpus), len(rep.Findings)
		if jstate.genRecords >= checkpointEvery {
			metaData, err := json.Marshal(fuzzMeta{Kind: "fuzz", Seed: opts.Seed, Batch: opts.BatchSize,
				Profile: opts.Profile.Name, SeedHash: seedHash(seeds)})
			if err != nil {
				return err
			}
			ckpt, err := jstate.snapshotRecord()
			if err != nil {
				return err
			}
			if err := jl.Checkpoint([]journal.Record{
				{V: journal.FormatVersion, Type: RecFuzzMeta, Data: metaData}, ckpt,
			}); err != nil {
				return err
			}
			jstate.genRecords = 0
		}
		return nil
	}

	if jstate != nil {
		// Restore to the last boundary. The global map and bit-hit
		// counters rebuild from the corpus in admission order (every
		// global bit was first contributed by an admitted entry).
		rep.Generations, rep.Runs, rep.ShrinkRuns = jstate.gen, jstate.runs, jstate.shrink
		for _, k := range jstate.seen {
			seen[k] = true
		}
		for _, sig := range jstate.found {
			found[sig] = true
		}
		for _, je := range jstate.corpus {
			cov, err := CoverageFrom(je.Cov)
			if err != nil {
				return rep, err
			}
			global.Merge(cov)
			cov.Bits(func(bit int) { bitHits[bit]++ })
			corpus = append(corpus, corpusEntry{sched: je.Schedule, cov: cov})
		}
		rep.Findings = append(rep.Findings, jstate.findings...)
		rng.Rewind(jstate.mark)
		corpusBase, findingsBase = len(corpus), len(rep.Findings)
		journal.CountResumed(jstate.runs)
		opts.Log("journal: resumed at generation %d (%d runs, corpus %d, %d finding(s))",
			jstate.gen, jstate.runs, len(corpus), len(rep.Findings))
	} else {
		for _, s := range seeds {
			markSeen(s.Key())
		}
		outs, err := evalBatch(seeds)
		if err != nil {
			return rep, err
		}
		for _, o := range outs {
			admit(o)
			if err := handle(o); err != nil {
				return rep, err
			}
		}
		if err := boundary(); err != nil {
			return rep, err
		}
	}

	for rep.Runs < opts.Budget {
		if err := opts.Context.Err(); err != nil {
			return rep, err
		}
		rep.Generations++
		n := opts.BatchSize
		if left := opts.Budget - rep.Runs; n > left {
			n = left
		}
		// Derive candidates sequentially (the only rng consumer).
		weights := corpusWeights(corpus, bitHits)
		batch := make([]Schedule, 0, n)
		for len(batch) < n {
			var cand Schedule
			if len(corpus) == 0 || rng.Bernoulli(0.15) {
				cand = randSchedule(rng)
			} else {
				cand = mutate(rng, corpus[rng.Weighted(weights)].sched)
			}
			if k := cand.Key(); !seen[k] {
				markSeen(k)
				batch = append(batch, cand)
			} else if rng.Bernoulli(0.5) {
				// Mutation landed on a known genome; re-draw, but keep a
				// bounded retry appetite so tiny schedules can't spin.
				continue
			} else {
				batch = append(batch, cand)
			}
		}
		outs, err := evalBatch(batch)
		if err != nil {
			return rep, err
		}
		for _, o := range outs {
			admit(o)
			if err := handle(o); err != nil {
				return rep, err
			}
		}
		if err := boundary(); err != nil {
			return rep, err
		}
		opts.Log("gen %d: %d/%d runs, corpus %d, %d bits, %d finding(s)",
			rep.Generations, rep.Runs, opts.Budget, len(corpus), global.Count(), len(rep.Findings))
	}

	rep.CorpusSize = len(corpus)
	rep.CoverageBits = global.Count()
	rep.Fingerprint = fingerprint(global, corpus)
	return rep, nil
}

// corpusWeights scores each corpus entry by the rarity of the bits it
// covers: sum of 1/hits over its bits. Schedules holding bits few others
// reach get proportionally more mutation attention.
func corpusWeights(corpus []corpusEntry, bitHits []uint32) []float64 {
	w := make([]float64, len(corpus))
	for i, e := range corpus {
		score := 0.0
		e.cov.Bits(func(bit int) {
			if h := bitHits[bit]; h > 0 {
				score += 1 / float64(h)
			}
		})
		w[i] = score
	}
	return w
}

// fingerprint combines the coverage map and the ordered corpus keys.
func fingerprint(global *Coverage, corpus []corpusEntry) string {
	var b strings.Builder
	b.WriteString(global.Fingerprint())
	for _, e := range corpus {
		b.WriteByte('\n')
		b.WriteString(e.sched.Key())
	}
	return fmt.Sprintf("%016x", fnv64(b.String()))
}

// shrinkAndEmit minimizes one violating schedule and, for emittable kinds
// with an output directory, writes the repro scenario and golden trace.
// Contained kinds (tool-fault, livelock, budget-exceeded) are shrunk with
// the same ddmin pass but emitted into Options.QuarantineDir instead —
// they cannot pass as conformance scenarios.
func shrinkAndEmit(s Schedule, v Violation, opts Options, rep *Report) (Finding, error) {
	predicate := func(c Schedule) bool {
		o := opts.evaluate(c, opts.Profile)
		for _, cv := range o.Violations {
			if cv.Kind == v.Kind && cv.Nodes == v.Nodes {
				return true
			}
		}
		return false
	}
	min, runs := Shrink(s, predicate, opts.ShrinkBudget)
	rep.ShrinkRuns += runs

	// Re-observe on the minimized schedule for an accurate Detail (and,
	// for contained kinds, the isolation record behind it).
	final := v
	minOut := opts.evaluate(min, opts.Profile)
	for _, cv := range minOut.Violations {
		if cv.Kind == v.Kind && cv.Nodes == v.Nodes {
			final = cv
			break
		}
	}
	rep.ShrinkRuns++

	f := Finding{Violation: final, Schedule: min}
	if containedKind(final.Kind) {
		return emitQuarantined(min, final, minOut, opts, f)
	}
	if final.Kind == ViolExecError {
		return f, nil // cannot be expressed as a passing scenario
	}

	// Pin the repro to the concrete vendor profile so per-profile drift
	// elsewhere cannot silently change this regression.
	if min.World == WorldTCP && min.Profile == "" {
		min.Profile = opts.Profile.Name
		f.Schedule = min
	}
	src, err := CompileRepro(min, final, opts.Seed)
	if err != nil {
		return f, fmt.Errorf("explore: compiling repro: %w", err)
	}
	f.Scenario = src
	if opts.OutDir == "" {
		return f, nil
	}
	path, goldenPath, err := EmitRepro(opts.OutDir, min, final, src, opts.Profile)
	if err != nil {
		return f, err
	}
	f.Path, f.GoldenPath = path, goldenPath
	return f, nil
}

// emitQuarantined finalizes a contained finding: its scenario is the
// compiled minimized schedule under a quarantine header, written to
// QuarantineDir when one is configured.
func emitQuarantined(min Schedule, final Violation, minOut *Outcome, opts Options, f Finding) (Finding, error) {
	src, err := Compile(min)
	if err != nil {
		return f, fmt.Errorf("explore: compiling quarantine repro: %w", err)
	}
	var iso *harden.Outcome
	if minOut.Result != nil {
		iso = minOut.Result.Isolation
	}
	f.Scenario = quarantineHeader(final, iso, opts.Seed) + src
	if opts.QuarantineDir == "" {
		return f, nil
	}
	path, err := EmitQuarantine(opts.QuarantineDir, min, final, f.Scenario)
	if err != nil {
		return f, err
	}
	f.Path = path
	return f, nil
}
