package explore

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"pfi/internal/harden"
	"pfi/internal/journal"
	"pfi/internal/tcp"
)

func fuzzBudget() (budget, batch int) {
	if raceDetectorEnabled {
		return 24, 8
	}
	return 64, 16
}

// TestFuzzJournalResumeMidGeneration is the tentpole acceptance
// property in-process: an exploration interrupted in the middle of a
// generation (after the last boundary record) resumes from its journal
// and finishes bit-identical to an uninterrupted run — fingerprint,
// findings, and emitted repro bytes — with a torn tail thrown in.
func TestFuzzJournalResumeMidGeneration(t *testing.T) {
	budget, batch := fuzzBudget()
	base := func(outDir string) Options {
		return Options{Seed: 7, Budget: budget, BatchSize: batch, OutDir: outDir}
	}
	dirU := t.TempDir()
	uninterrupted, err := Fuzz(base(dirU))
	if err != nil {
		t.Fatal(err)
	}

	dirI := t.TempDir()
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt deterministically mid-generation: the Nth candidate
	// evaluation cancels the run's context, killing the batch before
	// its boundary record lands.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	evals := 0
	stop := batch + batch/2 // partway through generation 1
	opts := base(dirI)
	opts.Journal = jl
	opts.Context = ctx
	opts.Workers = 1
	opts.evaluate = func(s Schedule, prof tcp.Profile) *Outcome {
		evals++
		if evals == stop {
			cancel()
		}
		return EvaluateWith(s, prof, opts.Harden)
	}
	if _, err := Fuzz(opts); err == nil {
		t.Fatal("interrupted run should return the context error")
	}
	jl.Close()

	// Simulate the kill tearing a frame mid-write.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x42, 0x00, 0x00})
	f.Close()

	jl2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	resumeOpts := base(dirI)
	resumeOpts.Journal = jl2
	resumed, err := Fuzz(resumeOpts)
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "resumed", "uninterrupted", resumed, uninterrupted)
	if resumed.Generations != uninterrupted.Generations {
		t.Errorf("generations diverge: %d vs %d", resumed.Generations, uninterrupted.Generations)
	}
	if a, b := emittedSet(t, dirI), emittedSet(t, dirU); a != b {
		t.Errorf("emitted file sets diverge:\ninterrupted+resumed:\n%s\nuninterrupted:\n%s", a, b)
	}
}

// TestFuzzJournalResumeEveryBoundary kills the run after each
// generation boundary in turn and resumes, until the budget completes —
// every intermediate journal must steer back onto the uninterrupted
// trajectory, across checkpoint compactions.
func TestFuzzJournalResumeEveryBoundary(t *testing.T) {
	budget, batch := fuzzBudget()
	batch = batch / 2 // more generations: crosses the compaction cadence
	uninterrupted, err := Fuzz(Options{Seed: 9, Budget: budget, BatchSize: batch})
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "fuzz.journal")
	var final *Report
	for attempt := 0; attempt < budget; attempt++ {
		jl, err := journal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		gens := 0
		rep, err := Fuzz(Options{
			Seed: 9, Budget: budget, BatchSize: batch,
			Journal: jl,
			Context: ctx,
			Log: func(format string, args ...any) {
				if format[:3] == "gen" {
					if gens++; gens == 1 {
						cancel() // one generation per attempt, then die
					}
				}
			},
		})
		cancel()
		jl.Close()
		if err == nil {
			final = rep
			break
		}
	}
	if final == nil {
		t.Fatal("exploration never completed across resumes")
	}
	sameReport(t, "resumed", "uninterrupted", final, uninterrupted)
}

// TestFuzzJournalResumeComplete: resuming a finished run re-evaluates
// nothing and reproduces the report.
func TestFuzzJournalResumeComplete(t *testing.T) {
	budget, batch := fuzzBudget()
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first, err := Fuzz(Options{Seed: 3, Budget: budget, BatchSize: batch, Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer jl2.Close()
	again, err := Fuzz(Options{
		Seed: 3, Budget: budget, BatchSize: batch, Journal: jl2,
		evaluate: func(s Schedule, prof tcp.Profile) *Outcome {
			t.Error("complete journal re-evaluated schedule " + s.Key())
			return EvaluateWith(s, prof, harden.Config{})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sameReport(t, "restored", "first", again, first)
}

// TestFuzzJournalMismatchRejected: a journal refuses a different
// exploration (seed, batch size, profile, or seed corpus).
func TestFuzzJournalMismatchRejected(t *testing.T) {
	budget, batch := fuzzBudget()
	path := filepath.Join(t.TempDir(), "fuzz.journal")
	jl, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fuzz(Options{Seed: 3, Budget: budget, BatchSize: batch, Journal: jl}); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	for name, tweak := range map[string]func(*Options){
		"seed":  func(o *Options) { o.Seed = 4 },
		"batch": func(o *Options) { o.BatchSize = batch + 1 },
		"seeds": func(o *Options) { o.Seeds = RaftSeedCorpus(3, "") },
	} {
		jl2, err := journal.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		o := Options{Seed: 3, Budget: budget, BatchSize: batch, Journal: jl2}
		tweak(&o)
		if _, err := Fuzz(o); err == nil {
			t.Errorf("%s mismatch accepted", name)
		}
		jl2.Close()
	}
}
