package campaign_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pfi/internal/campaign"
	"pfi/internal/harden"
	"pfi/internal/journal"
)

func openJournal(t *testing.T, path string) *journal.Log {
	t.Helper()
	l, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// sameVerdict compares the deterministic projection of two verdicts —
// exactly the fields the journal round-trips.
func sameVerdict(a, b campaign.Verdict) bool {
	errText := func(e error) string {
		if e == nil {
			return ""
		}
		return e.Error()
	}
	return a.Case.Name == b.Case.Name && a.OK == b.OK && a.Note == b.Note &&
		a.Outcome == b.Outcome && errText(a.Err) == errText(b.Err)
}

// evaluators are the two ways a sweep's cells get evaluated: the pool
// (Eval nil) at 1 and 4 workers and, as 0, a hostile stand-in for the
// fleet. It lands cells in reverse order and each one twice (a re-earned
// duplicate must be ignored: journaled and observed once), and once ctx is
// canceled lands the cell it was on as context-aborted — which must not
// be journaled.
var evaluators = []int{1, 4, 0}

func evalFor(workers int, scenario campaign.Scenario) func(context.Context, []campaign.Case, []bool, func(int, campaign.Verdict)) error {
	if workers != 0 {
		return nil
	}
	return func(ctx context.Context, cases []campaign.Case, held []bool, land func(int, campaign.Verdict)) error {
		for i := len(cases) - 1; i >= 0; i-- {
			if held[i] {
				continue
			}
			if err := ctx.Err(); err != nil {
				land(i, campaign.Verdict{Case: cases[i], Err: err, Outcome: harden.Timeout,
					Isolation: &harden.Outcome{Kind: harden.Timeout, Counter: "context", Err: err}})
				return err
			}
			v := campaign.RunCase(cases[i], scenario, harden.Config{}, nil)
			land(i, v)
			land(i, v)
		}
		return nil
	}
}

// TestJournalResume is the in-process acceptance path: a sweep canceled
// partway leaves a journal; resuming with it re-runs (and re-reports)
// only the missing cells and produces a verdict stream identical to an
// uninterrupted run, through every evaluator.
func TestJournalResume(t *testing.T) {
	clean, _, err := campaign.Run(sweepSpec, sweepScenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range evaluators {
		path := filepath.Join(t.TempDir(), "sweep.journal")
		jl := openJournal(t, path)
		ctx, cancel := context.WithCancel(context.Background())
		seen := 0
		_, _, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{
			Workers: workers,
			Context: ctx,
			Journal: jl,
			Eval:    evalFor(workers, sweepScenario),
			OnVerdict: func(campaign.Verdict) {
				seen++
				if seen == 10 {
					cancel()
				}
			},
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: interrupted sweep err = %v, want context.Canceled", workers, err)
		}
		jl.Close()

		// Resume: completed cells restore from the journal, the
		// scenario runs only for the rest.
		jl2 := openJournal(t, path)
		var ran atomic.Int64
		counting := func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
			ran.Add(1)
			return sweepScenario(m, c)
		}
		fresh := 0
		vs, stats, err := campaign.RunParallel(sweepSpec, counting, campaign.Options{
			Workers:   workers,
			Journal:   jl2,
			Eval:      evalFor(workers, counting),
			OnVerdict: func(campaign.Verdict) { fresh++ },
		})
		jl2.Close()
		if err != nil {
			t.Fatalf("workers=%d: resume: %v", workers, err)
		}
		if len(vs) != len(clean) {
			t.Fatalf("workers=%d: resumed sweep has %d verdicts, want %d", workers, len(vs), len(clean))
		}
		for i := range vs {
			if !sameVerdict(vs[i], clean[i]) {
				t.Errorf("workers=%d: cell %d (%s) diverged after resume", workers, i, clean[i].Case.Name)
			}
		}
		if stats.Resumed < 10 || stats.Resumed >= len(clean) {
			t.Errorf("workers=%d: stats.Resumed = %d, want in [10,%d)", workers, stats.Resumed, len(clean))
		}
		if got := int(ran.Load()); got != len(clean)-stats.Resumed || fresh != got {
			t.Errorf("workers=%d: scenario ran %d times and OnVerdict fired %d times, want %d each (resumed cells must not re-run or re-report)",
				workers, got, fresh, len(clean)-stats.Resumed)
		}
		if workers == 0 && stats.Resumed != 10 {
			t.Errorf("fake evaluator: resumed %d cells, want exactly the 10 landed before the cancel (the context-aborted one is not journaled)", stats.Resumed)
		}
	}
}

// TestJournalResumeComplete: resuming a finished sweep re-runs nothing.
func TestJournalResumeComplete(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jl := openJournal(t, path)
	clean, _, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{Journal: jl})
	if err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2 := openJournal(t, path)
	defer jl2.Close()
	never := func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
		panic("resume of a complete journal invoked the scenario for " + c.Name)
	}
	vs, stats, err := campaign.RunParallel(sweepSpec, never, campaign.Options{Journal: jl2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != len(clean) || len(vs) != len(clean) {
		t.Fatalf("resumed %d of %d cells, got %d verdicts", stats.Resumed, len(clean), len(vs))
	}
	for i := range vs {
		if !sameVerdict(vs[i], clean[i]) {
			t.Errorf("cell %d (%s) diverged on full restore", i, clean[i].Case.Name)
		}
	}
}

// TestJournalQuarantineSemanticsSurviveResume: a contained cell's
// outcome kind, retry classification, and quarantine note are restored
// verbatim — the hostile cell is not re-executed on resume.
func TestJournalQuarantineSemanticsSurviveResume(t *testing.T) {
	cases, err := campaign.Generate(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	crash := cases[3].Name
	dir := t.TempDir()
	path := filepath.Join(t.TempDir(), "sweep.journal")
	opts := campaign.Options{
		Workers: 4,
		Harden:  harden.Config{StallSteps: 200, Retry: true, ReproDir: dir},
		Repro: func(c campaign.Case) string {
			return "# campaign case: " + c.Name + "\nworld tcp\nrun 1s\n"
		},
	}

	jl := openJournal(t, path)
	opts.Journal = jl
	first, _, err := campaign.RunParallel(sweepSpec, faultyScenario(crash, ""), opts)
	if err != nil {
		t.Fatal(err)
	}
	jl.Close()

	jl2 := openJournal(t, path)
	defer jl2.Close()
	opts.Journal = jl2
	never := func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
		panic("quarantined cell re-executed on resume: " + c.Name)
	}
	vs, stats, err := campaign.RunParallel(sweepSpec, never, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Resumed != len(first) {
		t.Fatalf("resumed %d cells, want %d", stats.Resumed, len(first))
	}
	for i := range vs {
		if vs[i].Case.Name != crash {
			continue
		}
		v, want := vs[i], first[i]
		if v.Outcome != harden.ToolFault || v.Status() != "CRASH" {
			t.Errorf("restored crash cell: outcome %v status %s", v.Outcome, v.Status())
		}
		if v.Note != want.Note {
			t.Errorf("restored quarantine note %q, want %q", v.Note, want.Note)
		}
		if v.Isolation == nil || v.Isolation.Retries != want.Isolation.Retries {
			t.Errorf("restored retry classification %+v, want retries=%d", v.Isolation, want.Isolation.Retries)
		}
	}
	if stats.Crashes != 1 || stats.Retries != 1 {
		t.Errorf("restored stats: %d crashes, %d retries; want 1 and 1", stats.Crashes, stats.Retries)
	}
}

// TestJournalSpecMismatchRejected: a journal never resumes a different
// sweep.
func TestJournalSpecMismatchRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	jl := openJournal(t, path)
	if _, _, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{Journal: jl}); err != nil {
		t.Fatal(err)
	}
	jl.Close()

	other := sweepSpec
	other.Types = []string{"DATA", "ACK"}
	jl2 := openJournal(t, path)
	defer jl2.Close()
	_, _, err := campaign.RunParallel(other, sweepScenario, campaign.Options{Journal: jl2})
	if err == nil {
		t.Fatal("resume against a different matrix should fail")
	}
}

// TestJournalWriteFailureIsToolFault: losing the journal mid-sweep
// aborts the sweep with a tool-fault-classified error — completed work
// is never silently unjournaled.
func TestJournalWriteFailureIsToolFault(t *testing.T) {
	for _, workers := range evaluators {
		jl := openJournal(t, filepath.Join(t.TempDir(), "sweep.journal"))
		var once sync.Once
		_, _, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{
			Workers: workers,
			Journal: jl,
			Eval:    evalFor(workers, sweepScenario),
			OnVerdict: func(campaign.Verdict) {
				once.Do(func() { jl.Close() }) // the disk goes away
			},
		})
		var f *journal.Fault
		if !errors.As(err, &f) {
			t.Fatalf("workers=%d: err %T (%v) is not a *journal.Fault", workers, err, err)
		}
		if f.Kind() != harden.ToolFault {
			t.Fatalf("workers=%d: journal fault kind %v, want ToolFault", workers, f.Kind())
		}
	}
}
