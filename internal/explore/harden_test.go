package explore

import (
	"os"
	"strings"
	"testing"

	"pfi/internal/conformance"
	"pfi/internal/harden"
	"pfi/internal/simtime"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// crashingEvaluate wraps the real evaluator: schedules whose hash starts
// with a selected nibble are driven into a genuine contained failure
// inside harden.Run — a panic for some, a trace-silent event churn the
// stall watchdog must trip for others — and classified exactly the way
// the production evaluator classifies contained conformance results.
// Selection by schedule hash keeps the fault set a pure function of the
// genome, so it is identical at every worker count.
func crashingEvaluate(s Schedule, prof tcp.Profile) *Outcome {
	h := s.Hash()
	var mode string
	switch h[0] {
	case '0', '1', '2', '3':
		mode = "panic"
	case '4', '5':
		mode = "stall"
	default:
		return EvaluateWith(s, prof, harden.Config{})
	}
	out := &Outcome{Schedule: s, Cov: &Coverage{}}
	iso := harden.Run(harden.Config{StallSteps: 32}, func(m *harden.Monitor) error {
		sched := simtime.NewScheduler()
		m.Attach(sched, trace.NewLog(), nil)
		if mode == "panic" {
			panic("synthetic fault in schedule " + h[:8])
		}
		var churn func()
		churn = func() { sched.After(1, "churn", churn) }
		churn()
		sched.RunUntil(simtime.Time(1) << 40)
		return nil
	})
	out.Result = &conformance.Result{Outcome: iso.Kind, Isolation: &iso}
	out.Violations = append(out.Violations, containedViolation(&iso))
	return out
}

// TestFuzzWorkerInvarianceWithContainedFailures: a sweep where a quarter
// of the candidates crash and an eighth livelock must still be
// bit-for-bit identical at 1 and 8 workers — fingerprint, run counts,
// findings, and the emitted quarantine files.
func TestFuzzWorkerInvarianceWithContainedFailures(t *testing.T) {
	run := func(workers int, dir string) *Report {
		t.Helper()
		budget, batch := 64, 16
		if raceDetectorEnabled {
			budget, batch = 24, 8
		}
		rep, err := Fuzz(Options{
			Seed:          11,
			Budget:        budget,
			BatchSize:     batch,
			Workers:       workers,
			QuarantineDir: dir,
			evaluate:      crashingEvaluate,
		})
		if err != nil {
			t.Fatalf("Fuzz: %v", err)
		}
		return rep
	}

	dir1, dir8 := t.TempDir(), t.TempDir()
	rep1 := run(1, dir1)
	rep8 := run(8, dir8)

	if rep1.Fingerprint != rep8.Fingerprint {
		t.Errorf("corpus fingerprint diverges: 1 worker %s, 8 workers %s", rep1.Fingerprint, rep8.Fingerprint)
	}
	if rep1.Runs != rep8.Runs || rep1.ShrinkRuns != rep8.ShrinkRuns {
		t.Errorf("run counts diverge: %d+%d vs %d+%d", rep1.Runs, rep1.ShrinkRuns, rep8.Runs, rep8.ShrinkRuns)
	}
	if len(rep1.Findings) != len(rep8.Findings) {
		t.Fatalf("finding counts diverge: %d vs %d\n1: %s\n8: %s", len(rep1.Findings), len(rep8.Findings), rep1, rep8)
	}
	for i := range rep1.Findings {
		a, b := rep1.Findings[i], rep8.Findings[i]
		if a.Violation != b.Violation || a.Schedule.Key() != b.Schedule.Key() || a.Scenario != b.Scenario {
			t.Errorf("finding %d diverges: %+v vs %+v", i, a.Violation, b.Violation)
		}
	}
	if a, b := emittedSet(t, dir1), emittedSet(t, dir8); a != b {
		t.Errorf("quarantine file sets diverge:\n1 worker:\n%s\n8 workers:\n%s", a, b)
	}

	// The synthetic fault rate guarantees at least one contained finding;
	// it must have been quarantined with a parseable header and no golden.
	var contained *Finding
	for i := range rep1.Findings {
		if containedKind(rep1.Findings[i].Violation.Kind) {
			contained = &rep1.Findings[i]
			break
		}
	}
	if contained == nil {
		t.Fatalf("no contained finding surfaced: %s", rep1)
	}
	if contained.Path == "" || contained.GoldenPath != "" {
		t.Fatalf("contained finding not quarantined correctly: path=%q golden=%q", contained.Path, contained.GoldenPath)
	}
	data, err := os.ReadFile(contained.Path)
	if err != nil {
		t.Fatal(err)
	}
	kind, ok := harden.ReproKind(string(data))
	if !ok {
		t.Fatalf("quarantine repro has no parseable header:\n%s", data)
	}
	if got := strings.ReplaceAll(kind.String(), "_", "-"); got != contained.Violation.Kind {
		t.Errorf("quarantine header kind %q, finding kind %q", got, contained.Violation.Kind)
	}
}

// TestEvaluateContainsPanicAndStall pins the evaluator-level
// classification: a panicking world is a tool-fault violation, a
// trace-silent churning one is livelock, and both carry the isolation
// record on the result.
func TestEvaluateContainsPanicAndStall(t *testing.T) {
	var panicky, stally Schedule
	foundP, foundS := false, false
	for i := 0; i < len(seedCorpus()) || !(foundP && foundS); i++ {
		if foundP && foundS {
			break
		}
		// Walk the deterministic seed corpus and synthetic variants until
		// both hash classes are represented.
		s := seedCorpus()[i%len(seedCorpus())]
		s.TailMS += 10 * (i / len(seedCorpus()))
		switch s.Hash()[0] {
		case '0', '1', '2', '3':
			if !foundP {
				panicky, foundP = s, true
			}
		case '4', '5':
			if !foundS {
				stally, foundS = s, true
			}
		}
		if i > 4096 {
			t.Fatal("could not find schedules in both hash classes")
		}
	}

	if o := crashingEvaluate(panicky, tcp.SunOS413()); len(o.Violations) != 1 || o.Violations[0].Kind != ViolToolFault {
		t.Errorf("panicking schedule: got %+v, want one tool-fault", o.Violations)
	} else if o.Result.Isolation == nil || o.Result.Isolation.Kind != harden.ToolFault {
		t.Errorf("panicking schedule missing isolation record: %+v", o.Result)
	}
	if o := crashingEvaluate(stally, tcp.SunOS413()); len(o.Violations) != 1 || o.Violations[0].Kind != ViolLivelock {
		t.Errorf("stalling schedule: got %+v, want one livelock", o.Violations)
	} else if o.Result.Isolation == nil || o.Result.Isolation.Counter != "stall" {
		t.Errorf("stalling schedule missing stall counter: %+v", o.Result.Isolation)
	}
}
