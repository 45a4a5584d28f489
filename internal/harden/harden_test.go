package harden_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pfi/internal/harden"
	"pfi/internal/simtime"
	"pfi/internal/trace"
)

// runChurn executes a hardened run whose body builds a tiny world and
// drives a self-rescheduling event chain of n steps. Each step optionally
// appends a trace entry; onStep hooks fire once per executed event.
func runChurn(cfg harden.Config, n int, writeTrace bool, mid func(step int, m *harden.Monitor)) harden.Outcome {
	return harden.Run(cfg, func(m *harden.Monitor) error {
		s := simtime.NewScheduler()
		log := trace.NewLog()
		m.Attach(s, log, nil)
		count := 0
		var tick func()
		tick = func() {
			count++
			if writeTrace {
				log.Addf(s.Now(), "node", "test", "TICK", uint64(count), "churn")
			}
			if mid != nil {
				mid(count, m)
			}
			if count < n {
				s.After(1, "tick", tick)
			}
		}
		s.After(1, "tick", tick)
		s.Run()
		return nil
	})
}

func TestRunPassAndFail(t *testing.T) {
	out := harden.Run(harden.Config{}, func(*harden.Monitor) error { return nil })
	if out.Kind != harden.Pass || out.Err != nil {
		t.Fatalf("clean body: %+v", out)
	}
	boom := errors.New("scenario broke")
	out = harden.Run(harden.Config{}, func(*harden.Monitor) error { return boom })
	if out.Kind != harden.Fail || !errors.Is(out.Err, boom) {
		t.Fatalf("failing body: %+v", out)
	}
}

func TestPanicContainment(t *testing.T) {
	out := harden.Run(harden.Config{}, func(*harden.Monitor) error {
		panic("stack corrupted")
	})
	if out.Kind != harden.ToolFault {
		t.Fatalf("kind = %v, want ToolFault", out.Kind)
	}
	if out.Err == nil || !strings.Contains(out.Err.Error(), "stack corrupted") {
		t.Errorf("err %v does not carry the panic value", out.Err)
	}
	if !strings.Contains(out.Stack, "TestPanicContainment") {
		t.Errorf("stack does not reach the panic site:\n%s", out.Stack)
	}
}

// TestStallDetector: events churning without trace progress is a
// livelock; the same churn writing a trace entry per step is not.
func TestStallDetector(t *testing.T) {
	cfg := harden.Config{StallSteps: 10}
	out := runChurn(cfg, 100, false, nil)
	if out.Kind != harden.Livelock || out.Counter != "stall" {
		t.Fatalf("silent churn: %+v, want Livelock/stall", out)
	}
	if out.Limit != 10 {
		t.Errorf("limit = %d, want 10", out.Limit)
	}
	if out = runChurn(cfg, 100, true, nil); out.Kind != harden.Pass {
		t.Fatalf("progressing churn: %+v, want Pass", out)
	}
}

// TestQuiescentWorldIsNotLivelock: an event queue that legitimately
// drains — even without a single trace entry — completes normally. The
// detector only trips while events still churn.
func TestQuiescentWorldIsNotLivelock(t *testing.T) {
	out := runChurn(harden.Config{StallSteps: 10}, 5, false, nil)
	if out.Kind != harden.Pass {
		t.Fatalf("drained world: %+v, want Pass", out)
	}
	// Zero events at all: the body never even exercises the hook.
	out = harden.Run(harden.Config{StallSteps: 10}, func(m *harden.Monitor) error {
		m.Attach(simtime.NewScheduler(), trace.NewLog(), nil)
		return nil
	})
	if out.Kind != harden.Pass {
		t.Fatalf("empty world: %+v, want Pass", out)
	}
}

// TestTraceBudgetEdges: consumption equal to the cap passes; one entry
// past it aborts naming the counter.
func TestTraceBudgetEdges(t *testing.T) {
	cfg := harden.Config{Budget: harden.Budget{TraceEntries: 5}}
	if out := runChurn(cfg, 5, true, nil); out.Kind != harden.Pass {
		t.Fatalf("exactly-at-limit: %+v, want Pass", out)
	}
	out := runChurn(cfg, 50, true, nil)
	if out.Kind != harden.BudgetExceeded || out.Counter != "trace-entries" {
		t.Fatalf("past-limit: %+v, want BudgetExceeded/trace-entries", out)
	}
	if out.Limit != 5 || out.Observed != 6 {
		t.Errorf("limit/observed = %d/%d, want 5/6", out.Limit, out.Observed)
	}
}

// TestZeroBudgetDisabled: an all-zero config meters nothing, whatever
// the run does.
func TestZeroBudgetDisabled(t *testing.T) {
	if out := runChurn(harden.Config{}, 500, true, nil); out.Kind != harden.Pass {
		t.Fatalf("unmetered churn: %+v, want Pass", out)
	}
}

// TestTimerBudget: registrations are metered, whether in the heap or on a
// lane.
func TestTimerBudget(t *testing.T) {
	cfg := harden.Config{Budget: harden.Budget{Timers: 3}}
	// The churn chain performs exactly one fresh registration per step.
	if out := runChurn(cfg, 3, true, nil); out.Kind != harden.Pass {
		t.Fatalf("exactly-at-limit: %+v, want Pass", out)
	}
	out := runChurn(cfg, 10, true, nil)
	if out.Kind != harden.BudgetExceeded || out.Counter != "timers" {
		t.Fatalf("past-limit: %+v, want BudgetExceeded/timers", out)
	}
	if out.Limit != 3 || out.Observed != 4 {
		t.Errorf("limit/observed = %d/%d, want 3/4", out.Limit, out.Observed)
	}

	// A timer that re-arms itself on a lane is metered like one re-armed
	// in the heap: every arm counts, firing does not.
	out = harden.Run(cfg, func(m *harden.Monitor) error {
		s := simtime.NewScheduler()
		m.Attach(s, trace.NewLog(), nil)
		var hb simtime.Timer
		hb.Init(s, func() { s.Lane(10).Arm(&hb.Event, "heartbeat", &hb) })
		s.Lane(10).Arm(&hb.Event, "heartbeat", &hb)
		s.RunUntil(1000)
		return nil
	})
	if out.Kind != harden.BudgetExceeded || out.Counter != "timers" || out.Observed != 4 {
		t.Fatalf("lane re-arms: %+v, want BudgetExceeded/timers at 4", out)
	}
}

func TestInjectedBudget(t *testing.T) {
	injected := 0
	out := harden.Run(harden.Config{Budget: harden.Budget{InjectedMsgs: 2}}, func(m *harden.Monitor) error {
		s := simtime.NewScheduler()
		m.Attach(s, trace.NewLog(), func() int { return injected })
		count := 0
		var tick func()
		tick = func() {
			count++
			injected = count
			if count < 50 {
				s.After(1, "tick", tick)
			}
		}
		s.After(1, "tick", tick)
		s.Run()
		return nil
	})
	if out.Kind != harden.BudgetExceeded || out.Counter != "injected-msgs" {
		t.Fatalf("%+v, want BudgetExceeded/injected-msgs", out)
	}
}

// TestWallClockTimeout: the deadline is observed from the amortized
// check, so a long-running churn aborts with the wall-clock counter.
func TestWallClockTimeout(t *testing.T) {
	out := runChurn(harden.Config{Timeout: time.Nanosecond}, 10_000, true, nil)
	if out.Kind != harden.Timeout || out.Counter != "wall-clock" {
		t.Fatalf("%+v, want Timeout/wall-clock", out)
	}
}

// TestContextCancellation: cancellation mid-run aborts at the next
// amortized check; cancellation before the run skips the body entirely.
func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	out := runChurn(harden.Config{Context: ctx}, 10_000, true, func(step int, _ *harden.Monitor) {
		if step == 10 {
			cancel()
		}
	})
	if out.Kind != harden.Timeout || out.Counter != "context" {
		t.Fatalf("mid-run cancel: %+v, want Timeout/context", out)
	}

	pre, preCancel := context.WithCancel(context.Background())
	preCancel()
	ran := false
	out = harden.Run(harden.Config{Context: pre}, func(*harden.Monitor) error {
		ran = true
		return nil
	})
	if out.Kind != harden.Timeout || out.Counter != "context" || ran {
		t.Fatalf("pre-canceled: %+v (ran=%v), want Timeout/context without running", out, ran)
	}
}

// TestScriptStepBudgetGate: ExceedScriptSteps only escalates when a
// script-step budget is configured; otherwise the interpreter's built-in
// guard stays an ordinary failure.
func TestScriptStepBudgetGate(t *testing.T) {
	out := harden.Run(harden.Config{}, func(m *harden.Monitor) error {
		if m.ExceedScriptSteps() {
			t.Error("ExceedScriptSteps escalated without a budget")
		}
		if got := m.ScriptStepLimit(1234); got != 1234 {
			t.Errorf("ScriptStepLimit = %d, want default 1234", got)
		}
		return errors.New("step limit 1234 exceeded")
	})
	if out.Kind != harden.Fail {
		t.Fatalf("unbudgeted step limit: %+v, want Fail", out)
	}

	out = harden.Run(harden.Config{Budget: harden.Budget{ScriptSteps: 99}}, func(m *harden.Monitor) error {
		if got := m.ScriptStepLimit(1234); got != 99 {
			t.Errorf("ScriptStepLimit = %d, want budget 99", got)
		}
		m.ExceedScriptSteps()
		t.Error("ExceedScriptSteps returned with a budget set")
		return nil
	})
	if out.Kind != harden.BudgetExceeded || out.Counter != "script-steps" || out.Limit != 99 {
		t.Fatalf("budgeted step limit: %+v, want BudgetExceeded/script-steps/99", out)
	}
}

// TestRetryClassification: a failure that reproduces keeps its first
// record and is marked deterministic; one that vanishes becomes Flaky
// with the first kind preserved.
func TestRetryClassification(t *testing.T) {
	attempts := 0
	out := harden.Run(harden.Config{Retry: true}, func(*harden.Monitor) error {
		attempts++
		panic("always broken")
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
	if out.Kind != harden.ToolFault || !out.Deterministic || out.Retries != 1 {
		t.Fatalf("deterministic crash: %+v", out)
	}

	attempts = 0
	out = harden.Run(harden.Config{Retry: true}, func(*harden.Monitor) error {
		attempts++
		if attempts == 1 {
			panic("only once")
		}
		return nil
	})
	if out.Kind != harden.Flaky || out.FirstKind != harden.ToolFault || out.Retries != 1 {
		t.Fatalf("flaky crash: %+v", out)
	}
	if out.Err != nil {
		t.Errorf("flaky-then-pass kept an error: %v", out.Err)
	}

	// No retry requested: one attempt, no classification.
	attempts = 0
	out = harden.Run(harden.Config{}, func(*harden.Monitor) error {
		attempts++
		panic("once")
	})
	if attempts != 1 || out.Retries != 0 || out.Deterministic {
		t.Fatalf("retry off: attempts=%d %+v", attempts, out)
	}
}

// TestEmitReproRoundtrip: a deterministic containment with a repro
// source lands as a headered .pfi whose kind parses back.
func TestEmitReproRoundtrip(t *testing.T) {
	dir := t.TempDir()
	src := "world tcp\nrun 1s\n"
	out := harden.Run(harden.Config{
		Retry:       true,
		ReproDir:    dir,
		ReproSource: func() string { return src },
	}, func(*harden.Monitor) error {
		panic("reproducible crash")
	})
	if out.ReproPath == "" {
		t.Fatalf("no repro emitted: %+v", out)
	}
	data, err := os.ReadFile(out.ReproPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	if !strings.HasPrefix(text, "# quarantine: tool-fault\n") || !strings.Contains(text, src) {
		t.Errorf("repro content malformed:\n%s", text)
	}
	kind, ok := harden.ReproKind(text)
	if !ok || kind != harden.ToolFault {
		t.Errorf("ReproKind = %v/%v, want ToolFault/true", kind, ok)
	}
	if base := filepath.Base(out.ReproPath); !strings.HasPrefix(base, "quarantine_tool_fault_") {
		t.Errorf("repro name %q", base)
	}

	if _, ok := harden.ReproKind(src); ok {
		t.Error("ReproKind parsed a header out of plain scenario source")
	}
}

// TestFlakyFailureNotQuarantined: only deterministic containments are
// worth a repro file.
func TestFlakyFailureNotQuarantined(t *testing.T) {
	dir := t.TempDir()
	attempts := 0
	out := harden.Run(harden.Config{
		Retry:       true,
		ReproDir:    dir,
		ReproSource: func() string { return "world tcp\n" },
	}, func(*harden.Monitor) error {
		attempts++
		if attempts == 1 {
			panic("only once")
		}
		return nil
	})
	if out.Kind != harden.Flaky || out.ReproPath != "" {
		t.Fatalf("%+v, want Flaky without a repro", out)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("quarantine dir not empty: %v", entries)
	}
}

// TestKindStringsAndTags pins the taxonomy names the CLIs print.
func TestKindStringsAndTags(t *testing.T) {
	want := map[harden.Kind][2]string{
		harden.Pass:           {"pass", "PASS"},
		harden.Fail:           {"fail", "FAIL"},
		harden.ToolFault:      {"tool-fault", "CRASH"},
		harden.Timeout:        {"timeout", "TIMEOUT"},
		harden.Livelock:       {"livelock", "LIVELOCK"},
		harden.BudgetExceeded: {"budget-exceeded", "BUDGET"},
		harden.Flaky:          {"flaky", "FLAKY"},
	}
	for k, w := range want {
		if k.String() != w[0] || k.Tag() != w[1] {
			t.Errorf("%d: %q/%q, want %q/%q", k, k.String(), k.Tag(), w[0], w[1])
		}
		if contained := k.Contained(); contained != (k == harden.ToolFault || k == harden.Timeout || k == harden.Livelock || k == harden.BudgetExceeded) {
			t.Errorf("%v.Contained() = %v", k, contained)
		}
	}
}
