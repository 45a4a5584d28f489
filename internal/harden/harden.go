// Package harden is the run-isolation layer every scenario, campaign
// cell, and fuzzing candidate executes through. The tool's premise is
// that it keeps running while the target misbehaves — so a panicking
// protocol stack, a livelocked simulated world, or a runaway trace log
// must become a structured verdict on ONE run, never the death of the
// whole sweep.
//
// Run provides four guarantees:
//
//  1. Panic containment: a panic anywhere under the body becomes a
//     ToolFault outcome carrying the panic value and goroutine stack.
//  2. Watchdogs: a wall-clock deadline (Config.Timeout) and a
//     simulated-time stall detector (Config.StallSteps — no new trace
//     entries across N executed sim-events means Livelock). Both are
//     cooperative: the simulation is single-threaded by design, so the
//     monitor interrupts it from the scheduler's step hook rather than
//     killing a goroutine. Cancellation of Config.Context is observed
//     the same way.
//  3. Resource budgets (Config.Budget): caps on trace entries, script
//     steps, injected messages, and freshly scheduled timers. An
//     exceeded budget yields a BudgetExceeded outcome naming the
//     offending counter.
//  4. Quarantine and retry: with Config.Retry, a contained failure is
//     re-run once to classify deterministic vs. flaky, and deterministic
//     failures are written as headered .pfi repros under Config.ReproDir.
//
// Determinism: the stall detector and all budgets observe only virtual
// time and event counts, so their verdicts are identical at any worker
// count. The wall-clock deadline and context cancellation are inherently
// nondeterministic; sweeps that must be bit-reproducible should lean on
// the simulated-time knobs.
package harden

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"pfi/internal/simtime"
	"pfi/internal/trace"
)

// Kind classifies a hardened run. The zero value is Pass so an untouched
// outcome reads as a clean completion.
type Kind int

const (
	// Pass: the body completed and returned nil.
	Pass Kind = iota
	// Fail: the body completed and returned an ordinary error — the
	// scenario's own failure, not a containment event.
	Fail
	// ToolFault: the body panicked; the panic value and stack are
	// preserved in the outcome.
	ToolFault
	// Timeout: the wall-clock deadline passed or the context was
	// canceled mid-run.
	Timeout
	// Livelock: the simulated world kept executing events but produced
	// no new trace entries across Config.StallSteps sim-steps.
	Livelock
	// BudgetExceeded: a resource budget was exhausted; Outcome.Counter
	// names which one.
	BudgetExceeded
	// Flaky: the first attempt was contained (ToolFault/Timeout/
	// Livelock/BudgetExceeded) but the retry completed normally.
	// Outcome.FirstKind records what the first attempt produced.
	Flaky
)

var kindNames = [...]string{"pass", "fail", "tool-fault", "timeout", "livelock", "budget-exceeded", "flaky"}
var kindTags = [...]string{"PASS", "FAIL", "CRASH", "TIMEOUT", "LIVELOCK", "BUDGET", "FLAKY"}

// String returns the kebab-case taxonomy name, e.g. "budget-exceeded".
func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Tag returns the short uppercase status column form, e.g. "CRASH".
func (k Kind) Tag() string {
	if k >= 0 && int(k) < len(kindTags) {
		return kindTags[k]
	}
	return "?"
}

// Contained reports whether k is a containment event — a run the
// isolation layer had to stop or catch, as opposed to a run that
// finished under its own power (Pass/Fail/Flaky).
func (k Kind) Contained() bool {
	switch k {
	case ToolFault, Timeout, Livelock, BudgetExceeded:
		return true
	}
	return false
}

// Budget caps one run's resource consumption. A zero field disables that
// cap; consumption equal to the cap is allowed, one past it aborts.
type Budget struct {
	// TraceEntries bounds the shared trace log's length.
	TraceEntries int
	// ScriptSteps bounds scenario-interpreter commands (wired through
	// Monitor.ScriptStepLimit into script.Interp.SetStepLimit).
	ScriptSteps int
	// InjectedMsgs bounds messages the faultload injects (summed over
	// every PFI filter in the world).
	InjectedMsgs int
	// Timers bounds event registrations on the scheduler: every At,
	// After, Arm and Lane.Arm, re-arms of a pending event included.
	Timers int
}

// Config describes one hardened run.
type Config struct {
	// Timeout is the per-run wall-clock deadline (0: none). Checked
	// cooperatively from the sim-step hook, so a run that schedules no
	// events is bounded by the script-step limit instead.
	Timeout time.Duration
	// StallSteps is the livelock threshold: executed sim-steps without
	// a new trace entry (0: detector off). A world that goes idle —
	// empty event queue — is NOT a livelock; the detector only trips
	// while events still churn without observable progress.
	StallSteps int
	// Budget caps resource consumption.
	Budget Budget
	// Context cancels the run between sim-steps (nil: never).
	Context context.Context
	// Retry re-runs a contained failure once, classifying it as
	// deterministic (contained again) or Flaky (completed normally).
	Retry bool
	// ReproDir, when non-empty, receives a headered .pfi repro for every
	// deterministic contained failure (see EmitRepro).
	ReproDir string
	// ReproSource renders the scenario source for the repro. Containment
	// without a source is still reported, just not emitted.
	ReproSource func() string
}

// watches reports whether the step hook has anything to do.
func (c Config) watches() bool {
	return c.Timeout > 0 || c.StallSteps > 0 || c.Context != nil ||
		c.Budget.TraceEntries > 0 || c.Budget.InjectedMsgs > 0
}

// Outcome is the structured result of a hardened run.
type Outcome struct {
	// Kind classifies the run.
	Kind Kind
	// Err describes what went wrong: the body's own error for Fail, a
	// synthesized description for contained kinds, nil for Pass (and for
	// Flaky whose retry passed).
	Err error
	// Stack is the goroutine stack at the panic site (ToolFault only).
	Stack string
	// Counter names the tripped watchdog or budget: "trace-entries",
	// "script-steps", "injected-msgs", "timers", "stall", "wall-clock",
	// or "context".
	Counter string
	// Limit and Observed quantify the tripped counter.
	Limit, Observed int
	// Retries is how many extra attempts Run made (0 or 1).
	Retries int
	// Deterministic reports that the retry reproduced the containment.
	Deterministic bool
	// FirstKind is the first attempt's kind when the outcome is Flaky.
	FirstKind Kind
	// ReproPath is where the quarantine repro was written ("" if none).
	ReproPath string
}

// abortError carries a watchdog/budget verdict out of the simulation via
// panic; Run recovers it. It deliberately does not implement error — it
// must never be mistaken for a scenario failure by intermediate code.
type abortError struct{ out Outcome }

// Monitor is the per-run observer handed to the body. The body attaches
// it to the world it builds; until then (and with an all-zero Config) it
// is inert. A Monitor is single-run, single-goroutine state: do not
// share one across runs.
type Monitor struct {
	cfg      Config
	deadline time.Time
	log      *trace.Log
	injected func() int
	steps    int // executed sim-steps since Attach
	stall    int // sim-steps since the trace last grew
	lastLen  int
	timers   int
}

func newMonitor(cfg Config) *Monitor {
	m := &Monitor{cfg: cfg}
	if cfg.Timeout > 0 {
		m.deadline = time.Now().Add(cfg.Timeout)
	}
	return m
}

// Attach points the monitor at a freshly built world: its scheduler, its
// shared trace log, and a callback summing injected-message counts.
// Call it once, right after world construction; nil log/injected disable
// the corresponding checks.
func (m *Monitor) Attach(sched *simtime.Scheduler, log *trace.Log, injected func() int) {
	if m == nil || sched == nil {
		return
	}
	m.log, m.injected = log, injected
	if log != nil {
		m.lastLen = log.Len()
	}
	if m.cfg.watches() {
		sched.SetStepHook(m.onStep)
	}
	if m.cfg.Budget.Timers > 0 {
		m.timers = 0
		sched.SetScheduleHook(m.onSchedule)
	}
}

// ScriptStepLimit resolves the interpreter step limit: the script-step
// budget when one is configured, otherwise def.
func (m *Monitor) ScriptStepLimit(def int) int {
	if m != nil && m.cfg.Budget.ScriptSteps > 0 {
		return m.cfg.Budget.ScriptSteps
	}
	return def
}

// ExceedScriptSteps converts an interpreter step-limit error into a
// BudgetExceeded abort — but only when a script-step budget is actually
// configured. Without one it returns false and the error stays an
// ordinary scenario failure (the runner's built-in runaway guard).
func (m *Monitor) ExceedScriptSteps() bool {
	if m == nil || m.cfg.Budget.ScriptSteps <= 0 {
		return false
	}
	b := m.cfg.Budget.ScriptSteps
	m.abort(Outcome{
		Kind: BudgetExceeded, Counter: "script-steps", Limit: b, Observed: b + 1,
		Err: fmt.Errorf("budget exceeded: script-steps > %d", b),
	})
	return true // unreachable
}

func (m *Monitor) abort(out Outcome) {
	panic(&abortError{out: out})
}

// Counters snapshots the monitor's progress counters — executed
// sim-steps, the stall detector's streak and baseline, and fresh timer
// registrations — so a snapshot/fork harness can restore a forked run to
// the budget position its prefix had already consumed.
type Counters struct {
	Steps   int
	Stall   int
	LastLen int
	Timers  int
}

// Counters returns the monitor's current progress counters.
func (m *Monitor) Counters() Counters {
	if m == nil {
		return Counters{}
	}
	return Counters{Steps: m.steps, Stall: m.stall, LastLen: m.lastLen, Timers: m.timers}
}

// RestoreCounters rewinds the progress counters. Call it AFTER Attach:
// Attach zeroes the timer count and re-baselines the stall detector, and
// a restored run must instead resume from the captured position.
func (m *Monitor) RestoreCounters(c Counters) {
	if m == nil {
		return
	}
	m.steps, m.stall, m.lastLen, m.timers = c.Steps, c.Stall, c.LastLen, c.Timers
}

// onStep runs before every executed scheduler event.
func (m *Monitor) onStep() {
	m.steps++
	if b := m.cfg.Budget.TraceEntries; b > 0 && m.log != nil {
		if n := m.log.Len(); n > b {
			m.abort(Outcome{
				Kind: BudgetExceeded, Counter: "trace-entries", Limit: b, Observed: n,
				Err: fmt.Errorf("budget exceeded: trace-entries %d > %d", n, b),
			})
		}
	}
	if b := m.cfg.Budget.InjectedMsgs; b > 0 && m.injected != nil {
		if n := m.injected(); n > b {
			m.abort(Outcome{
				Kind: BudgetExceeded, Counter: "injected-msgs", Limit: b, Observed: n,
				Err: fmt.Errorf("budget exceeded: injected-msgs %d > %d", n, b),
			})
		}
	}
	if s := m.cfg.StallSteps; s > 0 && m.log != nil {
		if n := m.log.Len(); n != m.lastLen {
			m.lastLen, m.stall = n, 0
		} else if m.stall++; m.stall >= s {
			m.abort(Outcome{
				Kind: Livelock, Counter: "stall", Limit: s, Observed: m.stall,
				Err: fmt.Errorf("livelock: no new trace entries across %d sim-steps", s),
			})
		}
	}
	// Wall-clock and context checks are amortized: they cost a syscall /
	// atomic load, and sim-steps are the hot path.
	if m.steps&63 == 0 {
		if ctx := m.cfg.Context; ctx != nil {
			if err := ctx.Err(); err != nil {
				m.abort(Outcome{Kind: Timeout, Counter: "context", Err: err})
			}
		}
		if !m.deadline.IsZero() && time.Now().After(m.deadline) {
			m.abort(Outcome{
				Kind: Timeout, Counter: "wall-clock",
				Err: fmt.Errorf("timeout: run exceeded wall-clock deadline %v", m.cfg.Timeout),
			})
		}
	}
}

// onSchedule runs for every fresh event registration.
func (m *Monitor) onSchedule() {
	m.timers++
	if b := m.cfg.Budget.Timers; m.timers > b {
		m.abort(Outcome{
			Kind: BudgetExceeded, Counter: "timers", Limit: b, Observed: m.timers,
			Err: fmt.Errorf("budget exceeded: timers %d > %d", m.timers, b),
		})
	}
}

// Run executes body under the isolation contract and classifies the
// result. The body receives a fresh Monitor to attach to the world it
// builds; on retry it runs again from scratch with another fresh
// Monitor. Run never panics and never lets a body panic escape.
func Run(cfg Config, body func(m *Monitor) error) Outcome {
	out := runOnce(cfg, body)
	if cfg.Retry && out.Kind.Contained() {
		second := runOnce(cfg, body)
		if second.Kind.Contained() {
			// Reproduced: keep the first attempt's record (it is what a
			// non-retrying run would have reported) and mark it stable.
			out.Retries, out.Deterministic = 1, true
		} else {
			first := out.Kind
			out = second
			out.Kind, out.FirstKind, out.Retries = Flaky, first, 1
		}
	}
	if out.Kind.Contained() && (!cfg.Retry || out.Deterministic) &&
		cfg.ReproDir != "" && cfg.ReproSource != nil {
		path, err := EmitRepro(cfg.ReproDir, &out, cfg.ReproSource())
		if err != nil {
			out.Err = errors.Join(out.Err, err)
		} else {
			out.ReproPath = path
		}
	}
	return out
}

// runOnce is a single attempt: containment without retry or emission.
func runOnce(cfg Config, body func(m *Monitor) error) (out Outcome) {
	if cfg.Context != nil {
		if err := cfg.Context.Err(); err != nil {
			return Outcome{Kind: Timeout, Counter: "context", Err: err}
		}
	}
	m := newMonitor(cfg)
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if ab, ok := p.(*abortError); ok {
			out = ab.out
			return
		}
		out = Outcome{
			Kind:  ToolFault,
			Err:   fmt.Errorf("tool fault: panic: %v", p),
			Stack: string(debug.Stack()),
		}
	}()
	if err := body(m); err != nil {
		return Outcome{Kind: Fail, Err: err}
	}
	return Outcome{Kind: Pass}
}

// EmitRepro writes a quarantine repro: the scenario source under a
// header recording the containment kind and counter. Unlike a fuzzer
// find, a quarantined scenario cannot pass as a conformance test (it
// crashes or never finishes), so no golden trace accompanies it; the
// header's kind is the assertion a quarantine suite replays against.
func EmitRepro(dir string, out *Outcome, source string) (string, error) {
	if source == "" {
		return "", fmt.Errorf("harden: no repro source for %s containment", out.Kind)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "# quarantine: %s\n", out.Kind)
	if out.Counter != "" {
		fmt.Fprintf(&b, "# counter: %s\n", out.Counter)
	}
	if out.Err != nil {
		fmt.Fprintf(&b, "# detail: %s\n", firstLine(out.Err.Error()))
	}
	b.WriteString(source)
	if !strings.HasSuffix(source, "\n") {
		b.WriteByte('\n')
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("harden: %w", err)
	}
	name := fmt.Sprintf("quarantine_%s_%s.pfi",
		strings.ReplaceAll(out.Kind.String(), "-", "_"), hash8(source))
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		return "", fmt.Errorf("harden: %w", err)
	}
	return path, nil
}

// ReproKind parses the "# quarantine: <kind>" header of an emitted
// repro, so a quarantine suite can replay the scenario and assert the
// containment still classifies the same way. ok is false when the
// source carries no quarantine header.
func ReproKind(source string) (Kind, bool) {
	for _, line := range strings.Split(source, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "#") {
			if line == "" {
				continue
			}
			break // past the header block
		}
		if rest, found := strings.CutPrefix(line, "# quarantine:"); found {
			want := strings.TrimSpace(rest)
			for k, name := range kindNames {
				if name == want {
					return Kind(k), true
				}
			}
			break
		}
	}
	return Pass, false
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func hash8(s string) string {
	h := fnv.New64a()
	h.Write([]byte(s))
	return fmt.Sprintf("%016x", h.Sum64())[:8]
}
