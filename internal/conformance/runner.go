package conformance

import (
	"context"
	"fmt"
	"io"
	"sync"

	"pfi/internal/campaign"
	"pfi/internal/harden"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// stepLimit bounds scenario interpreter work so a runaway while-loop in a
// .pfi file fails fast instead of hanging the suite.
const stepLimit = 2_000_000

// Options configures a conformance run.
type Options struct {
	// Profile is the default vendor profile for `world tcp` scenarios that
	// do not name one. Zero value means SunOS 4.1.3, the paper's baseline.
	Profile tcp.Profile
	// Workers is the fan-out for RunAll (0 or 1: serial). Each scenario
	// still runs its own single-threaded simulated world; parallelism is
	// across scenarios, exactly like a campaign sweep.
	Workers int
	// OnResult, if set, is called for each finished scenario in completion
	// order (RunAll may invoke it from multiple goroutines; calls are
	// serialized).
	OnResult func(*Result)
	// Context cancels a RunAll between scenarios.
	Context context.Context
	// Harden is the per-scenario isolation policy (watchdogs, budgets,
	// retry). The zero value still contains panics: a crashing scenario
	// becomes a ToolFault result instead of a dead process.
	Harden harden.Config
	// ProgDump, when set, receives a disassembly of every faultload
	// filter program as it is installed —
	// the pfitest -dump-prog flag.
	ProgDump io.Writer
}

func (o Options) profile() tcp.Profile {
	if o.Profile.Name == "" {
		return tcp.SunOS413()
	}
	return o.Profile
}

// Result is the outcome of replaying one scenario.
type Result struct {
	// Scenario and Path identify the source.
	Scenario string
	Path     string
	// Profile is the default vendor profile the run was offered (the
	// scenario may have pinned a different one via `world tcp <name>`).
	Profile string
	// World names the profile actually instantiated ("" if the scenario
	// never built a world, e.g. because it errored first).
	World string
	// Verdicts are the structured outcomes of every checked step, in
	// execution order.
	Verdicts []Verdict
	// Trace is the world's full event log at the end of the run.
	Trace []trace.Entry
	// Elapsed is the final virtual time.
	Elapsed simtime.Time
	// Err is non-nil if the scenario itself failed to execute (syntax
	// error, unknown node, ...) or was contained by the isolation layer.
	// A failing expect is a !OK Verdict, not an Err.
	Err error
	// Outcome classifies the run under the harden taxonomy (Pass/Fail
	// for ordinary completions; ToolFault/Timeout/Livelock/
	// BudgetExceeded/Flaky for isolation events).
	Outcome harden.Kind
	// Isolation carries the full containment record for non-Pass/Fail
	// outcomes; nil when the scenario completed under its own power. On
	// contained runs Verdicts/Trace/Elapsed hold the partial state up to
	// the abort.
	Isolation *harden.Outcome
}

// OK reports whether the scenario executed and every checked step passed.
func (r *Result) OK() bool {
	if r.Err != nil {
		return false
	}
	for _, v := range r.Verdicts {
		if !v.OK {
			return false
		}
	}
	return true
}

// Failed returns the verdicts that did not hold.
func (r *Result) Failed() []Verdict {
	var out []Verdict
	for _, v := range r.Verdicts {
		if !v.OK {
			out = append(out, v)
		}
	}
	return out
}

// Run replays one scenario in a fresh world and interpreter, through the
// harden isolation layer: panics, watchdog trips, and exhausted budgets
// become classified Outcomes carrying the partial trace, never a crash
// of the calling process.
func Run(sc *Scenario, opts Options) *Result {
	prof := opts.profile()
	res := &Result{Scenario: sc.Name, Path: sc.Path, Profile: prof.Name}

	cfg := opts.Harden
	if cfg.ReproSource == nil {
		src := sc.Source
		cfg.ReproSource = func() string { return src }
	}
	// h escapes the body so the partial trace and verdicts survive an
	// abort mid-scenario (on retry it points at the last attempt).
	var h *harness
	iso := harden.Run(cfg, func(m *harden.Monitor) error {
		h = newHarness(prof)
		h.progDump = opts.ProgDump
		return h.eval(sc.Source, m)
	})

	res.Outcome = iso.Kind
	if h != nil {
		res.Verdicts = h.verdicts
		res.Trace = h.detach()
		res.Elapsed = h.now()
		if h.kind == "tcp" {
			res.World = h.prof.Name
		} else if h.kind == "gmp" || h.kind == "raft" {
			res.World = h.kind
		}
	}
	if iso.Kind != harden.Pass && iso.Kind != harden.Fail {
		isoCopy := iso
		res.Isolation = &isoCopy
	}
	if iso.Err != nil {
		res.Err = fmt.Errorf("conformance: scenario %s: %w", sc.Name, iso.Err)
	}
	return res
}

// eval runs src in a fresh interpreter bound to h, metered by m. It is the
// one evaluation path: Run calls it inside its own isolation, and a
// campaign Cell under the monitor campaign.RunCase passes in.
func (h *harness) eval(src string, m *harden.Monitor) error {
	h.monitor = m
	in := script.New()
	in.SetStepLimit(m.ScriptStepLimit(stepLimit))
	registerCommands(in, h)
	_, err := in.Eval(src)
	if err != nil && in.StepLimitHit() {
		m.ExceedScriptSteps() // aborts when a script-step budget is set
	}
	return err
}

// RunAll replays every scenario, fanning out across opts.Workers via the
// campaign worker pool. Results come back in scenario order regardless of
// completion order, so serial and parallel runs are directly comparable.
func RunAll(scs []*Scenario, opts Options) []*Result {
	results := make([]*Result, len(scs))
	var mu sync.Mutex
	_ = campaign.ForEach(opts.Context, opts.Workers, len(scs), func(i int) {
		r := Run(scs[i], opts)
		results[i] = r
		if opts.OnResult != nil {
			mu.Lock()
			opts.OnResult(r)
			mu.Unlock()
		}
	})
	return results
}
