// Package campaign implements the paper's future-work item (ii):
// "automatic generation of test scripts from a protocol specification".
//
// Given a protocol specification — the message types a stub recognizes and
// the fault vocabulary to exercise — Generate produces the full matrix of
// deterministic filter scripts: for every (message type × fault kind ×
// direction), one script that injects exactly that fault into exactly that
// traffic. A Campaign then drives a user-supplied scenario once per case
// and collects verdicts, turning the paper's hand-written experiments into
// a systematic sweep.
package campaign

import (
	"fmt"
	"strings"
	"time"

	"pfi/internal/core"
	"pfi/internal/fault"
	"pfi/internal/harden"
)

// FaultKind and Drop name fault.Kind and fault.Drop for the end-to-end
// ledger's raft probe (bench/ledger/probe_raft.go), which builds its
// campaign spec from them; new code names the fault package directly.
type FaultKind = fault.Kind

// Drop is fault.Drop; see FaultKind.
const Drop = fault.Drop

// Spec describes the protocol under test.
type Spec struct {
	// Protocol names the target (diagnostics only).
	Protocol string
	// Types lists the message types the protocol's stub recognizes.
	Types []string
	// Faults selects the fault vocabulary (nil = fault.Kinds()).
	Faults []fault.Kind
	// Directions selects which filters to target (nil = both).
	Directions []core.Direction
	// DelayMS parameterizes Delay cases (default 2000).
	DelayMS int
	// FirstN parameterizes DropFirstN cases (default 3).
	FirstN int
	// CorruptOffset is the byte index Corrupt cases flip (default 0).
	CorruptOffset int
}

func (s Spec) withDefaults() Spec {
	if s.Faults == nil {
		s.Faults = fault.Kinds()
	}
	if s.Directions == nil {
		s.Directions = []core.Direction{core.Send, core.Receive}
	}
	if s.DelayMS == 0 {
		s.DelayMS = 2000
	}
	if s.FirstN == 0 {
		s.FirstN = 3
	}
	return s
}

// Validate checks the specification.
func (s Spec) Validate() error {
	if len(s.Types) == 0 {
		return fmt.Errorf("campaign: spec has no message types")
	}
	for _, t := range s.Types {
		if strings.ContainsAny(t, "{}[]$\"\\") {
			return fmt.Errorf("campaign: message type %q contains script metacharacters", t)
		}
	}
	if s.DelayMS < 0 || s.FirstN < 0 || s.CorruptOffset < 0 {
		return fmt.Errorf("campaign: negative parameter")
	}
	return nil
}

// Case is one generated test: a single fault on a single message type in a
// single direction.
type Case struct {
	// Name is a unique "type/fault/direction" label.
	Name string
	// Type is the targeted message type.
	Type string
	// Fault is the injected fault kind.
	Fault fault.Kind
	// Dir selects the send or receive filter.
	Dir core.Direction
	// Script is the generated Tcl filter source.
	Script string
}

// Apply installs the case's script on the given PFI layer (clearing the
// other direction).
func (c Case) Apply(l *core.Layer) error {
	if c.Dir == core.Send {
		if err := l.SetReceiveScript(""); err != nil {
			return err
		}
		return l.SetSendScript(c.Script)
	}
	if err := l.SetSendScript(""); err != nil {
		return err
	}
	return l.SetReceiveScript(c.Script)
}

// Generate expands the specification into its deterministic case matrix.
func Generate(spec Spec) ([]Case, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.withDefaults()
	var cases []Case
	for _, typ := range spec.Types {
		guard := fmt.Sprintf(`[msg_type cur_msg] eq "%s"`, typ)
		for _, f := range spec.Faults {
			script, err := f.Snippet(guard, spec.param(f), "")
			if err != nil {
				return nil, err
			}
			for _, dir := range spec.Directions {
				cases = append(cases, Case{
					Name:   fmt.Sprintf("%s/%s/%s", typ, f, dir),
					Type:   typ,
					Fault:  f,
					Dir:    dir,
					Script: script,
				})
			}
		}
	}
	return cases, nil
}

// param is the spec's parameter for fault kind f.
func (s Spec) param(f fault.Kind) int {
	switch f {
	case fault.Delay:
		return s.DelayMS
	case fault.DropFirstN:
		return s.FirstN
	case fault.Corrupt:
		return s.CorruptOffset
	}
	return 0
}

// Verdict is the outcome of one case run.
type Verdict struct {
	Case Case
	// OK reports whether the scenario's success criterion held under the
	// injected fault.
	OK bool
	// Note carries scenario-specific detail (what broke, counters, ...).
	Note string
	// Err reports a harness failure (script error, setup failure) or, for
	// contained runs, the isolation layer's description of what tripped.
	Err error
	// Elapsed is the wall-clock cost of the case.
	Elapsed time.Duration
	// Outcome classifies the run under the harden taxonomy. Pass/Fail are
	// ordinary completions; ToolFault, Timeout, Livelock, and
	// BudgetExceeded are containment events; Flaky means the first
	// attempt was contained but the retry completed.
	Outcome harden.Kind
	// Isolation carries the full containment record (stack, counter,
	// retry classification, repro path) for every non-Pass/Fail outcome;
	// nil when the run completed under its own power.
	Isolation *harden.Outcome
}

// Status renders the verdict's status column: the isolation taxonomy tag
// (CRASH, TIMEOUT, LIVELOCK, BUDGET, FLAKY) when the run was contained or
// flaky, else the classic PASS/FAIL/ERROR triple.
func (v Verdict) Status() string {
	if v.Outcome.Contained() || v.Outcome == harden.Flaky {
		return v.Outcome.Tag()
	}
	switch {
	case v.Err != nil:
		return "ERROR"
	case !v.OK:
		return "FAIL"
	}
	return "PASS"
}

// Scenario runs the system under test with the given case already applied
// and reports whether the protocol behaved acceptably. The monitor is the
// isolation layer's observer: a scenario that builds a simulated world
// should Attach it (scheduler, trace log, injected-message counter) so
// watchdogs and budgets can meter the run. Ignoring it is safe — panic
// containment and retry work regardless.
type Scenario func(m *harden.Monitor, c Case) (ok bool, note string, err error)

// Run executes every generated case against the scenario, serially, and
// returns the verdicts in generation order plus sweep statistics. It is
// RunParallel with a single worker.
func Run(spec Spec, scenario Scenario) ([]Verdict, RunStats, error) {
	return RunParallel(spec, scenario, Options{Workers: 1})
}

// Failures filters the verdicts that did not hold (or errored).
func Failures(vs []Verdict) []Verdict {
	var out []Verdict
	for _, v := range vs {
		if !v.OK || v.Err != nil {
			out = append(out, v)
		}
	}
	return out
}

// Summary renders a one-line-per-case report. Pass the RunStats returned
// by Run/RunParallel to append a throughput line.
func Summary(vs []Verdict, stats ...RunStats) string {
	var b strings.Builder
	pass := 0
	for _, v := range vs {
		status := v.Status()
		if status == "PASS" {
			pass++
		}
		note := v.Note
		if note == "" && v.Err != nil {
			note = v.Err.Error()
		}
		fmt.Fprintf(&b, "%-8s %-40s %s\n", status, v.Case.Name, note)
	}
	fmt.Fprintf(&b, "%d/%d cases passed\n", pass, len(vs))
	for _, st := range stats {
		fmt.Fprintf(&b, "%s\n", st)
	}
	return b.String()
}
