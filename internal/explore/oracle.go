package explore

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pfi/internal/conformance"
	"pfi/internal/harden"
	"pfi/internal/raft"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// Violation kinds.
const (
	// ViolExecError: the scenario failed to execute — a script error, a
	// failed dial, a runaway loop hitting the step limit, or a panic in
	// the protocol stack. Reported but not emitted as a repro (an erroring
	// scenario cannot pass as a conformance test).
	ViolExecError = "exec-error"
	// ViolSilentCorruption: every byte was acknowledged and delivered, but
	// the delivered bytes differ from the sent ones — the stack accepted
	// in-flight corruption undetected.
	ViolSilentCorruption = "silent-corruption"
	// ViolAckDesync: the sender believes all data was acknowledged, yet
	// fewer bytes were delivered than sent — reliability broken.
	ViolAckDesync = "ack-desync"
	// ViolStall: the connection is open with unacknowledged data and the
	// world has been silent far beyond the retransmission ceiling — the
	// recovery engine died.
	ViolStall = "stall"
	// ViolSplitBrain: after every fault window closed and the network
	// healed, members still disagree about the group.
	ViolSplitBrain = "split-brain"
	// ViolStuckTransition: a member is wedged mid view-transition after
	// quiescence.
	ViolStuckTransition = "stuck-transition"
	// ViolElectionSafety: two raft nodes recorded winning the same term —
	// at most one leader may ever be elected per term, under any
	// non-Byzantine faultload, so this needs no quiescence window.
	ViolElectionSafety = "election-safety"
	// ViolCommitSafety: a raft log index was applied with two different
	// entry identities (payload#term) somewhere in the cluster — a
	// committed entry was lost or overwritten.
	ViolCommitSafety = "commit-safety"
	// ViolToolFault: the simulated world panicked; the isolation layer
	// contained it. Deterministic tool-faults shrink into quarantine
	// repros (Options.QuarantineDir) rather than passing conformance
	// scenarios.
	ViolToolFault = "tool-fault"
	// ViolLivelock: the world kept executing events without producing
	// new trace entries — the stall watchdog tripped.
	ViolLivelock = "livelock"
	// ViolBudget: a resource budget (trace entries, script steps,
	// injected messages, timers) was exhausted.
	ViolBudget = "budget-exceeded"
)

// containedKind reports whether a violation kind came from the isolation
// layer and is schedule-deterministic (emittable as a quarantine repro).
func containedKind(kind string) bool {
	return kind == ViolToolFault || kind == ViolLivelock || kind == ViolBudget
}

// Oracle thresholds (virtual milliseconds).
const (
	// stallSilenceMS must exceed the largest retransmission gap any
	// profile can produce (BSD plateaus at 64 s; Solaris's ninth backoff
	// doubling reaches ~84 s) so silence is proof of a dead timer, not a
	// long backoff.
	stallSilenceMS = 120_000
	// gmpSettleMS is how long a healed GMP world gets to converge before
	// disagreement counts as split-brain.
	gmpSettleMS = 90_000
)

// Violation is one oracle breach.
type Violation struct {
	// Kind is one of the Viol* constants.
	Kind string
	// Detail is a human-readable account of what was observed.
	Detail string
	// Nodes names the offending participant(s), space-separated (GMP
	// kinds; empty for TCP kinds).
	Nodes string
}

// Signature keys violation dedup: one finding per (kind, world, nodes).
func (v Violation) Signature(s Schedule) string {
	return v.Kind + "|" + s.World + "|" + s.Profile + "|" + v.Nodes
}

// Outcome is one evaluated schedule.
type Outcome struct {
	Schedule   Schedule
	Source     string
	Result     *conformance.Result
	Cov        *Coverage
	Violations []Violation
}

// EvaluateWith compiles and runs one schedule in a fresh world under the
// isolation policy cfg, hashes its trace into a coverage map, and applies
// the oracles. It never panics: the conformance runner executes the world
// through the harden isolation layer, so a panicking protocol stack comes
// back as a tool-fault violation, a stalled one as livelock, an over-budget
// one as budget-exceeded. Fuzzing runs thread Options.Harden through here,
// and fleet workers the job's wire-carried config, so a remotely evaluated
// schedule is judged exactly like a local one.
func EvaluateWith(s Schedule, prof tcp.Profile, cfg harden.Config) *Outcome {
	src, err := Compile(s)
	if err != nil {
		return compileErrOutcome(s, err)
	}
	r := conformance.Run(conformance.New("explore-"+s.Hash(), src), conformance.Options{Profile: prof, Harden: cfg})
	return outcomeOf(s, src, r)
}

// compileErrOutcome reports a schedule the compiler rejected — a mutator
// bug, not a protocol finding; surface loudly.
func compileErrOutcome(s Schedule, err error) *Outcome {
	out := &Outcome{Schedule: s, Cov: &Coverage{}}
	out.Violations = append(out.Violations, Violation{Kind: ViolExecError, Detail: "compile: " + err.Error()})
	return out
}

// outcomeOf hashes a finished run's trace into a coverage map and applies
// the oracles — the judgment half of evaluate, shared with the snapshot
// fast path (which obtains its Result from a session fork instead of a
// fresh conformance.Run).
func outcomeOf(s Schedule, src string, r *conformance.Result) *Outcome {
	out := &Outcome{Schedule: s, Source: src, Result: r}
	out.Cov = CoverageOf(r.Trace) // partial trace on contained runs — still deterministic
	if r.Isolation != nil && r.Outcome.Contained() {
		out.Violations = append(out.Violations, containedViolation(r.Isolation))
		return out
	}
	out.Violations = append(out.Violations, judge(s, r)...)
	return out
}

// containedViolation maps an isolation record onto the oracle taxonomy.
// Wall-clock timeouts and context cancellation are machine-dependent, so
// they degrade to exec-error (reported, never emitted or quarantined).
func containedViolation(iso *harden.Outcome) Violation {
	detail := ""
	if iso.Err != nil {
		detail = firstLine(iso.Err.Error())
	}
	switch iso.Kind {
	case harden.ToolFault:
		return Violation{Kind: ViolToolFault, Detail: detail}
	case harden.Livelock:
		return Violation{Kind: ViolLivelock, Detail: detail}
	case harden.BudgetExceeded:
		return Violation{Kind: ViolBudget, Detail: detail}
	default:
		return Violation{Kind: ViolExecError, Detail: detail}
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// judge applies the oracle set to a finished run.
func judge(s Schedule, r *conformance.Result) []Violation {
	if r.Err != nil {
		return []Violation{{Kind: ViolExecError, Detail: r.Err.Error()}}
	}
	endMS := int(time.Duration(r.Elapsed).Milliseconds())
	switch s.World {
	case WorldTCP:
		return judgeTCP(s, r, endMS)
	case WorldRaft:
		return judgeRaft(s, r)
	}
	return judgeGMP(s, r, endMS)
}

// tcpProbe is the parsed terminal probe of a TCP run.
type tcpProbe struct {
	state               string
	unacked, sent, recv int
	match               bool
}

// parseTCPProbe finds the final "probe tcp ..." driver entry.
func parseTCPProbe(entries []trace.Entry) (tcpProbe, bool) {
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.Node != "driver" || e.Kind != "scenario" || !strings.HasPrefix(e.Note, "probe tcp ") {
			continue
		}
		f := strings.Fields(e.Note)
		kv := map[string]string{}
		for j := 2; j+1 < len(f); j += 2 {
			kv[f[j]] = f[j+1]
		}
		p := tcpProbe{state: kv["state"]}
		p.unacked, _ = strconv.Atoi(kv["unacked"])
		p.sent, _ = strconv.Atoi(kv["sent"])
		p.recv, _ = strconv.Atoi(kv["recv"])
		p.match = kv["match"] == "1"
		return p, true
	}
	return tcpProbe{}, false
}

func judgeTCP(s Schedule, r *conformance.Result, endMS int) []Violation {
	p, ok := parseTCPProbe(r.Trace)
	if !ok {
		return nil
	}
	var vs []Violation
	if p.state == "ESTABLISHED" && p.sent > 0 && !p.match {
		switch {
		case p.unacked == 0 && p.recv == p.sent:
			vs = append(vs, Violation{
				Kind:   ViolSilentCorruption,
				Detail: fmt.Sprintf("all %d bytes acked and delivered but payload differs from what was sent", p.sent),
			})
		case p.unacked == 0 && p.recv < p.sent:
			vs = append(vs, Violation{
				Kind:   ViolAckDesync,
				Detail: fmt.Sprintf("sender saw all %d bytes acked, receiver delivered only %d", p.sent, p.recv),
			})
		case p.unacked > 0 && s.Quiescent(endMS, stallSilenceMS) && silenceMS(r.Trace, endMS) >= stallSilenceMS:
			vs = append(vs, Violation{
				Kind: ViolStall,
				Detail: fmt.Sprintf("connection open with %d unacked segment(s), world silent for %dms past every fault window",
					p.unacked, silenceMS(r.Trace, endMS)),
			})
		}
	}
	return vs
}

// silenceMS is how long before the end of the run the last non-driver
// trace entry occurred.
func silenceMS(entries []trace.Entry, endMS int) int {
	for i := len(entries) - 1; i >= 0; i-- {
		if entries[i].Node == "driver" {
			continue
		}
		return endMS - int(time.Duration(entries[i].At).Milliseconds())
	}
	return endMS
}

// judgeRaft applies raft's two safety oracles to the full event history.
// Unlike the TCP/GMP liveness oracles they hold unconditionally — a
// partitioned, suspended, or lossy world may look stuck, but it may never
// elect two leaders in one term or apply two identities at one index — so
// no quiescence gate applies and findings can never be fault-masked.
// Violations carry an empty Nodes field: the offending nodes shift as the
// shrinker strips genes, and pinning them would stop ddmin cold.
func judgeRaft(s Schedule, r *conformance.Result) []Violation {
	var vs []Violation
	elections, applies := raft.SafetyConflicts(r.Trace)
	if len(elections) > 0 {
		vs = append(vs, Violation{
			Kind:   ViolElectionSafety,
			Detail: fmt.Sprintf("term %d elected two leaders: %s", elections[0].Key, strings.Join(elections[0].Members, ", ")),
		})
	}
	if len(applies) > 0 {
		vs = append(vs, Violation{
			Kind:   ViolCommitSafety,
			Detail: fmt.Sprintf("log index %d applied with conflicting identities: %s", applies[0].Key, strings.Join(applies[0].Members, ", ")),
		})
	}
	return vs
}

// gmpProbe is one member's terminal state.
type gmpProbe struct {
	trans bool
	group []string
}

// parseGMPProbes collects the final "probe gmp <name> ..." entries.
func parseGMPProbes(entries []trace.Entry) map[string]gmpProbe {
	out := map[string]gmpProbe{}
	for _, e := range entries {
		if e.Node != "driver" || e.Kind != "scenario" || !strings.HasPrefix(e.Note, "probe gmp ") {
			continue
		}
		// Layout: probe gmp <name> trans <0|1> group <members...>
		f := strings.Fields(e.Note)
		if len(f) < 6 || f[3] != "trans" || f[5] != "group" {
			continue
		}
		name := f[2]
		p := gmpProbe{trans: f[4] == "1"}
		if len(f) > 6 {
			p.group = f[6:]
		}
		out[name] = p
	}
	return out
}

func judgeGMP(s Schedule, r *conformance.Result, endMS int) []Violation {
	if !s.Quiescent(endMS, gmpSettleMS) {
		return nil
	}
	probes := parseGMPProbes(r.Trace)
	if len(probes) == 0 {
		return nil
	}
	names := gmpNodeNames(s.Nodes)
	var vs []Violation
	for _, n := range names {
		if probes[n].trans {
			vs = append(vs, Violation{
				Kind:   ViolStuckTransition,
				Detail: fmt.Sprintf("%s still mid view-transition %dms after the last fault window closed", n, gmpSettleMS),
				Nodes:  n,
			})
		}
	}
	// Split-brain: if b is in a's committed view, their views must agree.
	for _, a := range names {
		ga := probes[a].group
		if len(ga) == 0 {
			continue
		}
		inA := map[string]bool{}
		for _, m := range ga {
			inA[m] = true
		}
		for _, b := range names {
			if b == a || !inA[b] {
				continue
			}
			if gb := probes[b].group; len(gb) > 0 && strings.Join(gb, " ") != strings.Join(ga, " ") {
				vs = append(vs, Violation{
					Kind:   ViolSplitBrain,
					Detail: fmt.Sprintf("%s sees {%s} but %s sees {%s} after heal", a, strings.Join(ga, " "), b, strings.Join(gb, " ")),
					Nodes:  a + " " + b,
				})
				return vs // one pair is enough; avoid quadratic findings
			}
		}
	}
	return vs
}
