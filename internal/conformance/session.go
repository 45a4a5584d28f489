package conformance

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"pfi/internal/harden"
	"pfi/internal/script"
	"pfi/internal/snapshot"
	"pfi/internal/tcp"
)

// harnessSaved is the harness's own mutable state at a capture point —
// everything the scenario commands change that lives outside the world's
// snapshot registry. The sent log and the verdict slice are append-only
// during a run, so their state is their length; the delivered-stream
// comparison is its three fields (recvAhead is consumed from the front, so
// it is copied); the connection pointers keep their identity across a world
// restore (the TCP layer snapshots them in place).
type harnessSaved struct {
	tol          time.Duration
	conn, server *tcp.Conn
	sentLen      int
	recvN        int
	recvBad      bool
	recvAhead    []byte
	verdictsLen  int
}

func (h *harness) save() harnessSaved {
	return harnessSaved{
		tol:         h.tol,
		conn:        h.conn,
		server:      h.server,
		sentLen:     h.sent.len(),
		recvN:       h.recvN,
		recvBad:     h.recvBad,
		recvAhead:   append([]byte(nil), h.recvAhead...),
		verdictsLen: len(h.verdicts),
	}
}

func (h *harness) rewind(sv harnessSaved) {
	h.tol = sv.tol
	h.conn, h.server = sv.conn, sv.server
	h.sent.truncate(sv.sentLen)
	h.recvN, h.recvBad = sv.recvN, sv.recvBad
	h.recvAhead = append(h.recvAhead[:0], sv.recvAhead...)
	h.verdicts = h.verdicts[:sv.verdictsLen]
}

// Session evaluates many scenario suffixes against one captured prefix.
//
// NewSession runs the prefix once in a fresh world and snapshots everything
// mutable — the scheduler, the network, every protocol layer, the trace
// log, the scenario interpreter, the harness bookkeeping, and the isolation
// monitor's progress counters. Each Run then rewinds to that instant and
// executes only the suffix, so a generation of fuzzing candidates sharing a
// schedule prefix costs O(delta) per candidate instead of a full replay.
//
// A Session owns one single-threaded world: Run calls must not overlap.
type Session struct {
	opts        Options
	h           *harness
	in          *script.Interp
	snap        *snapshot.Snapshot
	interpState interface{} // commands.go's `any` wildcard shadows the alias
	counters    harden.Counters
	prefixSteps int
	saved       harnessSaved
}

// sessionConfig strips the per-run policies that only make sense for a
// whole fresh scenario: retry re-runs the body from scratch (a session body
// is a suffix, not a scenario) and repro emission needs the full source.
// Callers re-evaluate untrusted candidates through Run, where both apply.
func sessionConfig(cfg harden.Config) harden.Config {
	cfg.Retry = false
	cfg.ReproDir, cfg.ReproSource = "", nil
	return cfg
}

// NewSession evaluates prefix in a fresh world and captures the result. It
// fails when the prefix does not complete cleanly (its containment or error
// belongs to the full scenario, which the caller should run normally) or
// when it never builds a world.
func NewSession(prefix string, opts Options) (*Session, error) {
	s := &Session{opts: opts}
	var pm *harden.Monitor
	iso := harden.Run(sessionConfig(opts.Harden), func(m *harden.Monitor) error {
		pm = m
		s.h = newHarness(opts.profile())
		s.h.monitor = m
		s.in = script.New()
		s.in.SetStepLimit(m.ScriptStepLimit(stepLimit))
		registerCommands(s.in, s.h)
		_, err := s.in.Eval(prefix)
		if err != nil && s.in.StepLimitHit() {
			m.ExceedScriptSteps()
		}
		return err
	})
	if iso.Kind != harden.Pass || iso.Err != nil {
		return nil, fmt.Errorf("conformance: session prefix did not complete cleanly (%s)", iso.Kind)
	}
	if s.h.w == nil {
		return nil, fmt.Errorf("conformance: session prefix built no world")
	}
	s.snap = s.h.w.Snapshots().Capture()
	s.interpState = s.in.SnapshotState()
	s.counters = pm.Counters()
	s.prefixSteps = s.in.Steps()
	s.saved = s.h.save()
	return s, nil
}

// rewind restores the world, interpreter, and harness to the captured
// instant and re-points the isolation machinery at the given monitor. The
// counter restore comes after Attach, which would otherwise re-baseline the
// stall detector and zero the timer budget the prefix already consumed.
func (s *Session) rewind(m *harden.Monitor) {
	s.snap.Restore()
	s.in.RestoreState(s.interpState)
	s.h.rewind(s.saved)
	s.h.monitor = m
	s.h.attachMonitor()
	m.RestoreCounters(s.counters)
}

// Run forks a child from the captured prefix and evaluates one suffix in
// it. The suffix's step budget is the full scenario limit minus what the
// prefix consumed, so step-limit semantics match a fresh full run exactly.
//
// ok is true only for a clean completion (Pass): such a Result is
// bit-identical to a fresh replay of prefix+suffix. Anything else —
// scenario error, containment, watchdog trip — returns ok=false with a nil
// Result; the caller must re-evaluate the full scenario in a fresh world,
// where retry classification and repro emission apply. The failed fork
// leaves no residue: the next Run rewinds to the same captured instant.
func (s *Session) Run(name, suffix string) (*Result, bool) {
	iso := harden.Run(sessionConfig(s.opts.Harden), func(m *harden.Monitor) error {
		s.rewind(m)
		limit := m.ScriptStepLimit(stepLimit) - s.prefixSteps
		if limit < 1 {
			limit = 1
		}
		s.in.SetStepLimit(limit)
		_, err := s.in.Eval(suffix)
		if err != nil && s.in.StepLimitHit() {
			m.ExceedScriptSteps()
		}
		return err
	})
	if iso.Kind != harden.Pass || iso.Err != nil {
		return nil, false
	}
	res := &Result{
		Scenario: name,
		Profile:  s.opts.profile().Name,
		Outcome:  harden.Pass,
		Verdicts: append([]Verdict(nil), s.h.verdicts...),
		Trace:    s.h.entries(),
		Elapsed:  s.h.now(),
	}
	switch s.h.kind {
	case "tcp":
		res.World = s.h.prof.Name
	case "gmp", "raft":
		res.World = s.h.kind
	}
	return res, true
}

// Shell is an interactive scenario session for REPL use (cmd/pfish): the
// full conformance command set bound to one live world, plus snapshot
// builtins so a campaign cell can be resumed and re-explored mid-run
// without replaying its prefix after every experiment:
//
//	snapshot ?name?   capture the world under a mark (default "last")
//	restore ?name?    rewind the world to a mark
//	snapshots         list the marks
//	verdicts          print every recorded check verdict so far
//
// Unlike Run/Session, a Shell executes outside the harden isolation layer —
// it is a debugging tool, and a panic should reach the developer.
type Shell struct {
	h     *harness
	in    *script.Interp
	marks map[string]*shellMark
}

type shellMark struct {
	snap   *snapshot.Snapshot
	interp interface{}
	saved  harnessSaved
}

// NewShell builds an interactive scenario interpreter.
func NewShell(opts Options) *Shell {
	h := newHarness(opts.profile())
	in := script.New()
	registerCommands(in, h)
	sh := &Shell{h: h, in: in, marks: map[string]*shellMark{}}

	in.Register("snapshot ?name?", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needWorld(); err != nil {
			return "", err
		}
		name := "last"
		if len(args) == 1 {
			name = args[0]
		}
		sh.marks[name] = &shellMark{
			snap:   h.w.Snapshots().Capture(),
			interp: in.SnapshotState(),
			saved:  h.save(),
		}
		return name, nil
	})

	in.Register("restore ?name?", func(_ *script.Interp, args []string) (string, error) {
		name := "last"
		if len(args) == 1 {
			name = args[0]
		}
		mk, ok := sh.marks[name]
		if !ok {
			have := sh.markNames()
			if len(have) == 0 {
				return "", fmt.Errorf("no snapshot %q (none captured yet)", name)
			}
			return "", fmt.Errorf("no snapshot %q (have %s)", name, strings.Join(have, ", "))
		}
		mk.snap.Restore()
		in.RestoreState(mk.interp)
		h.rewind(mk.saved)
		return name, nil
	})

	in.Register("snapshots", func(_ *script.Interp, args []string) (string, error) {
		return strings.Join(sh.markNames(), " "), nil
	})

	in.Register("verdicts", func(_ *script.Interp, args []string) (string, error) {
		lines := make([]string, len(h.verdicts))
		for i, v := range h.verdicts {
			lines[i] = v.String()
		}
		return strings.Join(lines, "\n"), nil
	})

	return sh
}

// Interp exposes the shell's interpreter for the REPL loop.
func (sh *Shell) Interp() *script.Interp { return sh.in }

func (sh *Shell) markNames() []string {
	names := make([]string, 0, len(sh.marks))
	for n := range sh.marks {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
