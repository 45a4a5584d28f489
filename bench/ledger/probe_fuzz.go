package ledger

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"time"

	"pfi/internal/conformance"
	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/explore"
	"pfi/internal/harden"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/tcp"
)

var scriptLine = regexp.MustCompile(`(?m)^script: (\d+) compiled`)

// fuzzProbes decompose one fuzz-mixed child: the same exploration run in
// this process, once plain and once with every candidate evaluation timed
// through the EvalBatch hook, then the steps each candidate repeats
// (compile, parse, world build, filter install, fork or fresh replay).
func (p *prober) fuzzProbes() {
	prof := tcp.SunOS413()
	opts := explore.Options{Seed: 1, Budget: FuzzBudget, Workers: 1, Snapshot: true}
	checkRep := func(rep *explore.Report, err error) error {
		if err != nil {
			return err
		}
		if !p.e.Pinning && rep.Fingerprint != p.e.Pins.FuzzFingerprint {
			return fmt.Errorf("in-process fingerprint %s, want %s", rep.Fingerprint, p.e.Pins.FuzzFingerprint)
		}
		return nil
	}

	p.span("explore.Fuzz", func() error {
		var rep *explore.Report
		var err error
		o := p.once(func() { rep, err = explore.Fuzz(opts) })
		if err := checkRep(rep, err); err != nil {
			return err
		}
		total := float64(rep.Runs + rep.ShrinkRuns)
		p.out["explore.allocs_per_candidate"] = o.allocs / total
		p.out["explore.kb_per_candidate"] = o.bytes / 1024 / total
		p.out["snapshot.hit_share"] = float64(rep.Snapshot.FastRuns) / float64(rep.Runs)
		return nil
	})

	// The hook owns batch evaluation, so snapshots are off on this run and
	// shrink evaluations (which bypass the hook) count as explore's own.
	var evalUS []float64
	var scheds []explore.Schedule
	p.span("explore.Fuzz+EvalBatch", func() error {
		hooked := opts
		var inEval time.Duration
		hooked.EvalBatch = func(_ context.Context, batch []explore.Schedule) ([]*explore.Outcome, error) {
			outs := make([]*explore.Outcome, len(batch))
			for i, s := range batch {
				_, end := p.e.Trace.Start("explore.EvaluateWith", p.group, p.parent)
				start := time.Now()
				outs[i] = explore.EvaluateWith(s, prof, harden.Config{})
				d := time.Since(start)
				end()
				inEval += d
				evalUS = append(evalUS, float64(d.Nanoseconds())/1e3)
			}
			scheds = append(scheds, batch...)
			return outs, nil
		}
		var rep *explore.Report
		var err error
		o := p.once(func() { rep, err = explore.Fuzz(hooked) })
		if err := checkRep(rep, err); err != nil {
			return err
		}
		p.out["explore.evaluate_us_p50"] = Percentile(evalUS, 50)
		p.out["explore.evaluate_us_p99"] = Percentile(evalUS, 99)
		p.out["explore.self_share"] = (o.ns - float64(inEval.Nanoseconds())) / o.ns
		return nil
	})
	if len(scheds) == 0 {
		p.fail("explore.Fuzz+EvalBatch", errors.New("no candidates captured"))
		return
	}

	// The generation-zero batch stands for the candidates: the same first
	// 32 schedules on every run.
	if len(scheds) > 32 {
		scheds = scheds[:32]
	}
	srcs := make([]string, len(scheds))
	n := float64(len(scheds))
	p.span("explore.compile_us", func() error {
		var err error
		o := p.loop(1, func() {
			for i, s := range scheds {
				if srcs[i], err = explore.Compile(s); err != nil {
					return
				}
			}
		})
		p.out["explore.compile_us"] = o.ns / 1e3 / n
		return err
	})
	p.span("conformance.parse_us", func() error {
		var err error
		o := p.loop(1, func() {
			for _, src := range srcs {
				if _, perr := script.Parse(src); perr != nil {
					err = perr
				}
			}
		})
		p.out["conformance.parse_us"] = o.ns / 1e3 / n
		return err
	})
	p.span("conformance.world_build_us_tcp", func() error {
		var err error
		p.us("conformance.world_build_us_tcp", p.loop(4, func() { _, err = exp.NewTCPRig(prof) }))
		return err
	})
	p.span("conformance.world_build_us_gmp", func() error {
		var err error
		p.us("conformance.world_build_us_gmp", p.loop(4, func() { _, err = exp.NewGMPRig([]string{"gmd1", "gmd2", "gmd3"}) }))
		return err
	})

	tcpSrc, body := "", ""
	for _, src := range srcs {
		if tcpSrc == "" && strings.Contains(src, "\ntcp_stream ") {
			tcpSrc = src
		}
		if body == "" {
			body = faultloadBody(src)
		}
	}
	p.span("core.set_script_us", func() error {
		if body == "" {
			return errors.New("no candidate carries a faultload")
		}
		var err error
		p.us("core.set_script_us", p.loop(4, func() {
			env := &stack.Env{Sched: simtime.NewScheduler(), Node: "vendor"}
			err = core.NewLayer(env, core.WithStub(tcp.PFIStub{})).SetSendScript(body)
		}))
		return err
	})
	p.span("snapshot.fork_us", func() error {
		if tcpSrc == "" {
			return errors.New("no tcp candidate in the first generation")
		}
		cut := strings.Index(tcpSrc, "\ntcp_stream ")
		cut += 1 + strings.Index(tcpSrc[cut+1:], "\n") + 1
		prefix, suffix := tcpSrc[:cut], tcpSrc[cut:]
		copts := conformance.Options{Profile: prof}
		sess, err := conformance.NewSession(prefix, copts)
		if err != nil {
			return err
		}
		clean := true
		p.us("snapshot.fork_us", p.loop(1, func() {
			_, ok := sess.Run("probe", suffix)
			clean = clean && ok
		}))
		p.us("snapshot.fresh_us", p.loop(1, func() { conformance.Run(conformance.New("probe", tcpSrc), copts) }))
		if !clean {
			return errors.New("session fork did not complete cleanly")
		}
		return nil
	})
	p.span("harden.run_us", func() error {
		p.us("harden.run_us", p.loop(100, func() {
			harden.Run(harden.Config{}, func(*harden.Monitor) error { return nil })
		}))
		return nil
	})
	p.span("script.compiles_per_candidate", func() error {
		r, err := p.e.fuzzRound(roundOpts{parent: p.parent, unit: p.group})
		if err != nil {
			return err
		}
		// A CLI that stops printing the package-global script counters
		// reports -1 here instead of breaking the benchmark.
		p.out["script.compiles_per_candidate"] = -1
		if m := scriptLine.FindSubmatch(r.Stdout); m != nil {
			compiled, _ := strconv.Atoi(string(m[1]))
			p.out["script.compiles_per_candidate"] = float64(compiled) / float64(r.Units)
		}
		return nil
	})
}

// faultloadBody returns the script of the first faultload statement in a
// compiled scenario, or "".
func faultloadBody(src string) string {
	i := strings.Index(src, "faultload ")
	if i < 0 {
		return ""
	}
	open := strings.Index(src[i:], "{")
	if open < 0 {
		return ""
	}
	depth := 0
	for j := i + open; j < len(src); j++ {
		switch src[j] {
		case '{':
			depth++
		case '}':
			depth--
			if depth == 0 {
				return src[i+open+1 : j]
			}
		}
	}
	return ""
}
