// Command pficampaign generates a fault-injection campaign from a protocol
// specification and sweeps it over a live simulated cluster, fanning cases
// out across a worker pool.
//
// Usage:
//
//	pficampaign                       # sweep the GMP matrix, one worker per CPU
//	pficampaign -workers 8            # explicit pool size
//	pficampaign -faults drop,delay    # restrict the fault vocabulary
//	pficampaign -types HEARTBEAT,ACK  # restrict the targeted message types
//	pficampaign -list                 # print the generated cases and exit
//
// Sharded (fleet) mode distributes the same sweep over worker processes
// with bit-identical merged verdicts (see internal/fleet):
//
//	pficampaign -spawn-workers 4              # fork 4 local worker processes
//	pficampaign -serve :8080                  # also serve HTTP workers + /status /metrics
//	pficampaign -connect http://host:8080     # run as a remote worker
//	pficampaign -worker-stdio                 # run as a spawned stdio worker (internal)
//
// Each case boots a fresh 3-daemon GMP cluster, faults one daemon's
// traffic with the generated filter script, and checks the healthy pair
// still converges to a common membership view.
//
// Every case runs through the harden isolation layer: a panicking or
// livelocked cell becomes one CRASH/LIVELOCK verdict instead of killing
// the sweep. The -run-timeout, -stall-steps, and -budget-* flags tune the
// watchdogs and resource budgets; -quarantine emits a headered .pfi repro
// for every deterministic contained failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/fault"
	"pfi/internal/fleet"
	"pfi/internal/gmp"
	"pfi/internal/harden"
	"pfi/internal/lifecycle"
	"pfi/internal/netsim"
	"pfi/internal/stack"
)

// app is one invocation: its own flags plus the shared run lifecycle
// (fleet, journal, isolation, profiling, interrupt — see
// internal/lifecycle).
type app struct {
	lc      *lifecycle.Run
	workers int
	types   string
	faults  string
	list    bool
	dump    bool
	quiet   bool
	// scenarios is every scenario this binary can drive, by the name that
	// travels in a fleet job. Coordinator and spawned workers are the same
	// binary, so they always agree on it.
	scenarios map[string]campaign.Scenario
}

// gmpTypesDefault and faultsDefault are the -types and -faults defaults:
// the GMP wire vocabulary and every fault kind but corrupt.
const (
	gmpTypesDefault = "HEARTBEAT,PROCLAIM,JOIN,MEMBERSHIP_CHANGE,ACK,COMMIT,RUDP-ACK"
	faultsDefault   = "drop,drop-first-n,delay,duplicate,reorder"
)

func main() {
	a := &app{scenarios: raftScenarios()}
	a.scenarios["gmp"] = gmpScenario
	flag.IntVar(&a.workers, "workers", runtime.GOMAXPROCS(0), "worker-pool size (1 = serial)")
	flag.StringVar(&a.types, "types", gmpTypesDefault, "comma-separated message types to target")
	flag.StringVar(&a.faults, "faults", faultsDefault, "comma-separated fault kinds")
	flag.BoolVar(&a.list, "list", false, "print the generated cases and exit")
	flag.BoolVar(&a.dump, "dump-prog", false, "disassemble each generated filter program and exit")
	flag.BoolVar(&a.quiet, "quiet", false, "suppress per-verdict progress lines")
	quar := flag.String("quarantine", "", "directory for .pfi repros of deterministic contained failures")
	raftSizes := flag.String("raft", "", "sweep the raft consensus matrix instead of GMP: comma-separated cluster sizes (e.g. 3,5,25)")
	raftChurn := flag.String("raft-churn", "none,restart,suspend,partition", "churn models for the raft sweep")
	a.lc = lifecycle.Register(lifecycle.Tool{
		Name:  "pficampaign",
		Noun:  "sweep",
		Banks: "every completed cell is banked as it lands",
		Drain: "in-flight cells will finish",
	})
	flag.Parse()
	a.lc.Harden.ReproDir = *quar
	for name, s := range a.scenarios {
		fleet.RegisterScenario(name, s)
	}
	if *raftSizes != "" && a.lc.JournalPath != "" {
		fmt.Fprintln(os.Stderr, "pficampaign: -journal supports the single-matrix GMP sweep; the raft mode runs several sweeps per invocation")
		os.Exit(1)
	}
	a.lc.Start()
	var err error
	if *raftSizes != "" {
		// The raft sweep retargets the default type vocabulary from GMP to
		// the raft wire protocol; an explicit -types still wins.
		typesSet := false
		flag.Visit(func(f *flag.Flag) { typesSet = typesSet || f.Name == "types" })
		if !typesSet {
			a.types = raftTypesDefault
		}
		err = a.runRaft(*raftSizes, *raftChurn)
	} else {
		err = a.runGMP()
	}
	a.lc.Finish(err) // a drained sweep exits 0 after the resume hint
}

// spec builds the faultload matrix the flags select.
func (a *app) spec(protocol string) (campaign.Spec, []campaign.Case, error) {
	kinds, err := parseFaults(a.faults)
	if err != nil {
		return campaign.Spec{}, nil, err
	}
	spec := campaign.Spec{Protocol: protocol, Types: splitList(a.types), Faults: kinds}
	cases, err := campaign.Generate(spec)
	return spec, cases, err
}

func (a *app) runGMP() error {
	spec, cases, err := a.spec("gmp")
	if err != nil {
		return err
	}
	if a.list {
		for _, c := range cases {
			fmt.Println(c.Name)
		}
		return nil
	}
	if a.dump {
		return dumpPrograms(os.Stdout, cases)
	}
	if a.lc.FleetActive() {
		fmt.Printf("sweeping %d cases over a fleet (%d spawned worker(s))\n", len(cases), a.lc.Spawn)
	} else {
		fmt.Printf("sweeping %d cases with %d worker(s)\n", len(cases), a.workers)
	}
	verdicts, err := a.sweep(spec, "gmp", "")
	if err != nil {
		return err
	}
	if fails := campaign.Failures(verdicts); len(fails) > 0 {
		return fmt.Errorf("%d cases failed", len(fails))
	}
	return nil
}

// sweep runs one campaign matrix through the named scenario and prints its
// summary: the whole GMP sweep (label ""), or one (size, churn) cell of the
// raft sweep (label = the cell). There is one path: campaign.RunParallel
// plans, resumes, journals, merges and counts; the in-process pool
// evaluates unless the fleet flags ask for a coordinator, which plugs in
// as the evaluator and sends the same cells to worker processes. The
// merged verdict stream is bit-identical either way; only wall-clock
// isolation knobs (-run-timeout) stay local, as they do not travel.
func (a *app) sweep(spec campaign.Spec, scenario, label string) ([]campaign.Verdict, error) {
	opts := campaign.Options{Workers: a.workers, Harden: *a.lc.Harden, Context: a.lc.Context(), Journal: a.lc.Journal}
	prefix := ""
	if label == "" {
		opts.Repro = reproScenario // only the GMP world has a .pfi rendering
	} else {
		prefix = label + "/"
	}
	if !a.quiet {
		opts.OnVerdict = func(v campaign.Verdict) {
			fmt.Printf("%-8s %s%s (%s)\n", v.Status(), prefix, v.Case.Name, v.Elapsed.Round(time.Millisecond))
		}
	}
	var verdicts []campaign.Verdict
	run := func(evaluate func(campaign.Options) ([]campaign.Verdict, campaign.RunStats, error)) error {
		vs, stats, err := evaluate(opts)
		if err != nil {
			return err
		}
		if label != "" {
			fmt.Printf("-- %s --\n", label)
		}
		if stats.Resumed > 0 {
			fmt.Printf("resumed %d journaled cell(s); ran %d\n", stats.Resumed, stats.Cases-stats.Resumed)
		}
		fmt.Print(campaign.Summary(vs, stats))
		verdicts = vs
		return nil
	}
	var err error
	if a.lc.FleetActive() {
		coord := fleet.NewCampaign(spec, scenario, fleet.HardenWire(*a.lc.Harden), a.lc.FleetConfig())
		err = a.lc.RunFleet(coord, os.Stdout, func() error { return run(coord.RunCampaign) })
	} else {
		err = run(func(o campaign.Options) ([]campaign.Verdict, campaign.RunStats, error) {
			return campaign.RunParallel(spec, a.scenarios[scenario], o)
		})
	}
	return verdicts, err
}

// dumpPrograms disassembles every generated case's filter script against a
// real PFI-layer interpreter, so the listing shows the program the sweep
// itself runs.
func dumpPrograms(w io.Writer, cases []campaign.Case) error {
	env := &stack.Env{Sched: netsim.NewWorld(2026).Sched, Node: "gmd3"}
	l := core.NewLayer(env, core.WithStub(gmp.PFIStub{}))
	for _, c := range cases {
		f := l.SendFilter()
		if c.Dir == core.Receive {
			f = l.ReceiveFilter()
		}
		if err := f.Interp().DumpProgram(w, c.Name, c.Script); err != nil {
			return fmt.Errorf("%s: %w", c.Name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// parseFaults maps fault names (the fault.Kind String forms) back to kinds.
func parseFaults(s string) ([]fault.Kind, error) {
	byName := map[string]fault.Kind{}
	var known []string
	for _, k := range fault.Kinds() {
		byName[k.String()] = k
		known = append(known, k.String())
	}
	var kinds []fault.Kind
	for _, name := range splitList(s) {
		k, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown fault %q (known: %s)", name, strings.Join(known, ", "))
		}
		kinds = append(kinds, k)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no faults selected")
	}
	return kinds, nil
}

// reproScenario renders a campaign case as committable conformance
// scenario source, so a contained failure can be quarantined as a .pfi
// repro that replays the same cluster, faultload, and runtime.
func reproScenario(c campaign.Case) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# campaign case: %s\n", c.Name)
	b.WriteString("world gmp gmd1 gmd2 gmd3\n")
	for _, n := range []string{"gmd1", "gmd2", "gmd3"} {
		fmt.Fprintf(&b, "gmp_start %s\n", n)
	}
	fmt.Fprintf(&b, "faultload gmd3 %s {%s}\n", c.Dir, strings.TrimRight(c.Script, "\n"))
	b.WriteString("run 3m\n")
	b.WriteString("log \"group gmd1 [gmp_group gmd1]\"\n")
	b.WriteString("log \"group gmd2 [gmp_group gmd2]\"\n")
	return b.String()
}

// gmpScenario boots a fresh 3-daemon cluster on exp.NewGMPRig — the world
// reproScenario's `world gmp` line builds — faults gmd3's traffic per the
// case, and checks that gmd1 and gmd2 still share a view. Every call builds
// its own world, so cases are independent and safe to run in parallel. The
// isolation monitor meters the rig's scheduler and shared trace log, as the
// conformance harness does when it replays the repro.
func gmpScenario(m *harden.Monitor, c campaign.Case) (bool, string, error) {
	r, err := exp.NewGMPRig([]string{"gmd1", "gmd2", "gmd3"})
	if err != nil {
		return false, "", err
	}
	m.Attach(r.W.Sched, r.Log, func() int {
		n := 0
		for _, gm := range r.Ms {
			n += gm.PFI.SendFilter().Stats().Injected + gm.PFI.ReceiveFilter().Stats().Injected
		}
		return n
	})
	r.StartAll()
	if err := c.Apply(r.Ms["gmd3"].PFI); err != nil {
		return false, "", err
	}
	r.W.RunFor(3 * time.Minute)

	g1, g2 := r.Ms["gmd1"].Gmd.Group(), r.Ms["gmd2"].Gmd.Group()
	if !g1.Equal(g2) {
		return false, fmt.Sprintf("views diverged: %v vs %v", g1, g2), nil
	}
	if !g1.Contains("gmd1") || !g1.Contains("gmd2") {
		return false, fmt.Sprintf("healthy daemons missing from %v", g1), nil
	}
	return true, g1.String(), nil
}
