// Command pfitest replays the declarative conformance scenarios
// (testdata/*.pfi) against the simulated protocol stacks and checks each
// run's event trace against its pinned golden.
//
// Usage:
//
//	pfitest                          # run every scenario, default profile
//	pfitest -run Tcp                 # scenarios whose name matches the regex
//	pfitest -profile solaris         # different default vendor profile
//	pfitest -workers 8               # fan scenarios out across a pool
//	pfitest -diff                    # print golden mismatches entry by entry
//	pfitest -update                  # re-bless the golden traces
//	pfitest -v                       # print every verdict, not just failures
//
// Every scenario replays through the harden isolation layer: a panicking
// or livelocked scenario becomes one CRASH/LIVELOCK line instead of
// killing the suite. The -run-timeout, -stall-steps, and -budget-* flags
// tune the watchdogs and budgets; -quarantine emits a headered .pfi repro
// for each deterministic contained failure.
//
// Exit status is 0 when every scenario executed, every expect held, and
// every golden matched; 1 otherwise.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"

	"pfi/internal/conformance"
	"pfi/internal/diag"
	"pfi/internal/harden"
	"pfi/internal/tcp"
)

func main() {
	var (
		dir     = flag.String("dir", defaultDir(), "scenario directory (*.pfi)")
		golden  = flag.String("golden", "", "golden-trace directory (default <dir>/golden)")
		profile = flag.String("profile", "", "default vendor profile for tcp scenarios (default SunOS 4.1.3)")
		runRx   = flag.String("run", "", "regex selecting scenario names (case-insensitive)")
		workers = flag.Int("workers", 1, "parallel scenario workers")
		update  = flag.Bool("update", false, "re-bless golden traces instead of checking them")
		diff    = flag.Bool("diff", false, "print golden diffs entry by entry")
		verbose = flag.Bool("v", false, "print every verdict, not just failures")
		dump    = flag.Bool("dump-prog", false, "disassemble each faultload filter program as it is installed")
		quar    = flag.String("quarantine", "", "directory for .pfi repros of deterministic contained failures")
	)
	hcfg := harden.Flags(flag.CommandLine)
	prof := diag.Register()
	flag.Parse()
	hcfg.ReproDir = *quar

	stopProf, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfitest:", err)
		os.Exit(1)
	}
	// Two-stage ctrl-c: the first signal stops launching scenarios
	// (in-flight ones finish and report), the second force-quits.
	it := diag.NotifyInterrupt(nil,
		func() {
			fmt.Fprintln(os.Stderr, "\npfitest: draining — in-flight scenarios will report; interrupt again to force quit")
		},
		func() { fmt.Fprintln(os.Stderr, "pfitest: forced exit") })
	ok, err := run(it.Context(), os.Stdout, config{
		dir: *dir, golden: *golden, profile: *profile, runRx: *runRx,
		workers: *workers, update: *update, diff: *diff, verbose: *verbose,
		dump: *dump, harden: *hcfg,
	})
	it.Stop()
	if perr := stopProf(); perr != nil {
		fmt.Fprintln(os.Stderr, "pfitest:", perr)
	}
	if it.Interrupted() {
		fmt.Fprintln(os.Stderr, "pfitest: interrupted — suite incomplete")
		os.Exit(1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfitest:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// defaultDir finds the scenario directory relative to the working directory,
// walking up so pfitest works from any subdirectory of the repo.
func defaultDir() string {
	rel := filepath.Join("internal", "conformance", "testdata")
	dir, err := os.Getwd()
	if err != nil {
		return rel
	}
	for {
		cand := filepath.Join(dir, rel)
		if st, err := os.Stat(cand); err == nil && st.IsDir() {
			return cand
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return rel
		}
		dir = parent
	}
}

type config struct {
	dir, golden, profile, runRx string
	workers                     int
	update, diff, verbose       bool
	dump                        bool
	harden                      harden.Config
}

func run(ctx context.Context, out io.Writer, cfg config) (bool, error) {
	if cfg.golden == "" {
		cfg.golden = filepath.Join(cfg.dir, "golden")
	}
	scs, err := conformance.LoadDir(cfg.dir)
	if err != nil {
		return false, err
	}
	if cfg.runRx != "" {
		rx, err := regexp.Compile("(?i)" + cfg.runRx)
		if err != nil {
			return false, fmt.Errorf("bad -run regex: %w", err)
		}
		scs = conformance.Filter(scs, rx.MatchString)
		if len(scs) == 0 {
			return false, fmt.Errorf("no scenarios match -run %q", cfg.runRx)
		}
	}

	opts := conformance.Options{Workers: cfg.workers, Harden: cfg.harden, Context: ctx}
	if cfg.dump {
		// Disassembly interleaves with scenario execution; keep it readable
		// by running scenarios serially.
		opts.Workers = 1
		opts.ProgDump = out
	}
	if cfg.profile != "" {
		prof, err := tcp.ProfileByName(cfg.profile)
		if err != nil {
			return false, err
		}
		opts.Profile = prof
	}

	results := conformance.RunAll(scs, opts)
	allOK := true
	for _, r := range results {
		if r == nil {
			continue
		}
		ok, err := report(out, cfg, r)
		if err != nil {
			return false, err
		}
		allOK = allOK && ok
	}
	return allOK, nil
}

// report prints one scenario's outcome and checks (or updates) its golden.
func report(out io.Writer, cfg config, r *conformance.Result) (bool, error) {
	ok := r.OK()
	goldenNote := ""
	var diffs []string
	if r.Err == nil && r.World != "" {
		if cfg.update {
			if err := conformance.UpdateGolden(cfg.golden, r); err != nil {
				return false, err
			}
			goldenNote = "golden updated"
		} else {
			var err error
			diffs, err = conformance.CheckGolden(cfg.golden, r)
			if err != nil {
				ok = false
				goldenNote = err.Error()
			} else if len(diffs) > 0 {
				ok = false
				goldenNote = fmt.Sprintf("golden mismatch (%d+ entries)", len(diffs))
			}
		}
	}

	status := "ok"
	if !ok {
		status = "FAIL"
	}
	if r.Outcome.Contained() || r.Outcome == harden.Flaky {
		status = r.Outcome.Tag()
	}
	fmt.Fprintf(out, "%-8s %-28s %-14s %3d checks  vt=%v\n",
		status, r.Scenario, worldLabel(r), len(r.Verdicts), r.Elapsed)
	if r.Err != nil {
		fmt.Fprintf(out, "     error: %v\n", r.Err)
	}
	if r.Isolation != nil && r.Isolation.ReproPath != "" {
		fmt.Fprintf(out, "     repro: %s\n", r.Isolation.ReproPath)
	}
	for _, v := range r.Verdicts {
		if !v.OK || cfg.verbose {
			fmt.Fprintf(out, "     %s\n", v)
		}
	}
	if goldenNote != "" {
		fmt.Fprintf(out, "     %s\n", goldenNote)
	}
	if cfg.diff {
		for _, d := range diffs {
			fmt.Fprintf(out, "     %s\n", d)
		}
	}
	return ok, nil
}

func worldLabel(r *conformance.Result) string {
	if r.World == "" {
		return "(no world)"
	}
	return r.World
}
