// Package lifecycle is the one run path the job CLIs (pficampaign, pfifuzz)
// share from flag to exit code. It registers the flags they have in common
// — fleet (-serve -connect -spawn-workers -worker-stdio -shards
// -unit-timeout), journal (-journal -resume), isolation (harden.Flags) and
// profiling (diag.Register) — and owns the order that is easy to get
// wrong: worker dispatch before anything else; profile start; journal
// open; two-stage interrupt; and after the run, stop profile -> journal
// sync -> drained-run hint (exit 0) or error (exit 1). It also owns the
// single fleet start-up: serve and/or spawn, run, drain, wait for the
// pool, stats line. A tool's main keeps its own flags, its job, and what
// it prints.
package lifecycle

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pfi/internal/diag"
	"pfi/internal/fleet"
	"pfi/internal/harden"
	"pfi/internal/journal"
)

// Tool names the program and words its diagnostics.
type Tool struct {
	// Name prefixes every diagnostic and names spawned/remote workers.
	Name string
	// Noun is what one invocation is ("sweep", "run").
	Noun string
	// Banks says what the journal banks, for the -journal help text.
	Banks string
	// Drain says what the first interrupt waits for.
	Drain string
}

// Run is one invocation's shared state: the parsed common flags, then —
// after Start — the journal and the interrupt context.
type Run struct {
	tool Tool

	// Serve, Spawn and JournalPath are the -serve, -spawn-workers and
	// -journal values, exported for the refusals and banners a tool words
	// itself.
	Serve       string
	Spawn       int
	JournalPath string
	// Harden is the isolation policy the harden flags populate.
	Harden *harden.Config
	// Journal is the opened -journal log (nil without the flag).
	Journal *journal.Log

	connect     string
	workerStdio bool
	shards      int
	unitTimeout time.Duration
	resume      bool
	prof        *diag.Flags
	stopProf    func() error
	it          *diag.Interrupt
}

// Register adds the shared flags to the default command-line FlagSet.
// Call it before flag.Parse and Start after.
func Register(tool Tool) *Run {
	r := &Run{tool: tool}
	flag.StringVar(&r.Serve, "serve", "", "coordinate a fleet and serve HTTP workers plus /status and /metrics on this address")
	flag.StringVar(&r.connect, "connect", "", "run as a remote worker against a coordinator URL (e.g. http://host:8080)")
	flag.IntVar(&r.Spawn, "spawn-workers", 0, "coordinate a fleet of N locally spawned worker processes")
	flag.BoolVar(&r.workerStdio, "worker-stdio", false, "run as a spawned stdio worker (internal)")
	flag.IntVar(&r.shards, "shards", 0, "fleet units per round (0: fleet default)")
	flag.DurationVar(&r.unitTimeout, "unit-timeout", 30*time.Second, "fleet lease timeout before a silent worker's unit is reassigned (0: never reap)")
	flag.StringVar(&r.JournalPath, "journal", "", "write-ahead log for crash-safe "+tool.Noun+"s: "+tool.Banks)
	flag.BoolVar(&r.resume, "resume", false, "continue the "+tool.Noun+" banked in -journal instead of refusing to reuse it")
	r.Harden = harden.Flags(flag.CommandLine)
	r.prof = diag.Register()
	return r
}

// Start runs everything that precedes the job. A worker invocation
// (-worker-stdio, -connect) is served here and never returns. Otherwise
// profiling starts, the journal opens (refusing a non-empty one without
// -resume), and the two-stage interrupt is armed: the first SIGINT/SIGTERM
// cancels Context so the job drains, the second exits 130.
func (r *Run) Start() {
	if r.workerStdio {
		// A stdio worker's coordinator is its parent; EOF is final.
		r.exitWorker(fleet.ServeStdio(r.tool.Name))
	}
	if r.connect != "" {
		// A remote worker outlives a coordinator restart: it redials with
		// backoff and is re-adopted under the restarted coordinator's epoch.
		it := r.interrupt("the worker stops once its session ends")
		host, _ := os.Hostname() // diagnostics only
		err := fleet.RunWorkerReconnect(it.Context(),
			func() (fleet.Conn, error) { return fleet.DialHTTP(r.connect), nil },
			r.tool.Name+"@"+host, fleet.Reconnect{Log: logStderr})
		if it.Interrupted() && errors.Is(err, context.Canceled) {
			err = nil
		}
		r.exitWorker(err)
	}
	var err error
	if r.stopProf, err = r.prof.Start(); err != nil {
		r.fatal(err)
	}
	if r.JournalPath != "" {
		if r.Journal, err = journal.OpenResumable(r.JournalPath, r.resume); err != nil {
			r.fatal(err)
		}
	}
	r.it = r.interrupt(r.tool.Drain)
}

// Context is canceled on the first interrupt.
func (r *Run) Context() context.Context { return r.it.Context() }

// Finish ends the run in order: release the interrupt handler, flush the
// profiles, sync and close the journal. A run the operator drained is an
// orderly stop, not a failure: Finish prints the resume hint and returns
// true so the tool can report its partial result and exit 0. Any other
// error exits 1.
func (r *Run) Finish(runErr error) (drained bool) {
	r.it.Stop()
	if err := r.stopProf(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", r.tool.Name, err)
	}
	if r.Journal != nil {
		if err := r.Journal.Sync(); err != nil && runErr == nil {
			runErr = err
		}
		r.Journal.Close()
	}
	if r.it.Interrupted() && errors.Is(runErr, context.Canceled) {
		if r.Journal != nil {
			fmt.Fprintf(os.Stderr, "%s: %s interrupted; resume with -journal %s -resume\n", r.tool.Name, r.tool.Noun, r.JournalPath)
		} else {
			fmt.Fprintf(os.Stderr, "%s: %s interrupted (use -journal to make interrupted %ss resumable)\n", r.tool.Name, r.tool.Noun, r.tool.Noun)
		}
		return true
	}
	if runErr != nil {
		r.fatal(runErr)
	}
	return false
}

// FleetActive reports whether this invocation coordinates a fleet instead
// of evaluating in-process.
func (r *Run) FleetActive() bool { return r.Serve != "" || r.Spawn > 0 }

// FleetConfig is the coordinator configuration the fleet flags ask for;
// coordinator diagnostics (joins, losses, reassignments) go to stderr.
func (r *Run) FleetConfig() fleet.Config {
	return fleet.Config{Shards: r.shards, UnitTimeout: r.unitTimeout, Log: logStderr}
}

// drainGrace bounds how long a finished -serve coordinator keeps answering
// so its HTTP workers hear the drain: several long-poll windows.
const drainGrace = 2 * time.Second

// RunFleet is the one fleet start-up: serve HTTP workers (-serve) and/or
// spawn stdio children of this binary (-spawn-workers), run, drain the
// coordinator, wait for the spawned pool to exit and the HTTP workers to
// hear the drain, and — when run succeeded — print the fleet stats line
// to stats.
func (r *Run) RunFleet(coord *fleet.Coordinator, stats io.Writer, run func() error) error {
	if r.Serve != "" {
		srv, err := coord.Serve(r.Serve)
		if err != nil {
			return err
		}
		defer srv.Close()
		logStderr("fleet: serving workers on http://%s (status: /status, metrics: /metrics)", srv.Addr)
	}
	var pool *fleet.Pool
	if r.Spawn > 0 {
		exe, err := os.Executable()
		if err != nil {
			return err
		}
		if pool, err = coord.SpawnWorkers(r.Spawn, []string{exe, "-worker-stdio"}, nil); err != nil {
			return err
		}
	}
	err := run()
	coord.Close()
	if pool != nil {
		pool.Wait()
	}
	if r.Serve != "" {
		coord.WaitDrained(drainGrace)
	}
	if err == nil {
		fmt.Fprintln(stats, coord.Stats().Summary())
	}
	return err
}

func (r *Run) interrupt(drain string) *diag.Interrupt {
	return diag.NotifyInterrupt(nil,
		func() {
			fmt.Fprintf(os.Stderr, "\n%s: draining — %s; interrupt again to force quit\n", r.tool.Name, drain)
		},
		func() { fmt.Fprintf(os.Stderr, "%s: forced exit\n", r.tool.Name) })
}

func (r *Run) exitWorker(err error) {
	if err != nil {
		r.fatal(err)
	}
	os.Exit(0)
}

func (r *Run) fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", r.tool.Name, err)
	os.Exit(1)
}

func logStderr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
