// Command pfifuzz explores the fault-schedule space with coverage-guided
// fuzzing and shrinks every oracle violation to a committable .pfi repro
// scenario plus golden trace.
//
// Usage:
//
//	pfifuzz                           # 1000 runs, seed 1, serial
//	pfifuzz -seed 7 -budget 5000      # bigger, differently-seeded campaign
//	pfifuzz -workers 8                # parallel evaluation (same results)
//	pfifuzz -profile solaris          # vendor profile for unpinned schedules
//	pfifuzz -out found/               # emit minimized repros + goldens here
//	pfifuzz -no-snapshot              # full world replay per candidate
//	pfifuzz -q                        # suppress per-generation progress
//	pfifuzz -raft 5                   # also seed raft consensus schedules (5-node cluster)
//	pfifuzz -raft 5 -raft-bugs skip-vote-persist
//	                                  # fuzz a deliberately broken raft (oracle self-test)
//
// Sharded (fleet) mode distributes candidate evaluation over worker
// processes while derivation, corpus evolution, shrinking, and repro
// emission stay on the coordinator — the report and emitted bytes are
// bit-identical to a single-process run with the same seed (see
// internal/fleet):
//
//	pfifuzz -spawn-workers 4              # fork 4 local worker processes
//	pfifuzz -serve :8080                  # also serve HTTP workers + /status /metrics
//	pfifuzz -connect http://host:8080     # run as a remote worker
//	pfifuzz -worker-stdio                 # run as a spawned stdio worker (internal)
//
// Candidates sharing a schedule prefix fork from one world snapshot and
// execute only their mutated suffix — O(delta) per candidate instead of a
// full replay — with results bit-identical to -no-snapshot at any -workers
// value; the end-of-run summary reports throughput and the snapshot
// hit-rate. The -cpuprofile/-memprofile/-trace flags profile the run for
// `go tool pprof` / `go tool trace`.
//
// Every candidate runs through the harden isolation layer: a panicking
// world surfaces as a tool-fault finding, a stalled one as livelock, an
// over-budget one as budget-exceeded — never a dead fuzzer. The
// -stall-steps and -budget-* flags tune the simulated-time watchdogs
// (those findings stay deterministic across machines); -quarantine is
// where shrunk contained failures land as headered .pfi repros.
// -run-timeout also works but its timeouts are wall-clock and therefore
// machine-dependent: reported, never emitted (and they disable the
// snapshot fast path, whose forks would see a different clock).
//
// The same -seed yields a bit-for-bit identical exploration — corpus,
// coverage fingerprint, findings, and emitted files — at any -workers
// value, snapshots on or off. Exit status is 1 on an execution error, 0
// otherwise (findings are the product, not a failure).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"pfi/internal/explore"
	"pfi/internal/fleet"
	"pfi/internal/lifecycle"
	"pfi/internal/script"
	"pfi/internal/tcp"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "exploration seed (same seed: same run)")
		budget  = flag.Int("budget", 1000, "candidate schedule evaluations")
		workers = flag.Int("workers", 1, "parallel evaluation workers")
		batch   = flag.Int("batch", 32, "candidates per deterministic generation")
		profile = flag.String("profile", "", "default vendor profile for tcp schedules (default SunOS 4.1.3)")
		out     = flag.String("out", "", "directory for minimized .pfi repros and golden traces (none: report only)")
		quiet   = flag.Bool("q", false, "suppress per-generation progress lines")
		quar    = flag.String("quarantine", "", "directory for .pfi repros of contained failures (tool-fault, livelock, budget-exceeded)")
		noSnap  = flag.Bool("no-snapshot", false, "replay every candidate in a fresh world instead of forking shared-prefix candidates from world snapshots")

		raftN    = flag.Int("raft", 0, "seed raft consensus schedules for an n-node cluster into the corpus (0: tcp/gmp only)")
		raftBugs = flag.String("raft-bugs", "", "comma-separated raft implementation bugs to seed (skip-vote-persist, ack-before-quorum) — oracle self-test")
	)
	// The shared run lifecycle: fleet, journal, isolation, profiling and
	// interrupt flags, worker dispatch, and the exit path.
	lc := lifecycle.Register(lifecycle.Tool{
		Name:  "pfifuzz",
		Noun:  "run",
		Banks: "the exploration checkpoints at every generation boundary",
		Drain: "the run stops at the next generation boundary",
	})
	flag.Parse()
	lc.Start()
	fatal := func(err error) {
		fmt.Fprintln(os.Stderr, "pfifuzz:", err)
		os.Exit(1)
	}

	opts := explore.Options{
		Seed:          *seed,
		Budget:        *budget,
		Workers:       *workers,
		BatchSize:     *batch,
		OutDir:        *out,
		QuarantineDir: *quar,
		Harden:        *lc.Harden,
		Snapshot:      !*noSnap,
		Context:       lc.Context(),
		Journal:       lc.Journal,
	}
	if *profile != "" {
		p, err := tcp.ProfileByName(*profile)
		if err != nil {
			fatal(err)
		}
		opts.Profile = p
	}
	if *raftN > 0 {
		// The generic corpus plus both crafted probes; with -raft-bugs set
		// the probes catch their seeded bug at generation zero, so even a
		// tiny -budget demonstrates the oracles end to end. Leaving -raft
		// off keeps the historical tcp/gmp seed stream bit-identical.
		// Schedules carry bugs as space-separated `world raft ... bugs`
		// tokens, so commas in the flag normalize to spaces.
		bugs := strings.Join(strings.FieldsFunc(*raftBugs, func(r rune) bool {
			return r == ',' || r == ' '
		}), " ")
		opts.Seeds = append(explore.RaftSeedCorpus(*raftN, bugs),
			explore.RaftStaleLeaderProbe(bugs), explore.RaftDoubleVoteProbe(bugs))
	} else if *raftBugs != "" {
		fatal(fmt.Errorf("-raft-bugs needs -raft to seed raft schedules"))
	}
	if !*quiet {
		opts.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	start := time.Now()
	var rep *explore.Report
	var ferr error
	if lc.FleetActive() {
		// Candidate evaluation shards over the fleet; derivation, corpus,
		// shrinking and the journal stay here. Only deterministic isolation
		// knobs travel to workers; wall-clock -run-timeout does not (it is
		// machine-dependent).
		coord := fleet.NewFuzz(*profile, fleet.HardenWire(*lc.Harden), lc.FleetConfig())
		ferr = lc.RunFleet(coord, os.Stderr, func() (err error) {
			rep, err = coord.RunFuzz(opts)
			return err
		})
	} else {
		rep, ferr = explore.Fuzz(opts)
	}
	elapsed := time.Since(start)
	if lc.Finish(ferr) {
		// A drained run still reports what was explored.
		if rep != nil {
			fmt.Print(rep)
		}
		return
	}
	fmt.Print(rep)
	fmt.Println(throughput(rep, elapsed))
	fmt.Println(scriptStats())
}

// scriptStats renders the script-engine summary: how many filter programs
// the run compiled, how much compilation it amortized (cache hits), and
// how many instructions fusion rewrote.
func scriptStats() string {
	ss := script.Stats()
	return fmt.Sprintf("script: %d compiled (%d cache hits), %d fused ops",
		ss.Compiles, ss.CacheHits, ss.FusedOps)
}

// throughput renders the end-of-run summary line: total evaluations,
// wall-clock rate, and — when the snapshot fast path served candidates —
// the fraction of candidate evaluations that forked from a warm world
// instead of replaying it.
func throughput(rep *explore.Report, elapsed time.Duration) string {
	total := rep.Runs + rep.ShrinkRuns
	secs := elapsed.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	s := fmt.Sprintf("throughput: %d evaluations in %s (%.0f cases/s)",
		total, elapsed.Round(time.Millisecond), float64(total)/secs)
	if st := rep.Snapshot; st.Sessions > 0 || st.FastRuns > 0 {
		hit := 0.0
		if rep.Runs > 0 {
			hit = 100 * float64(st.FastRuns) / float64(rep.Runs)
		}
		s += fmt.Sprintf(", snapshot hit-rate %.0f%% (%d forked, %d fallback, %d fresh over %d sessions)",
			hit, st.FastRuns, st.Fallbacks, st.FreshRuns, st.Sessions)
	}
	return s
}
