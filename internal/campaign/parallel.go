package campaign

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"pfi/internal/harden"
	"pfi/internal/journal"
)

// Options configures a campaign sweep.
type Options struct {
	// Workers is the worker-pool size. Values <= 1 run the sweep serially
	// in the calling goroutine — exactly the classic Run behavior.
	Workers int
	// OnVerdict, when non-nil, observes each verdict as its case completes
	// (completion order, not generation order — under parallelism cases
	// finish out of order). Calls are serialized; no locking is needed.
	OnVerdict func(Verdict)
	// Context aborts the sweep when canceled: no new cases start, in-flight
	// cases finish, and the completed verdicts are returned along with the
	// context's error. Nil means never canceled.
	Context context.Context
	// Harden is the per-case isolation policy: watchdogs, budgets, and
	// retry classification. The zero value still contains panics — a
	// crashing scenario becomes one ToolFault verdict, never a dead sweep.
	Harden harden.Config
	// Repro, when non-nil, renders a case as committable scenario source
	// for quarantine repros of contained failures (needs Harden.ReproDir).
	Repro func(Case) string
	// Journal, when non-nil, streams each completed cell into a write-
	// ahead log and skips cells the log already holds: a killed sweep
	// resumed with the same journal re-runs only the missing cells, and
	// restored verdicts (including contained/quarantined ones — their
	// outcome, retry count, and repro note survive) canonicalize
	// identically to fresh ones. A journal write failure aborts the
	// sweep as a tool fault; completed work is never silently dropped.
	Journal *journal.Log
	// Eval, when non-nil, replaces only the in-process pool — the campaign
	// counterpart of explore.Options.EvalBatch, and how a fleet coordinator
	// plugs in. It evaluates every case whose held[i] is false (held cells
	// were restored from the journal) wherever it likes and hands each
	// finished cell to land as it arrives, in any order, from any
	// goroutine; a cell landed twice keeps its first verdict. It returns
	// when nothing more will land; a canceled ctx should end it early.
	// Resume, journaling, OnVerdict, ordering and stats stay here, identical
	// for both evaluators. Workers, Harden and Repro govern the pool only.
	Eval func(ctx context.Context, cases []Case, held []bool, land func(i int, v Verdict)) error
}

// RunStats summarizes a sweep's outcome and throughput.
type RunStats struct {
	// Cases counts completed cases (less than the matrix size if canceled).
	Cases   int
	Passed  int
	Failed  int
	Errored int
	// Crashes counts ToolFault verdicts (scenario panicked; contained).
	Crashes int
	// Timeouts counts Timeout and Livelock verdicts (watchdog tripped).
	Timeouts int
	// Retries counts extra attempts the isolation layer made to classify
	// contained failures as deterministic vs. flaky.
	Retries int
	// Resumed counts cells restored from the journal instead of re-run.
	Resumed int
	// Workers is the pool size the sweep actually used.
	Workers int
	// Elapsed is the total wall-clock sweep duration.
	Elapsed time.Duration
	// CasesPerSecond is the sweep throughput (Cases / Elapsed).
	CasesPerSecond float64
}

// String renders the stats as a one-line report.
func (s RunStats) String() string {
	line := fmt.Sprintf("swept %d cases in %s (%.1f cases/s, %d worker(s))",
		s.Cases, s.Elapsed.Round(time.Millisecond), s.CasesPerSecond, s.Workers)
	if s.Resumed > 0 {
		line += fmt.Sprintf("; resumed %d from journal", s.Resumed)
	}
	if s.Crashes > 0 || s.Timeouts > 0 || s.Retries > 0 {
		line += fmt.Sprintf("; contained %d crash(es), %d timeout/livelock(s), %d retr(ies)",
			s.Crashes, s.Timeouts, s.Retries)
	}
	return line
}

// RunParallel executes every generated case against the scenario, fanning
// cases out across opts.Workers goroutines. Each case is an independent
// deterministic simulation (the scenario builds a fresh world per call), so
// the verdict slice is identical for every worker count; only wall-clock
// time changes. Verdicts are returned in generation order regardless of
// completion order.
func RunParallel(spec Spec, scenario Scenario, opts Options) ([]Verdict, RunStats, error) {
	cases, err := Generate(spec)
	if err != nil {
		return nil, RunStats{}, err
	}
	return runCases(cases, scenario, opts)
}

func runCases(cases []Case, scenario Scenario, opts Options) ([]Verdict, RunStats, error) {
	workers := poolSize(opts.Workers, len(cases))
	start := time.Now()
	verdicts := make([]Verdict, len(cases))
	done := make([]bool, len(cases))
	hcfg := opts.Harden
	if hcfg.Context == nil {
		hcfg.Context = opts.Context
	}

	// Resume: restore journaled cells before dispatch so the pool only
	// sees the missing ones. Restored cells do not re-fire OnVerdict —
	// the observer saw them in the run that journaled them.
	resumed := 0
	if opts.Journal != nil {
		restored, err := PrepareJournal(opts.Journal, cases)
		if err != nil {
			return nil, RunStats{}, err
		}
		for i, jv := range restored {
			verdicts[i] = jv.Restore(cases[i])
			done[i] = true
		}
		resumed = len(restored)
		journal.CountResumed(resumed)
	}

	// A journal write failure must abort the sweep (ToolFault), not
	// drop completed work silently: cancel the pool and surface it.
	ctx := opts.Context
	var cancel context.CancelFunc
	var jerr error
	if opts.Journal != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
	}

	var mu sync.Mutex // guards verdicts/done/jerr and serializes OnVerdict
	land := func(i int, v Verdict) {
		mu.Lock()
		defer mu.Unlock()
		if done[i] {
			return // an evaluator re-earned a cell it already landed
		}
		verdicts[i] = v
		done[i] = true
		// A cell the context watchdog aborted mid-flight is not
		// completed work — leave it out of the journal so resume
		// re-runs it cleanly instead of restoring the abort.
		ctxAborted := v.Isolation != nil && v.Isolation.Counter == "context"
		if opts.Journal != nil && jerr == nil && !ctxAborted {
			if werr := opts.Journal.Append(RecVerdict, JournalOf(i, v)); werr != nil {
				jerr = werr
				cancel()
			}
		}
		if opts.OnVerdict != nil {
			opts.OnVerdict(v)
		}
	}
	var err error
	if opts.Eval != nil {
		if ctx == nil {
			ctx = context.Background()
		}
		err = opts.Eval(ctx, cases, append([]bool(nil), done...), land)
	} else {
		err = ForEach(ctx, workers, len(cases), func(i int) {
			if !done[i] { // else restored from the journal
				land(i, RunCase(cases[i], scenario, hcfg, opts.Repro))
			}
		})
	}
	if jerr != nil {
		err = jerr
	} else if opts.Context != nil && opts.Context.Err() != nil {
		err = opts.Context.Err() // don't leak the internal wrapper's cancellation
	}
	out, stats, err := finish(verdicts, done, start, workers, err)
	stats.Resumed = resumed
	return out, stats, err
}

// RunCase executes one generated case through the isolation layer and
// folds the containment record into its verdict — the single-cell unit of
// work, whether the pool runs it here or a fleet worker runs it for a
// leased shard: a remotely executed case yields the same verdict as a
// local one for the same deterministic scenario and config.
func RunCase(c Case, scenario Scenario, cfg harden.Config, repro func(Case) string) Verdict {
	if repro != nil {
		cfg.ReproSource = func() string { return repro(c) }
	}
	start := time.Now()
	var (
		ok   bool
		note string
		serr error
	)
	iso := harden.Run(cfg, func(m *harden.Monitor) error {
		ok, note, serr = scenario(m, c)
		return serr
	})
	v := Verdict{Case: c, OK: ok, Note: note, Err: serr, Elapsed: time.Since(start), Outcome: iso.Kind}
	if iso.Kind.Contained() {
		// The scenario never finished; its partial ok/note are meaningless.
		v.OK, v.Err, v.Note = false, iso.Err, ""
		if iso.ReproPath != "" {
			v.Note = "repro: " + iso.ReproPath
		}
	}
	if iso.Kind != harden.Pass && iso.Kind != harden.Fail {
		isoCopy := iso
		v.Isolation = &isoCopy
	}
	return v
}

// poolSize clamps a requested worker count to [1, n].
func poolSize(workers, n int) int {
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = max(n, 1)
	}
	return workers
}

// PanicError reports fn panics that ForEach contained. Every non-panicking
// index still ran to completion; the first panic is carried here with its
// stack, plus a count of how many indices panicked in total.
type PanicError struct {
	// Index is the first panicking index.
	Index int
	// Value is that panic's value.
	Value any
	// Stack is the goroutine stack captured at that panic.
	Stack string
	// Count is the total number of panicking indices.
	Count int
}

func (e *PanicError) Error() string {
	s := fmt.Sprintf("campaign: fn(%d) panicked: %v", e.Index, e.Value)
	if e.Count > 1 {
		s += fmt.Sprintf(" (and %d more panics)", e.Count-1)
	}
	return s
}

// ForEach is the campaign worker pool, exported for other sweep-shaped
// workloads (the conformance runner fans scenarios out through it). It runs
// fn(0..n-1) across workers goroutines and returns when every started call
// has finished. A canceled context stops new indices from being handed out
// (in-flight calls complete) and is returned as the error. A panicking fn
// is contained: sibling workers keep draining, every other index completes,
// and the panic surfaces as a *PanicError (a canceled context takes
// precedence). fn is responsible for its own synchronization; with
// workers <= 1 every call happens in the calling goroutine, in order.
func ForEach(ctx context.Context, workers, n int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	var (
		pmu  sync.Mutex
		perr *PanicError
	)
	call := func(i int) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			pmu.Lock()
			if perr == nil {
				perr = &PanicError{Index: i, Value: p, Stack: string(debug.Stack())}
			}
			perr.Count++
			pmu.Unlock()
		}()
		fn(i)
	}
	workers = poolSize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			call(i)
		}
	} else {
		var wg sync.WaitGroup
		feed := make(chan int)
		go func() {
			defer close(feed)
			for i := 0; i < n; i++ {
				select {
				case feed <- i:
				case <-ctx.Done():
					return
				}
			}
		}()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range feed {
					call(i)
				}
			}()
		}
		wg.Wait()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	return nil
}

// finish compacts completed verdicts (preserving generation order) and
// computes the sweep stats.
func finish(verdicts []Verdict, done []bool, start time.Time, workers int, err error) ([]Verdict, RunStats, error) {
	out := make([]Verdict, 0, len(verdicts))
	for i := range verdicts {
		if done[i] {
			out = append(out, verdicts[i])
		}
	}
	stats := RunStats{Cases: len(out), Workers: workers, Elapsed: time.Since(start)}
	for i := range out {
		switch {
		case out[i].Err != nil:
			stats.Errored++
		case out[i].OK:
			stats.Passed++
		default:
			stats.Failed++
		}
		switch out[i].Outcome {
		case harden.ToolFault:
			stats.Crashes++
		case harden.Timeout, harden.Livelock:
			stats.Timeouts++
		}
		if out[i].Isolation != nil {
			stats.Retries += out[i].Isolation.Retries
		}
	}
	if s := stats.Elapsed.Seconds(); s > 0 {
		stats.CasesPerSecond = float64(stats.Cases) / s
	}
	return out, stats, err
}
