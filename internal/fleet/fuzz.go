package fleet

import (
	"context"
	"fmt"

	"pfi/internal/explore"
	"pfi/internal/harden"
	"pfi/internal/tcp"
)

// NewFuzz builds a coordinator that shards fuzz generation batches over
// the fleet. profile names the default vendor profile for schedules that
// do not pin one ("" = SunOS 4.1.3); hw is the deterministic isolation
// policy each candidate evaluation runs under on the worker.
func NewFuzz(profile string, hw WireHarden, cfg Config) *Coordinator {
	return NewCoordinator(Job{Kind: JobFuzz, Profile: profile, Harden: hw}, cfg)
}

// EvalBatch shards one generation batch over the fleet and merges the
// outcomes back in candidate order — the explore.Options.EvalBatch hook.
// Each outcome is a pure function of its schedule, so the merged slice
// is identical to in-process evaluation regardless of which worker
// evaluated what, in what order.
func (c *Coordinator) EvalBatch(ctx context.Context, batch []explore.Schedule) ([]*explore.Outcome, error) {
	if c.job.Kind != JobFuzz {
		return nil, fmt.Errorf("fleet: EvalBatch on a %s coordinator", c.job.Kind)
	}
	cells, err := c.RunRound(ctx, c.newRound(len(batch), nil, func(u *Unit) {
		u.Schedules = append([]explore.Schedule(nil), batch[u.Lo:u.Hi]...)
	}, nil))
	if err != nil {
		return nil, err
	}
	outs := make([]*explore.Outcome, len(batch))
	for i, cell := range cells {
		if cell == nil {
			return nil, fmt.Errorf("fleet: candidate %d never evaluated", i)
		}
		// Coverage words were validated at merge time; an error here is a
		// coordinator bug.
		if outs[i], err = outcomeFromWire(*cell.Outcome); err != nil {
			return nil, err
		}
	}
	return outs, nil
}

// RunFuzz runs the coverage-guided exploration loop with candidate
// evaluation sharded over the fleet. Everything sequential stays on the
// coordinator — candidate derivation, corpus evolution, shrinking, repro
// emission — so the report (fingerprint, corpus, findings, emitted
// bytes) is bit-identical to single-process explore.Fuzz for the same
// seed. opts.Profile is overridden from the job so coordinator-side
// shrink evaluations and worker-side batch evaluations resolve the same
// vendor profile.
//
// Crash safety rides on opts.Journal: because derivation, corpus
// evolution, and generation boundaries all live here on the
// coordinator, explore's own generation-boundary journaling makes the
// fleet run resumable with no extra wire traffic — a restarted
// coordinator skips the journaled generations and re-dispatches only
// the interrupted one. The coordinator additionally stamps its epoch
// into the journal so re-adopted workers can be told apart.
func (c *Coordinator) RunFuzz(opts explore.Options) (*explore.Report, error) {
	if c.job.Kind != JobFuzz {
		return nil, fmt.Errorf("fleet: RunFuzz on a %s coordinator", c.job.Kind)
	}
	prof, err := tcp.ProfileByName(c.job.Profile)
	if err != nil {
		return nil, err
	}
	if opts.Journal != nil {
		if err := c.adoptJournal(opts.Journal); err != nil {
			return nil, err
		}
	}
	opts.Profile = prof
	opts.Harden = c.job.Harden.Config()
	opts.EvalBatch = c.EvalBatch
	return explore.Fuzz(opts)
}

// outcomeFromWire rebuilds the deterministic projection of an outcome:
// schedule, coverage, violations. Result and Source stay nil — the fuzz
// loop's admit/handle path never reads them, and shrinking re-evaluates
// locally.
func outcomeFromWire(w WireOutcome) (*explore.Outcome, error) {
	cov, err := explore.CoverageFrom(w.Cov)
	if err != nil {
		return nil, err
	}
	return &explore.Outcome{Schedule: w.Schedule, Cov: cov, Violations: w.Violations}, nil
}

// outcomeToWire projects an outcome onto its wire form.
func outcomeToWire(index int, o *explore.Outcome) WireOutcome {
	return WireOutcome{Index: index, Schedule: o.Schedule, Cov: o.Cov.Sparse(), Violations: o.Violations}
}

// fuzzOps is the fuzz job kind: a cell is one WireOutcome indexed into the
// generation batch, and units carry their candidate schedules inline.
var fuzzOps = jobOps{
	check: func(cell WireCell) (int, error) {
		if cell.Outcome == nil || cell.Verdict != nil {
			return 0, fmt.Errorf("fuzz cell without an outcome")
		}
		if _, err := explore.CoverageFrom(cell.Outcome.Cov); err != nil {
			return 0, fmt.Errorf("outcome %d: %w", cell.Outcome.Index, err)
		}
		return cell.Outcome.Index, nil
	},
	// A lost candidate becomes an exec-error violation: machine-dependent
	// losses are reported, never emitted, matching how wall-clock timeouts
	// degrade elsewhere.
	contain: func(u Unit, i int, _ harden.Kind, why string) WireCell {
		return WireCell{Unit: u.ID, Outcome: &WireOutcome{
			Index:      i,
			Schedule:   u.Schedules[i-u.Lo],
			Violations: []explore.Violation{{Kind: explore.ViolExecError, Detail: why}},
		}}
	},
	execute: func(job Job, u Unit, emit func(WireCell) error) error {
		prof, err := tcp.ProfileByName(job.Profile)
		if err != nil {
			return err
		}
		if len(u.Schedules) != u.Hi-u.Lo {
			return fmt.Errorf("fleet: unit [%d,%d) carries %d schedules", u.Lo, u.Hi, len(u.Schedules))
		}
		cfg := job.Harden.Config()
		for i, s := range u.Schedules {
			wo := outcomeToWire(u.Lo+i, explore.EvaluateWith(s, prof, cfg))
			if err := emit(WireCell{Unit: u.ID, Outcome: &wo}); err != nil {
				return err
			}
		}
		return nil
	},
}
