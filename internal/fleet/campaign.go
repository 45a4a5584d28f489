package fleet

import (
	"context"
	"fmt"
	"sync"

	"pfi/internal/campaign"
	"pfi/internal/harden"
)

// NewCampaign builds a coordinator that shards the given campaign matrix
// over the fleet. scenario names the registered scenario every worker
// drives cells through (see RegisterScenario); hw is the deterministic
// isolation policy each cell runs under on the worker.
func NewCampaign(spec campaign.Spec, scenario string, hw WireHarden, cfg Config) *Coordinator {
	sp := spec
	return NewCoordinator(Job{Kind: JobCampaign, Spec: &sp, Scenario: scenario, Harden: hw}, cfg)
}

// RunCampaign runs the job's sweep with cell evaluation sharded over
// whatever workers join. Everything that makes it a sweep stays in
// campaign.RunParallel — resume from opts.Journal, a RecVerdict per landed
// cell, OnVerdict, generation-order merge, stats — so the verdict stream
// is bit-identical (status, name, ok, note, error text) to the in-process
// pool with the same spec, scenario and harden knobs, at any shard count
// and any completion order, and a journal started by either resumes under
// the other. The fleet is only opts.Eval; the coordinator additionally
// stamps its epoch into the journal so re-adopted workers can be told
// apart. opts.Workers, Harden and Repro do not apply: workers run cells
// under the job's wire-safe harden knobs.
func (c *Coordinator) RunCampaign(opts campaign.Options) ([]campaign.Verdict, campaign.RunStats, error) {
	if c.job.Kind != JobCampaign || c.job.Spec == nil {
		return nil, campaign.RunStats{}, fmt.Errorf("fleet: RunCampaign on a %s coordinator without a campaign spec", c.job.Kind)
	}
	opts.Eval = func(ctx context.Context, cases []campaign.Case, held []bool, land func(int, campaign.Verdict)) error {
		if opts.Journal != nil {
			if err := c.adoptJournal(opts.Journal); err != nil {
				return err
			}
		}
		_, err := c.RunRound(ctx, c.newRound(len(cases), held, nil, func(i int, cell *WireCell) {
			land(i, verdictFromWire(cases[i], *cell.Verdict))
		}))
		return err
	}
	vs, stats, err := campaign.RunParallel(*c.job.Spec, nil, opts)
	stats.Workers = c.Stats().WorkersSeen
	return vs, stats, err
}

// verdictToWire and verdictFromWire are the only wire <-> verdict
// conversions. Both go through campaign.JournalOf / Restore, the single
// source of which verdict fields are durable, so a cell means the same
// whether it was journaled, streamed, or both.
func verdictToWire(index int, v campaign.Verdict) WireVerdict {
	jv := campaign.JournalOf(index, v)
	return WireVerdict{Index: jv.Index, OK: jv.OK, Note: jv.Note, Err: jv.Err,
		Outcome: jv.Outcome, Retries: jv.Retries, ElapsedUS: jv.ElapsedUS}
}

func verdictFromWire(cs campaign.Case, w WireVerdict) campaign.Verdict {
	return campaign.JournalVerdict{Index: w.Index, Name: cs.Name, OK: w.OK, Note: w.Note, Err: w.Err,
		Outcome: w.Outcome, Retries: w.Retries, ElapsedUS: w.ElapsedUS}.Restore(cs)
}

var (
	scenarioMu sync.RWMutex
	scenarios  = map[string]campaign.Scenario{}
)

// RegisterScenario publishes a campaign scenario under a name workers
// resolve jobs against. Coordinator and workers must register the same
// deterministic scenario for the fleet's merge to equal the in-process
// sweep — the name is the contract, the registry keeps functions out of
// the wire protocol.
func RegisterScenario(name string, s campaign.Scenario) {
	scenarioMu.Lock()
	defer scenarioMu.Unlock()
	scenarios[name] = s
}

func scenarioByName(name string) (campaign.Scenario, bool) {
	scenarioMu.RLock()
	defer scenarioMu.RUnlock()
	s, ok := scenarios[name]
	return s, ok
}

// campaignOps is the campaign job kind: a cell is one WireVerdict indexed
// into the generated case matrix.
var campaignOps = jobOps{
	check: func(cell WireCell) (int, error) {
		if cell.Verdict == nil || cell.Outcome != nil {
			return 0, fmt.Errorf("campaign cell without a verdict")
		}
		return cell.Verdict.Index, nil
	},
	contain: func(u Unit, i int, kind harden.Kind, why string) WireCell {
		return WireCell{Unit: u.ID, Verdict: &WireVerdict{Index: i, Err: why, Outcome: int(kind)}}
	},
	// Workers regenerate the deterministic matrix from the spec; only
	// index ranges travel.
	execute: func(job Job, u Unit, emit func(WireCell) error) error {
		if job.Spec == nil {
			return fmt.Errorf("fleet: campaign job carries no spec")
		}
		scenario, ok := scenarioByName(job.Scenario)
		if !ok {
			return fmt.Errorf("fleet: scenario %q not registered in this worker", job.Scenario)
		}
		cases, err := campaign.Generate(*job.Spec)
		if err != nil {
			return err
		}
		if u.Lo < 0 || u.Hi > len(cases) || u.Lo > u.Hi {
			return fmt.Errorf("fleet: unit [%d,%d) outside matrix of %d cases", u.Lo, u.Hi, len(cases))
		}
		cfg := job.Harden.Config()
		for i := u.Lo; i < u.Hi; i++ {
			wv := verdictToWire(i, campaign.RunCase(cases[i], scenario, cfg, nil))
			if err := emit(WireCell{Unit: u.ID, Verdict: &wv}); err != nil {
				return err
			}
		}
		return nil
	},
}
