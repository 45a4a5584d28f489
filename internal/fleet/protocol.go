// Package fleet shards campaign matrices and fuzz generation batches
// across N worker processes — local spawned children or remote machines —
// and merges their verdicts back deterministically. It is the
// fault-injection-as-a-service substrate: a single coordinator owns the
// work plan and the merge, workers own nothing but the cell they are
// leasing, and the result stream is bit-identical to single-process
// campaign.RunParallel / explore.Fuzz for the same seed at any shard
// count and any completion order.
//
// Architecture: one handler core (Coordinator.HandleEnvelope) behind two
// transports. Spawned workers speak newline-delimited JSON frames over
// their stdin/stdout (stdio.go); remote workers POST the same frames to
// the coordinator's HTTP control plane (http.go), which also serves
// /status and /metrics for long-running fleets. Sessions are per-worker
// state: a worker announces itself with hello, receives the job and a
// session ID, then loops lease -> execute -> result until drained.
//
// Loss recovery reuses the harden taxonomy: a unit whose worker dies
// (stdio EOF -> ToolFault) or goes silent past the unit timeout
// (Timeout) is reassigned exactly once; a second loss records the unit's
// cells as contained instead of reassigning again, so one hostile worker
// can neither duplicate nor starve a cell. Results arriving for a unit
// that was already completed or reassigned elsewhere are counted stale
// and dropped — exactly-once merge regardless of how workers misbehave.
//
// Crash safety (v2): workers stream each completed cell (MsgCell) before
// the unit-completion marker (MsgResult), so a lost unit only forfeits
// the cells not yet reported. The fleet itself keeps no journal: the run's
// owner (campaign.RunParallel, explore.Fuzz) journals what the fleet
// lands, resumes from it, and tells each round which cells it already
// holds; the coordinator only stamps an epoch record (RecEpoch) per
// attachment, which reconnecting workers observe when a restarted
// coordinator re-adopts them.
//
// The coordinator core (coordinator.go) shards an index space and knows
// leases, sessions, loss, reassignment and staleness — never what a cell
// means. What differs per job kind is the jobOps table defined next to
// each job (campaign.go, fuzz.go): validate a cell payload, synthesize a
// contained cell, execute a unit on the worker.
package fleet

import (
	"encoding/json"
	"fmt"

	"pfi/internal/campaign"
	"pfi/internal/explore"
	"pfi/internal/harden"
)

// ProtocolVersion stamps every frame. A coordinator rejects frames from
// any other version with an explicit error rather than risking a silent
// mis-merge between drifted binaries. v2 added per-cell result streaming
// (MsgCell) and coordinator epochs.
const ProtocolVersion = 2

// Message types carried in Envelope.Type. hello/lease/cell/result flow
// worker -> coordinator; job/unit/wait/drain/ack/error are the responses.
const (
	MsgHello  = "hello"  // worker announces itself, expects MsgJob
	MsgJob    = "job"    // coordinator assigns a session + the job
	MsgLease  = "lease"  // worker asks for a unit
	MsgUnit   = "unit"   // coordinator leases one work unit
	MsgWait   = "wait"   // no unit available yet; poll again
	MsgDrain  = "drain"  // no more work ever; worker exits
	MsgCell   = "cell"   // worker streams one completed cell of a leased unit
	MsgResult = "result" // worker marks a unit complete (cells already streamed)
	MsgAck    = "ack"    // coordinator accepted (or staled) the result
	MsgError  = "error"  // protocol-level rejection; body in Error
)

// Job kinds.
const (
	JobCampaign = "campaign" // shard a generated case matrix
	JobFuzz     = "fuzz"     // evaluate fuzz candidate schedules
)

// jobOps is everything the fleet knows about what a cell of one job kind
// means. The coordinator core and the worker loop call through it and
// stay kind-agnostic.
type jobOps struct {
	// check validates one cell payload — input from outside the process —
	// and returns its index in the round; the coordinator bounds it to the
	// unit's span.
	check func(cell WireCell) (int, error)
	// contain synthesizes cell i of a unit lost twice: a contained record
	// under the harden taxonomy, never a silent gap.
	contain func(u Unit, i int, kind harden.Kind, why string) WireCell
	// execute runs one leased unit on the worker, cell by cell in order,
	// handing each finished cell to emit; an emit error aborts the unit.
	execute func(job Job, u Unit, emit func(WireCell) error) error
}

var jobKinds = map[string]jobOps{JobCampaign: campaignOps, JobFuzz: fuzzOps}

// ops resolves the job's kind table. An unknown kind (a drifted peer)
// yields ops that reject every cell and every unit.
func (j Job) ops() jobOps {
	if ops, ok := jobKinds[j.Kind]; ok {
		return ops
	}
	unknown := fmt.Errorf("fleet: unknown job kind %q", j.Kind)
	return jobOps{
		check:   func(WireCell) (int, error) { return 0, unknown },
		contain: func(u Unit, _ int, _ harden.Kind, _ string) WireCell { return WireCell{Unit: u.ID} },
		execute: func(Job, Unit, func(WireCell) error) error { return unknown },
	}
}

// Envelope is the single wire frame both transports carry: one JSON
// object per message, newline-delimited on stdio, one per HTTP POST.
type Envelope struct {
	// V is the protocol version; every frame carries it and mismatches
	// are rejected at the handler, never silently merged.
	V int `json:"v"`
	// Type is one of the Msg* constants.
	Type string `json:"type"`
	// Session identifies the worker (assigned by MsgJob, echoed on every
	// subsequent request).
	Session string `json:"session,omitempty"`
	// Worker is the peer's self-description on hello (diagnostics only).
	Worker string `json:"worker,omitempty"`
	// Epoch stamps MsgJob replies with the coordinator's journal epoch
	// (restart count). A reconnecting worker that sees the epoch change
	// knows it was re-adopted by a restarted coordinator, not merely
	// re-admitted by the same one. 0 means no journal is attached.
	Epoch int `json:"epoch,omitempty"`
	// Job is the assignment payload of MsgJob.
	Job *Job `json:"job,omitempty"`
	// Unit is the leased work of MsgUnit.
	Unit *Unit `json:"unit,omitempty"`
	// Cell is one streamed cell of MsgCell.
	Cell *WireCell `json:"cell,omitempty"`
	// Result is the completion marker of MsgResult. Its payload entries
	// fill any cells not already streamed (a v1-style full-unit result is
	// therefore still merged correctly); cells already held first-write-
	// win.
	Result *Result `json:"result,omitempty"`
	// Error is the rejection text of MsgError.
	Error string `json:"error,omitempty"`
}

// Job tells a worker everything it needs to execute any unit of the run.
// Campaign workers regenerate the deterministic case matrix locally from
// Spec (cells travel as index ranges, never as scripts); fuzz workers
// receive candidate schedules inline per unit.
type Job struct {
	// Kind is JobCampaign or JobFuzz.
	Kind string `json:"kind"`
	// Spec is the campaign matrix specification (JobCampaign).
	Spec *campaign.Spec `json:"spec,omitempty"`
	// Scenario names the registered scenario workers drive each case
	// through (JobCampaign; see RegisterScenario).
	Scenario string `json:"scenario,omitempty"`
	// Profile names the default vendor profile for fuzz schedules that do
	// not pin one ("" = SunOS 4.1.3, the runner default everywhere).
	Profile string `json:"profile,omitempty"`
	// Harden is the per-cell isolation policy, deterministic knobs only.
	Harden WireHarden `json:"harden"`
}

// WireHarden is the subset of harden.Config a job carries: the
// simulated-time watchdogs and budgets whose verdicts are identical on
// every machine. Wall-clock knobs (Timeout, Context) deliberately stay
// coordinator-side — the coordinator meters workers with its own unit
// timeout instead, so remote execution cannot make a sweep
// machine-dependent.
type WireHarden struct {
	StallSteps   int  `json:"stall_steps,omitempty"`
	TraceEntries int  `json:"trace_entries,omitempty"`
	ScriptSteps  int  `json:"script_steps,omitempty"`
	InjectedMsgs int  `json:"injected_msgs,omitempty"`
	Timers       int  `json:"timers,omitempty"`
	Retry        bool `json:"retry,omitempty"`
}

// HardenWire projects a harden.Config onto its wire-safe subset.
func HardenWire(c harden.Config) WireHarden {
	return WireHarden{
		StallSteps:   c.StallSteps,
		TraceEntries: c.Budget.TraceEntries,
		ScriptSteps:  c.Budget.ScriptSteps,
		InjectedMsgs: c.Budget.InjectedMsgs,
		Timers:       c.Budget.Timers,
		Retry:        c.Retry,
	}
}

// Config expands the wire form back into a worker-side harden.Config.
func (w WireHarden) Config() harden.Config {
	return harden.Config{
		StallSteps: w.StallSteps,
		Budget: harden.Budget{
			TraceEntries: w.TraceEntries,
			ScriptSteps:  w.ScriptSteps,
			InjectedMsgs: w.InjectedMsgs,
			Timers:       w.Timers,
		},
		Retry: w.Retry,
	}
}

// Unit is one leased work unit: a contiguous [Lo,Hi) slice of the
// round's index space. Campaign units address the generated case matrix;
// fuzz units carry their candidate schedules inline (indexed Lo..Hi-1
// within the generation batch).
type Unit struct {
	// ID is unique across the coordinator's lifetime.
	ID int `json:"id"`
	// Round groups the units of one dispatch (fuzz generations dispatch
	// one round each; a campaign is a single round).
	Round int `json:"round"`
	// Lo and Hi bound the unit's cell indices: [Lo, Hi).
	Lo int `json:"lo"`
	Hi int `json:"hi"`
	// Schedules is the fuzz payload: the candidate genomes for cells
	// Lo..Hi-1, in order.
	Schedules []explore.Schedule `json:"schedules,omitempty"`
}

// WireCell is one streamed cell of a leased unit: exactly one of Verdict
// (JobCampaign) or Outcome (JobFuzz) is set. Streaming cells as they
// complete bounds the blast radius of a lost worker to the cells it had
// not yet reported — the coordinator keeps everything already streamed
// and a reassigned unit only has to re-earn the gap.
type WireCell struct {
	// Unit is the leased unit this cell belongs to.
	Unit int `json:"unit"`
	// Verdict is the campaign cell payload (JobCampaign).
	Verdict *WireVerdict `json:"verdict,omitempty"`
	// Outcome is the fuzz cell payload (JobFuzz).
	Outcome *WireOutcome `json:"outcome,omitempty"`
}

// Result marks a unit complete. A v2 worker streams its cells via
// MsgCell and sends an empty payload here; a payload, when present,
// fills any cells the coordinator is still missing (first-write-wins),
// which keeps full-unit results mergeable.
type Result struct {
	// Unit echoes the unit ID.
	Unit int `json:"unit"`
	// Verdicts are the campaign cells (JobCampaign).
	Verdicts []WireVerdict `json:"verdicts,omitempty"`
	// Outcomes are the evaluated fuzz candidates (JobFuzz).
	Outcomes []WireOutcome `json:"outcomes,omitempty"`
}

// cells lists a result's payload entries as cells of its unit, whatever
// their kind; the job's check rejects the ones that do not belong.
func (r *Result) cells() []WireCell {
	out := make([]WireCell, 0, len(r.Verdicts)+len(r.Outcomes))
	for i := range r.Verdicts {
		out = append(out, WireCell{Unit: r.Unit, Verdict: &r.Verdicts[i]})
	}
	for i := range r.Outcomes {
		out = append(out, WireCell{Unit: r.Unit, Outcome: &r.Outcomes[i]})
	}
	return out
}

// WireVerdict is the wire form of a campaign.JournalVerdict — the durable,
// deterministic projection of a campaign.Verdict (see verdictToWire).
// Wall-clock cost travels for observability; isolation stacks never
// travel at all.
type WireVerdict struct {
	// Index is the global case index in the generated matrix.
	Index int `json:"index"`
	// OK, Note, Err, and Outcome mirror campaign.Verdict (Err as text,
	// "" meaning nil; Outcome as the harden.Kind ordinal).
	OK      bool   `json:"ok"`
	Note    string `json:"note,omitempty"`
	Err     string `json:"err,omitempty"`
	Outcome int    `json:"outcome"`
	// Retries counts isolation-layer retry attempts (stats only).
	Retries int `json:"retries,omitempty"`
	// ElapsedUS is the worker-side wall-clock cost in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
}

// WireOutcome is the deterministic projection of an explore.Outcome: the
// schedule, its coverage, and its oracle violations — everything the fuzz
// loop's admit/handle path consumes. The conformance Result stays on the
// worker; shrinking re-evaluates locally on the coordinator.
type WireOutcome struct {
	// Index is the cell index within the generation batch.
	Index int `json:"index"`
	// Schedule is the evaluated genome.
	Schedule explore.Schedule `json:"schedule"`
	// Cov is the sparse coverage bitmap.
	Cov []explore.CovWord `json:"cov,omitempty"`
	// Violations are the oracle breaches observed on the worker.
	Violations []explore.Violation `json:"violations,omitempty"`
}

// Encode renders an envelope as one JSON frame (no trailing newline; the
// stdio transport adds its own delimiter).
func Encode(e Envelope) ([]byte, error) {
	return json.Marshal(e)
}

// Decode parses one frame. Malformed JSON and structurally empty frames
// are rejected here; version mismatches are the handler's job so the
// rejection can name both versions.
func Decode(data []byte) (Envelope, error) {
	var e Envelope
	if err := json.Unmarshal(data, &e); err != nil {
		return Envelope{}, fmt.Errorf("fleet: malformed frame: %w", err)
	}
	if e.Type == "" {
		return Envelope{}, fmt.Errorf("fleet: frame missing message type")
	}
	return e, nil
}

// errEnvelope builds a protocol-level rejection.
func errEnvelope(msg string) Envelope {
	return Envelope{V: ProtocolVersion, Type: MsgError, Error: msg}
}

// mustEncode marshals a handler-built envelope; these are all plain
// structs, so a marshal failure is a programming error.
func mustEncode(e Envelope) []byte {
	data, err := Encode(e)
	if err != nil {
		panic(fmt.Sprintf("fleet: encoding %s envelope: %v", e.Type, err))
	}
	return data
}
