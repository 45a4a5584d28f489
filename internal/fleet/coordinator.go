package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"pfi/internal/harden"
	"pfi/internal/journal"
)

// Config tunes a coordinator.
type Config struct {
	// Shards is how many units each round is split into (default 8).
	// More units than workers keeps the pool load-balanced and bounds
	// the blast radius of one lost worker to one small unit.
	Shards int
	// UnitTimeout reaps a leased unit whose worker has gone silent: the
	// unit is reassigned (once) as a harden.Timeout loss. 0 disables the
	// reaper — only connection loss then triggers reassignment, which is
	// enough for stdio workers whose death is an EOF but leaves HTTP
	// workers unmetered.
	UnitTimeout time.Duration
	// LeaseWait bounds how long a lease request blocks server-side before
	// answering wait (long-poll interval; default 250ms).
	LeaseWait time.Duration
	// Log receives progress lines (nil: silent).
	Log func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.LeaseWait <= 0 {
		c.LeaseWait = 250 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = func(string, ...any) {}
	}
	return c
}

// Stats counts the coordinator's control-plane events. All counters are
// cumulative over the coordinator's lifetime.
type Stats struct {
	// Rounds and Units count dispatched work; UnitsDone completed units
	// (including contained ones).
	Rounds    int `json:"rounds"`
	Units     int `json:"units"`
	UnitsDone int `json:"units_done"`
	// Reassigned counts units put back in the queue after their worker
	// was lost; each unit is reassigned at most once.
	Reassigned int `json:"reassigned"`
	// Contained counts units lost twice and recorded as contained cells
	// instead of reassigned again.
	Contained int `json:"contained"`
	// Stale counts results dropped because their unit was already
	// completed or reassigned elsewhere — the exactly-once guard firing.
	Stale int `json:"stale"`
	// Cells counts cells merged from streamed MsgCell frames (duplicate
	// streams of an already-held cell are ignored, not counted).
	Cells int `json:"cells"`
	// BadFrames counts undecodable, version-mismatched, or structurally
	// invalid frames.
	BadFrames int `json:"bad_frames"`
	// WorkersSeen and WorkersLost count sessions; draining exits are not
	// losses.
	WorkersSeen int `json:"workers_seen"`
	WorkersLost int `json:"workers_lost"`
}

// Summary renders the end-of-run fleet line the CLIs print.
func (s Stats) Summary() string {
	rounds := ""
	if s.Rounds != 1 {
		rounds = fmt.Sprintf(" in %d rounds", s.Rounds)
	}
	return fmt.Sprintf("fleet: %d units%s over %d worker(s): %d reassigned, %d contained, %d stale, %d bad frames",
		s.Units, rounds, s.WorkersSeen, s.Reassigned, s.Contained, s.Stale, s.BadFrames)
}

// unit lifecycle states.
const (
	unitPending = iota
	unitLeased
	unitDone
)

// session is one worker's per-connection state.
type session struct {
	id        string
	worker    string
	lost      bool
	drained   bool         // has been answered MsgDrain
	leased    map[int]bool // unit IDs currently held
	completed int
	lastSeen  time.Time
}

// round is one dispatched batch of units over an index space of cells.
type round struct {
	id     int
	units  []Unit
	byID   map[int]int // unit ID -> position
	state  []int
	owner  []string
	losses []int
	expiry []time.Time
	left   int
	done   chan struct{}
	// cells holds the round's results by global cell index. have marks
	// the indices that need no (more) work: held by the run's owner before
	// dispatch, or filled since — streamed, carried in a result payload, or
	// synthesized by containment, all first-write-wins. A unit completes
	// when its whole [Lo,Hi) is had.
	cells []*WireCell
	have  []bool
	// landed, when non-nil, observes each newly filled cell. It runs with
	// the coordinator's mutex held — a cell is never acked before the
	// run's owner has banked it, and a round never completes before its
	// last cell landed — so it must not call back into the coordinator.
	landed func(i int, cell *WireCell)
}

// Coordinator is the fleet's single source of truth: it owns the job,
// the work plan, every session, and the merge. One handler core serves
// both transports; all state lives behind one mutex, so completion order
// can never influence what gets merged where. It shards index spans and
// tracks leases, loss and staleness; what a cell means lives in the job's
// ops table.
type Coordinator struct {
	cfg   Config
	job   Job
	ops   jobOps
	start time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[string]*session
	seq      int
	unitSeq  int
	roundSeq int
	round    *round
	draining bool
	stats    Stats

	epoch int // restart count from RecEpoch records (0: no journal adopted)
}

// NewCoordinator builds a coordinator for the given job. Use NewCampaign
// or NewFuzz for the job-shaped constructors.
func NewCoordinator(job Job, cfg Config) *Coordinator {
	c := &Coordinator{cfg: cfg.withDefaults(), job: job, ops: job.ops(), start: time.Now(), sessions: map[string]*session{}}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Stats returns a snapshot of the control-plane counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close drains the fleet: every subsequent lease answers drain, so
// workers exit cleanly, and worker disconnects stop counting as losses.
func (c *Coordinator) Close() {
	c.mu.Lock()
	c.draining = true
	c.cond.Broadcast()
	c.mu.Unlock()
}

// WaitDrained blocks until every live session has been answered drain, or
// grace expires. Spawned workers are waited on as processes; this is the
// equivalent for HTTP workers, so that a coordinator about to stop serving
// lets them exit cleanly instead of redialing a server that is gone. A
// worker that died silently never asks again — hence the bound.
func (c *Coordinator) WaitDrained(grace time.Duration) {
	deadline := time.Now().Add(grace)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		pending := false
		for _, s := range c.sessions {
			pending = pending || !(s.lost || s.drained)
		}
		remaining := time.Until(deadline)
		if !pending || remaining <= 0 {
			return
		}
		t := time.AfterFunc(remaining, c.cond.Broadcast)
		c.cond.Wait()
		t.Stop()
	}
}

// Draining reports whether Close has been called.
func (c *Coordinator) Draining() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.draining
}

// Handle decodes one raw frame, dispatches it through the handler core,
// and encodes the response — the byte-level entry both transports use.
func (c *Coordinator) Handle(frame []byte) []byte {
	e, err := Decode(frame)
	if err != nil {
		c.mu.Lock()
		c.stats.BadFrames++
		c.mu.Unlock()
		return mustEncode(errEnvelope(err.Error()))
	}
	return mustEncode(c.HandleEnvelope(e))
}

// HandleEnvelope is the transport-agnostic handler core. Every request
// from every worker funnels through here.
func (c *Coordinator) HandleEnvelope(e Envelope) Envelope {
	if e.V != ProtocolVersion {
		c.mu.Lock()
		c.stats.BadFrames++
		c.mu.Unlock()
		return errEnvelope(fmt.Sprintf(
			"fleet: protocol version mismatch: coordinator speaks v%d, peer sent v%d — refusing to merge across versions",
			ProtocolVersion, e.V))
	}
	switch e.Type {
	case MsgHello:
		return c.hello(e)
	case MsgLease:
		return c.lease(e)
	case MsgCell, MsgResult:
		return c.unitFrame(e)
	default:
		c.mu.Lock()
		c.stats.BadFrames++
		c.mu.Unlock()
		return errEnvelope(fmt.Sprintf("fleet: unexpected message type %q", e.Type))
	}
}

// hello admits a worker: allocate a session, hand back the job.
func (c *Coordinator) hello(e Envelope) Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	s := &session{id: fmt.Sprintf("w%d", c.seq), worker: e.Worker, leased: map[int]bool{}, lastSeen: time.Now()}
	c.sessions[s.id] = s
	c.stats.WorkersSeen++
	c.cfg.Log("fleet: worker %s (%s) joined", s.id, s.worker)
	job := c.job
	return Envelope{V: ProtocolVersion, Type: MsgJob, Session: s.id, Epoch: c.epoch, Job: &job}
}

// lease hands the requesting session the next pending unit, long-polling
// up to LeaseWait for one to appear. Draining answers drain; a quiet
// queue answers wait.
func (c *Coordinator) lease(e Envelope) Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[e.Session]
	if s == nil || s.lost {
		return errEnvelope(fmt.Sprintf("fleet: unknown or lost session %q", e.Session))
	}
	s.lastSeen = time.Now()
	deadline := time.Now().Add(c.cfg.LeaseWait)
	for {
		if c.draining {
			s.drained = true
			c.cond.Broadcast()
			return Envelope{V: ProtocolVersion, Type: MsgDrain}
		}
		if r := c.round; r != nil {
			for pos := range r.units {
				if r.state[pos] != unitPending {
					continue
				}
				r.state[pos] = unitLeased
				r.owner[pos] = s.id
				if c.cfg.UnitTimeout > 0 {
					r.expiry[pos] = time.Now().Add(c.cfg.UnitTimeout)
				}
				s.leased[r.units[pos].ID] = true
				u := r.units[pos]
				return Envelope{V: ProtocolVersion, Type: MsgUnit, Unit: &u}
			}
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return Envelope{V: ProtocolVersion, Type: MsgWait}
		}
		// cond.Wait with a deadline: arm a broadcast so the wait can't
		// outlive the long-poll window.
		t := time.AfterFunc(remaining, c.cond.Broadcast)
		c.cond.Wait()
		t.Stop()
	}
}

// unitFrame handles the two frames that carry work back. A MsgCell merges
// one streamed cell of a leased unit. A MsgResult completes a unit whose
// cells are all had — streamed, held by the run's owner, or carried in
// this frame's payload (a v1-style full result), which goes through the
// same per-cell check and fill. Either is dropped as stale if the unit
// moved on (completed, or reassigned away from the sender). A
// structurally invalid or incomplete frame (wrong payload, out-of-range
// indices, bad coverage words, cells still missing) loses the unit:
// reassigned once, contained on the second strike, never merged.
func (c *Coordinator) unitFrame(e Envelope) Envelope {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[e.Session]
	if s == nil {
		return errEnvelope(fmt.Sprintf("fleet: unknown session %q", e.Session))
	}
	s.lastSeen = time.Now()
	var (
		unit   int
		cells  []WireCell
		marker = e.Type == MsgResult
	)
	switch {
	case !marker && e.Cell != nil:
		unit, cells = e.Cell.Unit, []WireCell{*e.Cell}
	case marker && e.Result != nil:
		unit, cells = e.Result.Unit, e.Result.cells()
	default:
		c.stats.BadFrames++
		return errEnvelope(fmt.Sprintf("fleet: %s frame carries no %s", e.Type, e.Type))
	}
	r, pos, ok := c.round, 0, false
	if r != nil {
		pos, ok = r.byID[unit]
	}
	if !ok || r.state[pos] == unitDone || r.owner[pos] != s.id {
		c.stats.Stale++
		return Envelope{V: ProtocolVersion, Type: MsgAck}
	}
	if err := c.mergeLocked(r, r.units[pos], cells, marker); err != nil {
		c.stats.BadFrames++
		c.loseUnitLocked(r, pos, harden.ToolFault, fmt.Sprintf("fleet: unit %d: invalid %s from %s: %v", unit, e.Type, s.id, err))
		return errEnvelope(err.Error())
	}
	if marker {
		delete(s.leased, unit)
		s.completed++
		c.completeLocked(r, pos)
	}
	return Envelope{V: ProtocolVersion, Type: MsgAck}
}

// mergeLocked validates every cell of a frame — the payload is input from
// outside the process — before filling any, so a garbled frame never
// reaches the merge even partially. A completion marker additionally
// requires every cell of the unit to be had once its payload is in.
func (c *Coordinator) mergeLocked(r *round, u Unit, cells []WireCell, marker bool) error {
	idx := make([]int, len(cells))
	for k, cell := range cells {
		i, err := c.ops.check(cell)
		if err != nil {
			return fmt.Errorf("fleet: unit %d: %w", u.ID, err)
		}
		if i < u.Lo || i >= u.Hi {
			return fmt.Errorf("fleet: unit %d: cell index %d outside [%d,%d)", u.ID, i, u.Lo, u.Hi)
		}
		idx[k] = i
	}
	for k := range cells {
		if c.fillLocked(r, idx[k], cells[k]) && !marker {
			c.stats.Cells++
		}
	}
	if marker {
		for i := u.Lo; i < u.Hi; i++ {
			if !r.have[i] {
				return fmt.Errorf("fleet: unit %d: cell %d neither streamed nor carried", u.ID, i)
			}
		}
	}
	return nil
}

// fillLocked stores a validated cell first-write-wins, hands it to the
// round's observer, and reports whether it was new. Duplicates (a
// reassigned worker re-earning a cell the first owner already streamed)
// are ignored — cells are pure functions of their index, so any
// duplicate is identical.
func (c *Coordinator) fillLocked(r *round, i int, cell WireCell) bool {
	if r.have[i] {
		return false
	}
	r.cells[i], r.have[i] = &cell, true
	if r.landed != nil {
		r.landed(i, &cell)
	}
	return true
}

// completeLocked marks a unit done and wakes the round waiter when the
// last unit lands.
func (c *Coordinator) completeLocked(r *round, pos int) {
	r.state[pos] = unitDone
	r.owner[pos] = ""
	r.left--
	c.stats.UnitsDone++
	if r.left == 0 {
		close(r.done)
	}
	c.cond.Broadcast()
}

// LoseSession marks a worker gone — its connection closed, its process
// died — and recovers every unit it was holding. kind classifies the
// loss under the harden taxonomy (ToolFault for a dead connection,
// Timeout for a reaped lease).
func (c *Coordinator) LoseSession(id string, kind harden.Kind) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.sessions[id]
	if s == nil || s.lost {
		return
	}
	s.lost = true
	if !c.draining {
		c.stats.WorkersLost++
		c.cfg.Log("fleet: worker %s lost (%s)", id, kind)
	}
	if r := c.round; r != nil {
		for pos := range r.units {
			if r.state[pos] == unitLeased && r.owner[pos] == id {
				c.loseUnitLocked(r, pos, kind, fmt.Sprintf("fleet: worker %s lost (%s) holding unit %d", id, kind, r.units[pos].ID))
			}
		}
	}
	c.cond.Broadcast()
}

// loseUnitLocked recovers one lost unit: the first loss puts it back in
// the queue (exactly one reassignment); a second loss records its cells
// as contained so a flapping worker can neither starve nor duplicate a
// cell.
func (c *Coordinator) loseUnitLocked(r *round, pos int, kind harden.Kind, why string) {
	if s := c.sessions[r.owner[pos]]; s != nil {
		delete(s.leased, r.units[pos].ID)
	}
	r.losses[pos]++
	r.expiry[pos] = time.Time{}
	if r.losses[pos] <= 1 {
		r.state[pos] = unitPending
		r.owner[pos] = ""
		c.stats.Reassigned++
		c.cfg.Log("fleet: unit %d lost once (%s); reassigning", r.units[pos].ID, kind)
		c.cond.Broadcast()
		return
	}
	c.stats.Contained++
	c.cfg.Log("fleet: unit %d lost twice; recording missing cells as contained", r.units[pos].ID)
	// Synthesize only the cells nobody streamed: what the lost workers did
	// stream is real completed work and is kept.
	if kind != harden.Timeout {
		kind = harden.ToolFault
	}
	for u, i := r.units[pos], r.units[pos].Lo; i < u.Hi; i++ {
		if !r.have[i] {
			c.fillLocked(r, i, c.ops.contain(u, i, kind, why+" (reassignment exhausted)"))
		}
	}
	c.completeLocked(r, pos)
}

// reapExpired loses every leased unit whose worker has been silent past
// the unit timeout. Called from the round waiter's tick.
func (c *Coordinator) reapExpired() {
	c.mu.Lock()
	defer c.mu.Unlock()
	r := c.round
	if r == nil || c.cfg.UnitTimeout <= 0 {
		return
	}
	now := time.Now()
	for pos := range r.units {
		if r.state[pos] == unitLeased && !r.expiry[pos].IsZero() && now.After(r.expiry[pos]) {
			c.loseUnitLocked(r, pos, harden.Timeout,
				fmt.Sprintf("fleet: unit %d timed out after %s on %s", r.units[pos].ID, c.cfg.UnitTimeout, r.owner[pos]))
		}
	}
}

// newRound plans one dispatch: spans over n cells, stamped with fresh
// unit IDs. held marks the cells the run's owner already has (nil: none):
// a fully held unit completes without a lease, a partially held one still
// dispatches — the worker re-earns the gap and first-write-wins ignores
// the rest. prep stamps each unit's payload (nil when workers regenerate
// cells from the job alone); landed observes each filled cell (see round).
func (c *Coordinator) newRound(n int, held []bool, prep func(*Unit), landed func(int, *WireCell)) *round {
	spans := Plan(n, c.cfg.Shards)
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &round{
		id:     c.roundSeq,
		byID:   map[int]int{},
		state:  make([]int, len(spans)),
		owner:  make([]string, len(spans)),
		losses: make([]int, len(spans)),
		expiry: make([]time.Time, len(spans)),
		left:   len(spans),
		done:   make(chan struct{}),
		cells:  make([]*WireCell, n),
		have:   make([]bool, n),
		landed: landed,
	}
	copy(r.have, held)
	c.roundSeq++
	for _, sp := range spans {
		u := Unit{ID: c.unitSeq, Round: r.id, Lo: sp.Lo, Hi: sp.Hi}
		c.unitSeq++
		if prep != nil {
			prep(&u)
		}
		r.byID[u.ID] = len(r.units)
		r.units = append(r.units, u)
	}
	if len(spans) == 0 {
		close(r.done) // empty matrix: the round is born complete
	}
	c.stats.Rounds++
	c.stats.Units += len(r.units)
	for pos, u := range r.units {
		full := true
		for i := u.Lo; i < u.Hi && full; i++ {
			full = r.have[i]
		}
		if full {
			c.cfg.Log("fleet: unit %d already held; not dispatched", u.ID)
			c.completeLocked(r, pos)
		}
	}
	return r
}

// RunRound dispatches one planned round to the fleet and blocks until
// every unit is done (completed or contained), the context is canceled,
// or the coordinator is drained. Cells come back in index order — the
// order workers finished them in never matters — with nil for cells the
// owner held and for whatever an aborted round never filled.
func (c *Coordinator) RunRound(ctx context.Context, r *round) ([]*WireCell, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.mu.Lock()
	if c.round != nil {
		c.mu.Unlock()
		return nil, fmt.Errorf("fleet: a round is already active")
	}
	c.round = r
	c.cond.Broadcast()
	c.mu.Unlock()

	tick := time.NewTicker(c.tickInterval())
	defer tick.Stop()
	var err error
loop:
	for {
		select {
		case <-r.done:
			break loop
		case <-ctx.Done():
			err = ctx.Err()
			break loop
		case <-tick.C:
			c.reapExpired()
		}
	}
	c.mu.Lock()
	c.round = nil
	c.cond.Broadcast()
	cells := append([]*WireCell(nil), r.cells...)
	c.mu.Unlock()
	return cells, err
}

// RecEpoch is the one journal record the fleet writes: one per
// coordinator attachment, so epoch = how many coordinators have owned
// this journal. It rides in the same log as the run owner's work records;
// the campaign and explore replay paths skip record types they do not own.
const RecEpoch = "epoch"

type epochRecord struct {
	Epoch int `json:"epoch"`
}

// adoptJournal counts prior epochs in the log and appends this
// coordinator's own epoch record.
func (c *Coordinator) adoptJournal(l *journal.Log) error {
	epoch := 1
	for _, rec := range l.Records() {
		if rec.Type == RecEpoch {
			epoch++
		}
	}
	if err := l.Append(RecEpoch, epochRecord{Epoch: epoch}); err != nil {
		return err
	}
	c.mu.Lock()
	c.epoch = epoch
	c.mu.Unlock()
	c.cfg.Log("fleet: journal %s adopted (epoch %d)", l.Path(), epoch)
	return nil
}

// tickInterval paces the reaper well inside the unit timeout.
func (c *Coordinator) tickInterval() time.Duration {
	if c.cfg.UnitTimeout > 0 {
		if t := c.cfg.UnitTimeout / 4; t >= 10*time.Millisecond {
			return t
		}
		return 10 * time.Millisecond
	}
	return 100 * time.Millisecond
}
