package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/harden"
	"pfi/internal/journal"
)

// openJournal opens a fresh write-ahead log under the test's temp dir.
func openJournal(t *testing.T, dir, name string) *journal.Log {
	t.Helper()
	l, err := journal.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// streamCells plays a worker streaming cells of one unit through the
// handler core as MsgCell frames. Each frame must be acked.
func streamCells(t *testing.T, c *Coordinator, session string, unit int, vs ...WireVerdict) {
	t.Helper()
	for i := range vs {
		resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgCell, Session: session, Cell: &WireCell{Unit: unit, Verdict: &vs[i]}})
		if resp.Type != MsgAck {
			t.Fatalf("cell %d: got %+v, want ack", vs[i].Index, resp)
		}
	}
}

// streamUnit streams a whole unit, then the empty completion marker.
func streamUnit(t *testing.T, c *Coordinator, session string, u Unit) {
	t.Helper()
	res, err := executeUnit(c.Job(), u)
	if err != nil {
		t.Fatal(err)
	}
	streamCells(t, c, session, u.ID, res.Verdicts...)
	resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgResult, Session: session, Result: &Result{Unit: u.ID}})
	if resp.Type != MsgAck {
		t.Fatalf("completion marker: got %+v, want ack", resp)
	}
}

// TestCellStreamingCompletesUnits drives the v2 streaming shape through
// the handler core: every cell arrives as its own MsgCell frame and the
// unit completes on an empty result marker carrying no payload at all.
// The merge is byte-identical to the serial sweep, every streamed cell
// is counted, and a duplicate stream of an already-held cell is ignored
// without perturbing anything.
func TestCellStreamingCompletesUnits(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(2))
	out := startCampaign(c, campaign.Options{})
	s := hello(t, c, "streamer")
	held := leaseAll(t, c, []string{s}, 2)
	// Duplicate one cell mid-unit: the re-stream is acked and dropped.
	first, err := executeUnit(c.Job(), held[0].unit)
	if err != nil {
		t.Fatal(err)
	}
	dup := first.Verdicts[0]
	streamCells(t, c, s, held[0].unit.ID, dup, dup)
	for _, h := range held {
		streamUnit(t, c, s, h.unit)
	}
	got := awaitCampaign(t, out)
	if CanonVerdicts(got.vs) != want {
		t.Errorf("streamed sweep differs from serial sweep")
	}
	st := c.Stats()
	if st.Cells != 36 {
		t.Errorf("Cells = %d, want 36 (duplicates must not count)", st.Cells)
	}
	if st.UnitsDone != 2 || st.BadFrames != 0 || st.Reassigned != 0 {
		t.Errorf("stats = %+v, want 2 clean units", st)
	}
	// A cell for a completed unit is stale, not merged and not an error.
	streamCells(t, c, s, held[0].unit.ID, dup)
	if st := c.Stats(); st.Stale != 1 {
		t.Errorf("Stale = %d, want 1", st.Stale)
	}
}

// TestLossKeepsStreamedCells proves streamed work survives its worker:
// a worker streams a prefix of its unit and dies, the reassigned worker
// dies too, and containment synthesizes only the cells nobody streamed —
// the prefix stays byte-identical to the serial sweep.
func TestLossKeepsStreamedCells(t *testing.T) {
	serial := serialSweep(t)
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(1))
	out := startCampaign(c, campaign.Options{})
	s1 := hello(t, c, "doomed-1")
	held := leaseAll(t, c, []string{s1}, 1)
	u := held[0].unit
	full, err := executeUnit(c.Job(), u)
	if err != nil {
		t.Fatal(err)
	}
	const streamed = 5
	streamCells(t, c, s1, u.ID, full.Verdicts[:streamed]...)
	c.LoseSession(s1, harden.ToolFault)
	// The reassigned holder dies without streaming anything: second
	// strike, unit contained.
	s2 := hello(t, c, "doomed-2")
	if held2 := leaseAll(t, c, []string{s2}, 1); held2[0].unit.ID != u.ID {
		t.Fatalf("reassignment leased unit %d, want %d", held2[0].unit.ID, u.ID)
	}
	c.LoseSession(s2, harden.ToolFault)
	got := awaitCampaign(t, out)
	if len(got.vs) != 36 {
		t.Fatalf("merged %d verdicts, want 36", len(got.vs))
	}
	wantPrefix := CanonVerdicts(serial[:streamed])
	if CanonVerdicts(got.vs[:streamed]) != wantPrefix {
		t.Errorf("streamed prefix was not kept:\ngot:\n%swant:\n%s", CanonVerdicts(got.vs[:streamed]), wantPrefix)
	}
	for i := streamed; i < len(got.vs); i++ {
		v := got.vs[i]
		if v.Err == nil || !strings.Contains(v.Err.Error(), "reassignment exhausted") || v.Outcome != harden.ToolFault {
			t.Fatalf("cell %d: %+v, want contained tool-fault", i, v)
		}
	}
	st := c.Stats()
	if st.Reassigned != 1 || st.Contained != 1 || st.Cells != streamed {
		t.Errorf("stats = %+v, want Reassigned=1 Contained=1 Cells=%d", st, streamed)
	}
}

// TestFleetCampaignJournalResume is the coordinator-restart leg of the
// determinism battery: a first coordinator journals a partial sweep
// (one complete unit, one interrupted mid-unit) and is canceled; fresh
// coordinators against the same journal — driving 2 and then 4 real
// spawned worker processes — resume instead of restart, and the merged
// sweep stays byte-identical to the serial baseline. A final
// coordinator with no workers at all completes instantly from the
// journal alone. Each adoption bumps the epoch.
func TestFleetCampaignJournalResume(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	dir := t.TempDir()
	l := openJournal(t, dir, "sweep.journal")

	// Phase 1: journal a deterministic partial sweep through the handler
	// core — unit 0 streamed and completed, unit 1 streamed only twice —
	// then cancel mid-round, exactly like a killed coordinator.
	c1 := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 9, LeaseWait: 5 * time.Millisecond})
	ctx1, cancel1 := context.WithCancel(context.Background())
	out1 := startCampaign(c1, campaign.Options{Context: ctx1, Journal: l})
	s := hello(t, c1, "interrupted")
	held := leaseAll(t, c1, []string{s}, 2)
	streamUnit(t, c1, s, held[0].unit)
	partial, err := executeUnit(c1.Job(), held[1].unit)
	if err != nil {
		t.Fatal(err)
	}
	streamCells(t, c1, s, held[1].unit.ID, partial.Verdicts[:2]...)
	cancel1()
	if o := <-out1; o.err == nil {
		t.Fatal("canceled run reported success")
	}
	if c1.Epoch() != 1 {
		t.Fatalf("first coordinator epoch = %d, want 1", c1.Epoch())
	}
	journaled := held[0].unit.Hi - held[0].unit.Lo + 2
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Phases 2 and 3: real spawned worker processes finish the sweep
	// from the journal. The second resume finds strictly more cells
	// banked (everything phase 2 streamed).
	minResumed := journaled
	for phase, workers := range []int{2, 4} {
		l := openJournal(t, dir, "sweep.journal")
		c := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 9, LeaseWait: 5 * time.Millisecond})
		pool := spawnSelf(t, c, workers)
		vs, stats, err := c.RunCampaign(campaign.Options{Journal: l})
		c.Close()
		pool.Wait()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := CanonVerdicts(vs); got != want {
			t.Errorf("workers=%d: resumed sweep differs from serial baseline:\ngot:\n%swant:\n%s", workers, got, want)
		}
		if stats.Resumed < minResumed {
			t.Errorf("workers=%d: resumed %d cells, want >= %d", workers, stats.Resumed, minResumed)
		}
		if got := c.Stats().Cells; got != 36-stats.Resumed {
			t.Errorf("workers=%d: streamed %d cells, want %d (36 minus resumed)", workers, got, 36-stats.Resumed)
		}
		if wantEpoch := phase + 2; c.Epoch() != wantEpoch {
			t.Errorf("workers=%d: epoch = %d, want %d", workers, c.Epoch(), wantEpoch)
		}
		minResumed = 36 // after one full resume the journal holds the whole sweep
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Phase 4: the journal alone is the sweep — no workers joined.
	l4 := openJournal(t, dir, "sweep.journal")
	defer l4.Close()
	c4 := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 9, LeaseWait: 5 * time.Millisecond})
	vs, stats, err := c4.RunCampaign(campaign.Options{Journal: l4})
	if err != nil {
		t.Fatal(err)
	}
	if got := CanonVerdicts(vs); got != want {
		t.Errorf("journal-only sweep differs from serial baseline")
	}
	if stats.Resumed != 36 || c4.Stats().WorkersSeen != 0 {
		t.Errorf("journal-only run: Resumed=%d WorkersSeen=%d, want 36 and 0", stats.Resumed, c4.Stats().WorkersSeen)
	}
	if c4.Epoch() != 4 {
		t.Errorf("fourth adoption epoch = %d, want 4", c4.Epoch())
	}

	// One journal format, one writer: the log those four fleet sweeps
	// built holds exactly the verdict records an in-process sweep writes.
	lp := openJournal(t, dir, "pool.journal")
	defer lp.Close()
	if _, _, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{Journal: lp}); err != nil {
		t.Fatal(err)
	}
	cases, err := campaign.Generate(sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	var recs [2]map[int]campaign.JournalVerdict
	for k, l := range []*journal.Log{l4, lp} {
		if recs[k], err = campaign.PrepareJournal(l, cases); err != nil {
			t.Fatal(err)
		}
		for i, jv := range recs[k] {
			jv.ElapsedUS = 0 // wall-clock
			recs[k][i] = jv
		}
	}
	if len(recs[1]) != 36 || !reflect.DeepEqual(recs[0], recs[1]) {
		t.Errorf("fleet-written journal decodes to\n%+v\nin-process journal to\n%+v", recs[0], recs[1])
	}
}

// TestJournalWriteFailureAbortsRound proves the coordinator refuses to
// keep merging work it can no longer journal: when the write-ahead log
// dies mid-round, the round aborts with the journal fault — completed
// cells are never silently unjournaled.
func TestJournalWriteFailureAbortsRound(t *testing.T) {
	l := openJournal(t, t.TempDir(), "doomed.journal")
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 2, LeaseWait: 5 * time.Millisecond})
	out := startCampaign(c, campaign.Options{Journal: l})
	s := hello(t, c, "writer")
	held := leaseAll(t, c, []string{s}, 1)
	full, err := executeUnit(c.Job(), held[0].unit)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	streamCells(t, c, s, held[0].unit.ID, full.Verdicts[0]) // acked: the round, not the frame, fails
	select {
	case o := <-out:
		if o.err == nil || !strings.Contains(o.err.Error(), "journal") {
			t.Fatalf("round survived a dead journal: err = %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("round never aborted after journal failure")
	}
}

// TestWorkerReconnectReAdoption restarts the coordinator underneath a
// live worker: the HTTP server dies mid-sweep, a new coordinator
// adopts the same journal (bumping the epoch) and rebinds the same
// address, and the RunWorkerReconnect worker — after backing off — re-
// adopts the new coordinator, finishes the sweep, and drains cleanly.
func TestWorkerReconnectReAdoption(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	dir := t.TempDir()
	l1 := openJournal(t, dir, "sweep.journal")
	c1 := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 12, LeaseWait: 20 * time.Millisecond})
	srv1, err := c1.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv1.Addr
	ctx1, cancel1 := context.WithCancel(context.Background())
	out1 := startCampaign(c1, campaign.Options{Context: ctx1, Journal: l1})

	var logMu sync.Mutex
	var logBuf strings.Builder
	rcLog := func(format string, args ...any) {
		logMu.Lock()
		fmt.Fprintf(&logBuf, format+"\n", args...)
		logMu.Unlock()
		t.Logf(format, args...)
	}
	b0 := ReconnectBackoffs()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorkerReconnect(context.Background(),
			func() (Conn, error) { return DialHTTP("http://" + addr), nil },
			"phoenix",
			Reconnect{BaseDelay: 20 * time.Millisecond, MaxDelay: 250 * time.Millisecond, MaxAttempts: 100, Log: rcLog})
	}()

	// Let the worker bank some cells, then kill the coordinator's server
	// out from under it.
	waitStats(t, c1, "first streamed cells", func(s Stats) bool { return s.Cells >= 2 })
	srv1.Close()
	cancel1()
	<-out1 // canceled (or complete, if the worker outran the kill) — the journal decides
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}

	// Hold the new coordinator back until the worker has actually backed
	// off at least once — the restart it must survive.
	deadline := time.Now().Add(30 * time.Second)
	for ReconnectBackoffs() == b0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never backed off after coordinator death")
		}
		time.Sleep(5 * time.Millisecond)
	}

	l2 := openJournal(t, dir, "sweep.journal")
	defer l2.Close()
	c2 := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 12, LeaseWait: 20 * time.Millisecond})
	var srv2 *Server
	for i := 0; ; i++ {
		srv2, err = c2.Serve(addr)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	defer srv2.Close()
	out2 := startCampaign(c2, campaign.Options{Journal: l2})
	got := awaitCampaign(t, out2)
	c2.Close() // drain: the reconnected worker exits cleanly
	select {
	case werr := <-workerDone:
		if werr != nil {
			t.Errorf("reconnecting worker: %v", werr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reconnecting worker never drained")
	}
	if CanonVerdicts(got.vs) != want {
		t.Errorf("post-restart sweep differs from serial baseline")
	}
	if got.stats.Resumed < 2 {
		t.Errorf("Resumed = %d, want >= 2 (the cells banked before the restart)", got.stats.Resumed)
	}
	if c2.Epoch() != 2 {
		t.Errorf("restarted coordinator epoch = %d, want 2", c2.Epoch())
	}
	if ReconnectBackoffs() == b0 {
		t.Error("worker reconnected without a single backoff")
	}
	logMu.Lock()
	adopted := strings.Contains(logBuf.String(), "re-adopted")
	logMu.Unlock()
	if !adopted {
		t.Error("worker never observed the epoch bump (no re-adoption log line)")
	}
}

// TestMetricsExposeCrashSafetyCounters scrapes /metrics on a journaled
// coordinator after a sweep: the write-ahead-log counters and the
// reconnect counter are present, and the journal ones are live.
func TestMetricsExposeCrashSafetyCounters(t *testing.T) {
	l := openJournal(t, t.TempDir(), "sweep.journal")
	defer l.Close()
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 3, LeaseWait: 20 * time.Millisecond})
	srv, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	out := startCampaign(c, campaign.Options{Journal: l})
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(DialHTTP("http://"+srv.Addr), "scraped")
	}()
	awaitCampaign(t, out)
	c.Close()
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"journal_records_written", "journal_bytes", "resume_cells_skipped", "worker_reconnect_backoffs", "fleet_cells"} {
		if _, ok := m[key]; !ok {
			t.Errorf("/metrics is missing %q", key)
		}
	}
	// This sweep journaled 36 verdicts plus metadata; the counters are
	// process-cumulative, so lower bounds are what is stable.
	if m["journal_records_written"] < 36 {
		t.Errorf("journal_records_written = %d, want >= 36", m["journal_records_written"])
	}
	if m["journal_bytes"] <= 0 {
		t.Errorf("journal_bytes = %d, want > 0", m["journal_bytes"])
	}
	if m["fleet_cells"] != 36 {
		t.Errorf("fleet_cells = %d, want 36", m["fleet_cells"])
	}
}
