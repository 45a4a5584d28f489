package fleet

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/explore"
	"pfi/internal/fault"
	"pfi/internal/harden"
)

// fastCfg keeps handler-core tests snappy: tiny long-poll window, no
// lease reaper (tests drive losses explicitly).
func fastCfg(shards int) Config {
	return Config{Shards: shards, LeaseWait: 5 * time.Millisecond}
}

// startCampaign runs RunCampaign on a goroutine and returns a channel
// carrying its merged output, so the test body can play the workers
// against the handler core.
type campaignOut struct {
	vs    []campaign.Verdict
	stats campaign.RunStats
	err   error
}

func startCampaign(c *Coordinator, opts campaign.Options) <-chan campaignOut {
	out := make(chan campaignOut, 1)
	go func() {
		vs, stats, err := c.RunCampaign(opts)
		out <- campaignOut{vs, stats, err}
	}()
	return out
}

// executeUnit runs one leased campaign unit in-process and collects its
// cells into a full Result, the v1-style payload the coordinator accepts.
func executeUnit(job Job, u Unit) (*Result, error) {
	res := &Result{Unit: u.ID}
	return res, job.ops().execute(job, u, func(cell WireCell) error {
		res.Verdicts = append(res.Verdicts, *cell.Verdict)
		return nil
	})
}

// CanonVerdicts renders a verdict stream canonically: one line per verdict
// with its status and its durable projection less the wall-clock fields.
// Two runs are "the same sweep" exactly when these are byte-identical.
func CanonVerdicts(vs []campaign.Verdict) string {
	var b strings.Builder
	for _, v := range vs {
		jv := campaign.JournalOf(0, v)
		jv.ElapsedUS, jv.Retries = 0, 0
		fmt.Fprintf(&b, "%s %+v\n", v.Status(), jv)
	}
	return b.String()
}

// hello admits a test worker through the handler core and returns its
// session ID.
func hello(t *testing.T, c *Coordinator, name string) string {
	t.Helper()
	resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgHello, Worker: name})
	if resp.Type != MsgJob || resp.Session == "" {
		t.Fatalf("hello: got %+v", resp)
	}
	return resp.Session
}

// lease is one unit held by a test worker session.
type lease struct {
	session string
	unit    Unit
}

// leaseAll drives lease requests round-robin across the sessions until n
// units are held, returning them keyed by holder.
func leaseAll(t *testing.T, c *Coordinator, sessions []string, n int) []lease {
	t.Helper()
	var held []lease
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; len(held) < n; i++ {
		if time.Now().After(deadline) {
			t.Fatalf("leased %d/%d units before timeout", len(held), n)
		}
		s := sessions[i%len(sessions)]
		resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgLease, Session: s})
		switch resp.Type {
		case MsgUnit:
			held = append(held, lease{s, *resp.Unit})
		case MsgWait:
			// round not dispatched yet; poll again
		default:
			t.Fatalf("lease: got %+v", resp)
		}
	}
	return held
}

// submit executes a unit in-process and returns it through the handler
// core, reporting the coordinator's reply type.
func submit(t *testing.T, c *Coordinator, session string, u Unit) Envelope {
	t.Helper()
	res, err := executeUnit(c.job, u)
	if err != nil {
		t.Fatalf("executeUnit(%d): %v", u.ID, err)
	}
	return c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgResult, Session: session, Result: res})
}

func awaitCampaign(t *testing.T, out <-chan campaignOut) campaignOut {
	t.Helper()
	select {
	case o := <-out:
		if o.err != nil {
			t.Fatalf("RunCampaign: %v", o.err)
		}
		return o
	case <-time.After(30 * time.Second):
		t.Fatal("RunCampaign never completed")
		return campaignOut{}
	}
}

// TestMergeOrderInvariance proves completion order cannot influence the
// merge: three workers lease all units, then return them in descending
// unit order (the exact reverse of dispatch), and the merged verdict
// stream is still byte-identical to the serial sweep. A duplicate
// submission of an already-merged unit is dropped as stale.
func TestMergeOrderInvariance(t *testing.T) {
	serial, _, err := campaign.Run(sweepSpec, sweepScenario)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(7))
	out := startCampaign(c, campaign.Options{})
	sessions := []string{hello(t, c, "a"), hello(t, c, "b"), hello(t, c, "c")}
	held := leaseAll(t, c, sessions, 7)
	// Complete in reverse dispatch order — the coordinator must not care.
	sort.Slice(held, func(i, j int) bool { return held[i].unit.ID > held[j].unit.ID })
	for _, h := range held {
		if resp := submit(t, c, h.session, h.unit); resp.Type != MsgAck {
			t.Fatalf("result for unit %d: got %+v", h.unit.ID, resp)
		}
	}
	got := awaitCampaign(t, out)
	if CanonVerdicts(got.vs) != CanonVerdicts(serial) {
		t.Errorf("reverse-order merge differs from serial sweep:\nfleet:\n%s\nserial:\n%s",
			CanonVerdicts(got.vs), CanonVerdicts(serial))
	}
	if got.stats.Cases != len(serial) {
		t.Errorf("stats.Cases = %d, want %d", got.stats.Cases, len(serial))
	}
	// Exactly-once: replaying a completed unit is dropped, not re-merged.
	last := held[len(held)-1]
	if resp := submit(t, c, last.session, last.unit); resp.Type != MsgAck {
		t.Fatalf("duplicate result: got %+v", resp)
	}
	if s := c.Stats(); s.Stale != 1 || s.UnitsDone != 7 || s.Reassigned != 0 {
		t.Errorf("stats after duplicate = %+v, want Stale=1 UnitsDone=7 Reassigned=0", s)
	}
}

// TestPoolShrinksMidRound kills one of two workers partway through a
// round: its leased unit is reassigned exactly once, the survivor drains
// everything, and the merged sweep equals the serial one.
func TestPoolShrinksMidRound(t *testing.T) {
	serial, _, err := campaign.Run(sweepSpec, sweepScenario)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(6))
	out := startCampaign(c, campaign.Options{})
	doomed, survivor := hello(t, c, "doomed"), hello(t, c, "survivor")
	held := leaseAll(t, c, []string{doomed}, 1)
	c.LoseSession(doomed, harden.ToolFault)
	// The lost session can no longer lease...
	if resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgLease, Session: doomed}); resp.Type != MsgError {
		t.Fatalf("lost session leased again: %+v", resp)
	}
	// ...and its late result for the reassigned unit is dropped as stale.
	if resp := submit(t, c, doomed, held[0].unit); resp.Type != MsgAck {
		t.Fatalf("late result: got %+v", resp)
	}
	if s := c.Stats(); s.Stale != 1 {
		t.Fatalf("stats after late result = %+v, want Stale=1", s)
	}
	for done := 0; done < 6; done++ {
		h := leaseAll(t, c, []string{survivor}, 1)
		if resp := submit(t, c, survivor, h[0].unit); resp.Type != MsgAck {
			t.Fatalf("survivor result: got %+v", resp)
		}
	}
	got := awaitCampaign(t, out)
	if CanonVerdicts(got.vs) != CanonVerdicts(serial) {
		t.Errorf("post-loss merge differs from serial sweep")
	}
	if s := c.Stats(); s.Reassigned != 1 || s.Contained != 0 || s.WorkersLost != 1 {
		t.Errorf("stats = %+v, want Reassigned=1 Contained=0 WorkersLost=1", s)
	}
}

// TestDoubleLossContained loses the same unit twice: the first loss
// reassigns it, the second records its cells as contained verdicts under
// the harden taxonomy instead of reassigning forever.
func TestDoubleLossContained(t *testing.T) {
	spec := campaign.Spec{Protocol: "typed", Types: []string{"DATA"}, Faults: []fault.Kind{fault.Drop}}
	cases, err := campaign.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(spec, "sweep", WireHarden{}, fastCfg(1))
	out := startCampaign(c, campaign.Options{})
	s1 := hello(t, c, "flappy1")
	leaseAll(t, c, []string{s1}, 1)
	c.LoseSession(s1, harden.ToolFault)
	s2 := hello(t, c, "flappy2")
	leaseAll(t, c, []string{s2}, 1)
	c.LoseSession(s2, harden.Timeout)
	got := awaitCampaign(t, out)
	if len(got.vs) != len(cases) {
		t.Fatalf("got %d verdicts, want %d — contained cells must still be merged", len(got.vs), len(cases))
	}
	for _, v := range got.vs {
		if v.Err == nil || !strings.Contains(v.Err.Error(), "reassignment exhausted") {
			t.Errorf("case %q: err = %v, want reassignment-exhausted", v.Case.Name, v.Err)
		}
		if v.Outcome != harden.Timeout {
			t.Errorf("case %q: outcome = %v, want Timeout (the second loss's kind)", v.Case.Name, v.Outcome)
		}
	}
	if s := c.Stats(); s.Reassigned != 1 || s.Contained != 1 || s.UnitsDone != 1 {
		t.Errorf("stats = %+v, want Reassigned=1 Contained=1 UnitsDone=1", s)
	}
}

// TestTruncatedResultReassigned feeds the coordinator result payloads
// wrong in each way the campaign check knows, through the one check path
// streamed cells take too: each is rejected, the unit lost once and
// re-executed, the final sweep clean. A frame is validated whole before
// anything merges: only the truncated one, all valid cells, lands any.
func TestTruncatedResultReassigned(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	for name, mangle := range map[string]func(u Unit, r *Result) (landed int){
		"truncated": func(u Unit, r *Result) int {
			r.Verdicts = r.Verdicts[:len(r.Verdicts)-1]
			return len(r.Verdicts)
		},
		"verdict index out of range": func(u Unit, r *Result) int {
			r.Verdicts[len(r.Verdicts)-1].Index = u.Hi
			return 0
		},
		"the other kind's payload": func(u Unit, r *Result) int {
			r.Outcomes = []WireOutcome{{Index: u.Lo}}
			return 0
		},
	} {
		c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(2))
		var landed atomic.Int32
		out := startCampaign(c, campaign.Options{OnVerdict: func(campaign.Verdict) { landed.Add(1) }})
		s1 := hello(t, c, "w")
		held := leaseAll(t, c, []string{s1}, 1)
		bad, err := executeUnit(c.job, held[0].unit)
		if err != nil {
			t.Fatal(err)
		}
		wantLanded := mangle(held[0].unit, bad)
		if resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgResult, Session: s1, Result: bad}); resp.Type != MsgError {
			t.Fatalf("%s: result accepted: %+v", name, resp)
		}
		if got := int(landed.Load()); got != wantLanded {
			t.Errorf("%s: %d cells merged from the rejected payload, want %d", name, got, wantLanded)
		}
		// The same worker completes the unit properly, and the other one.
		for done := 0; done < 2; done++ {
			h := leaseAll(t, c, []string{s1}, 1)
			if resp := submit(t, c, s1, h[0].unit); resp.Type != MsgAck {
				t.Fatalf("%s: result: got %+v", name, resp)
			}
		}
		if got := awaitCampaign(t, out); CanonVerdicts(got.vs) != want {
			t.Errorf("%s: merge after the rejected result differs from serial sweep", name)
		}
		if s := c.Stats(); s.BadFrames != 1 || s.Reassigned != 1 || s.Contained != 0 {
			t.Errorf("%s: stats = %+v, want BadFrames=1 Reassigned=1 Contained=0", name, s)
		}
	}
}

// TestGarbageFrames drives raw garbage through the byte-level entry
// point: every frame is rejected with an error envelope and counted, and
// none of it perturbs a subsequent clean run.
func TestGarbageFrames(t *testing.T) {
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(2))
	for _, garbage := range [][]byte{
		[]byte("}{ total garbage"),
		[]byte(fmt.Sprintf(`{"v":%d}`, ProtocolVersion)),
		[]byte(fmt.Sprintf(`{"v":%d,"type":"result","session":"w1"}`, ProtocolVersion)),           // result frame without a result
		[]byte(fmt.Sprintf(`{"v":%d,"type":"warp-core-breach","session":"w1"}`, ProtocolVersion)), // unknown type
	} {
		resp, err := Decode(c.Handle(garbage))
		if err != nil {
			t.Fatalf("handler reply undecodable: %v", err)
		}
		if resp.Type != MsgError {
			t.Errorf("garbage %q: got %q reply, want error", garbage, resp.Type)
		}
	}
	// "result without a result" needs a live session to get past the
	// session check and into the payload check.
	s := hello(t, c, "w")
	resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgResult, Session: s})
	if resp.Type != MsgError {
		t.Errorf("nil result accepted: %+v", resp)
	}
	if got := c.Stats().BadFrames; got != 4 {
		t.Errorf("BadFrames = %d, want 4", got)
	}
	if resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgResult, Session: "w999", Result: &Result{}}); resp.Type != MsgError {
		t.Errorf("unknown session accepted: %+v", resp)
	}
	// A fuzz outcome with a garbage coverage word is rejected by the same
	// path, and the valid outcome ahead of it in the frame is not merged.
	fc := NewFuzz("", WireHarden{}, fastCfg(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	landed := 0
	go fc.RunRound(ctx, fc.newRound(2, nil, nil, func(int, *WireCell) { landed++ }))
	fs := hello(t, fc, "w")
	bad := &Result{Unit: leaseAll(t, fc, []string{fs}, 1)[0].unit.ID,
		Outcomes: []WireOutcome{{Index: 0}, {Index: 1, Cov: []explore.CovWord{{I: -1, W: 1}}}}}
	if resp := fc.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgResult, Session: fs, Result: bad}); resp.Type != MsgError {
		t.Errorf("bad coverage word accepted: %+v", resp)
	}
	if st := fc.Stats(); landed != 0 || st.BadFrames != 1 || st.Reassigned != 1 {
		t.Errorf("bad coverage word: %d outcomes merged, stats %+v; want 0, BadFrames=1 Reassigned=1", landed, st)
	}
}

// TestEmptyMatrix dispatches a zero-cell round: it completes instantly
// with no workers at all.
func TestEmptyMatrix(t *testing.T) {
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(4))
	cells, err := c.RunRound(context.Background(), c.newRound(0, nil, nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 0 {
		t.Errorf("got %d cells, want 0", len(cells))
	}
	if s := c.Stats(); s.Rounds != 1 || s.Units != 0 {
		t.Errorf("stats = %+v, want Rounds=1 Units=0", s)
	}
}

// TestDrain proves Close ends the fleet: leases answer drain, and a
// drained worker's disconnect is not a loss.
func TestDrain(t *testing.T) {
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, fastCfg(2))
	s := hello(t, c, "w")
	c.Close()
	resp := c.HandleEnvelope(Envelope{V: ProtocolVersion, Type: MsgLease, Session: s})
	if resp.Type != MsgDrain {
		t.Fatalf("lease after Close: got %q, want drain", resp.Type)
	}
	c.LoseSession(s, harden.ToolFault)
	if got := c.Stats().WorkersLost; got != 0 {
		t.Errorf("WorkersLost = %d after draining disconnect, want 0", got)
	}
}
