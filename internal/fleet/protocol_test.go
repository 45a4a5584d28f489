package fleet

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pfi/internal/campaign"
	"pfi/internal/explore"
	"pfi/internal/fault"
	"pfi/internal/harden"
	"pfi/internal/tcp"
)

var update = flag.Bool("update", false, "rewrite wire-protocol golden files")

// goldenFrames is one envelope of every message type with every payload
// field exercised — the wire protocol's compatibility surface. Changing
// any encoding (a renamed json tag, a new required field) changes the
// golden and forces a deliberate ProtocolVersion decision.
func goldenFrames() []struct {
	name string
	env  Envelope
} {
	spec := campaign.Spec{
		Protocol: "typed",
		Types:    []string{"DATA", "ACK"},
		Faults:   []fault.Kind{fault.Drop, fault.Delay},
		DelayMS:  1500,
	}
	sched := explore.Schedule{
		World:   explore.WorldTCP,
		Profile: tcp.SunOS413().Name,
		Warmup:  4,
		TailMS:  2000,
		Genes: []explore.Gene{{
			Kind:  explore.GeneFault,
			Node:  "vendor",
			Fault: fault.Drop,
			Type:  "*",
			AtMS:  1000,
			DurMS: 500,
			Prob:  1,
		}},
	}
	hw := WireHarden{StallSteps: 200000, TraceEntries: 50000, ScriptSteps: 100000, InjectedMsgs: 10000, Timers: 10000, Retry: true}
	return []struct {
		name string
		env  Envelope
	}{
		{"hello", Envelope{V: ProtocolVersion, Type: MsgHello, Worker: "pficampaign@host"}},
		{"job_campaign", Envelope{V: ProtocolVersion, Type: MsgJob, Session: "w1", Epoch: 3,
			Job: &Job{Kind: JobCampaign, Spec: &spec, Scenario: "gmp", Harden: hw}}},
		{"job_fuzz", Envelope{V: ProtocolVersion, Type: MsgJob, Session: "w1",
			Job: &Job{Kind: JobFuzz, Profile: "solaris", Harden: hw}}},
		{"lease", Envelope{V: ProtocolVersion, Type: MsgLease, Session: "w1"}},
		{"unit_campaign", Envelope{V: ProtocolVersion, Type: MsgUnit,
			Unit: &Unit{ID: 3, Round: 0, Lo: 8, Hi: 12}}},
		{"unit_fuzz", Envelope{V: ProtocolVersion, Type: MsgUnit,
			Unit: &Unit{ID: 7, Round: 2, Lo: 4, Hi: 5, Schedules: []explore.Schedule{sched}}}},
		{"wait", Envelope{V: ProtocolVersion, Type: MsgWait}},
		{"drain", Envelope{V: ProtocolVersion, Type: MsgDrain}},
		{"cell_campaign", Envelope{V: ProtocolVersion, Type: MsgCell, Session: "w1",
			Cell: &WireCell{Unit: 3, Verdict: &WireVerdict{
				Index: 8, OK: true, Note: "sent=40 delivered=40", Outcome: int(harden.Pass), ElapsedUS: 1200,
			}}}},
		{"cell_fuzz", Envelope{V: ProtocolVersion, Type: MsgCell, Session: "w2",
			Cell: &WireCell{Unit: 7, Outcome: &WireOutcome{
				Index:    4,
				Schedule: sched,
				Cov:      []explore.CovWord{{I: 0, W: 0x8000000000000001}, {I: 1023, W: 42}},
			}}}},
		{"result_empty", Envelope{V: ProtocolVersion, Type: MsgResult, Session: "w1",
			Result: &Result{Unit: 3}}},
		{"result_campaign", Envelope{V: ProtocolVersion, Type: MsgResult, Session: "w1",
			Result: &Result{Unit: 3, Verdicts: []WireVerdict{
				{Index: 8, OK: true, Note: "sent=40 delivered=40", Outcome: int(harden.Pass), ElapsedUS: 1200},
				{Index: 9, OK: false, Note: "views diverged", Outcome: int(harden.Fail)},
				{Index: 10, Err: "boom", Outcome: int(harden.ToolFault), Retries: 1},
				{Index: 11, Err: "stalled", Outcome: int(harden.Livelock)},
			}}}},
		{"result_fuzz", Envelope{V: ProtocolVersion, Type: MsgResult, Session: "w2",
			Result: &Result{Unit: 7, Outcomes: []WireOutcome{{
				Index:      4,
				Schedule:   sched,
				Cov:        []explore.CovWord{{I: 0, W: 0x8000000000000001}, {I: 1023, W: 42}},
				Violations: []explore.Violation{{Kind: explore.ViolExecError, Detail: "tool fault: boom"}},
			}}}}},
		{"ack", Envelope{V: ProtocolVersion, Type: MsgAck}},
		{"error", Envelope{V: ProtocolVersion, Type: MsgError, Error: "fleet: unknown session \"w9\""}},
	}
}

// TestWireGoldens locks every frame's byte-level encoding against
// testdata/fleet/frames.golden, and proves each decodes back to the
// original envelope. Run with -update to regenerate after a deliberate
// protocol change (which must also bump ProtocolVersion).
func TestWireGoldens(t *testing.T) {
	var b strings.Builder
	for _, f := range goldenFrames() {
		frame, err := Encode(f.env)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		fmt.Fprintf(&b, "%s: %s\n", f.name, frame)
		got, err := Decode(frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", f.name, err)
		}
		re, err := Encode(got)
		if err != nil {
			t.Fatalf("%s: re-encode: %v", f.name, err)
		}
		if !bytes.Equal(frame, re) {
			t.Errorf("%s: round-trip drift:\n first: %s\nsecond: %s", f.name, frame, re)
		}
	}
	path := filepath.Join("testdata", "fleet", "frames.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/fleet -run TestWireGoldens -update` after a deliberate protocol change)", err)
	}
	if b.String() != string(want) {
		t.Errorf("wire encoding drifted from %s — if intentional, bump ProtocolVersion and regenerate with -update.\ngot:\n%swant:\n%s",
			path, b.String(), want)
	}
}

// TestDecodeRejectsGarbage pins the frame-level rejections: malformed
// JSON, valid JSON of the wrong shape, and frames with no message type
// never reach the handler core.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"not json at all",
		`{"v":1,"type":`,
		`[1,2,3]`,
		`"just a string"`,
		`{"v":1}`,
		`{"session":"w1"}`,
	} {
		if _, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) accepted garbage", bad)
		}
	}
	// Unknown fields are tolerated (forward compatibility within a
	// version); the version stamp is what gates semantics.
	if _, err := Decode([]byte(`{"v":1,"type":"lease","future_field":true}`)); err != nil {
		t.Errorf("Decode rejected unknown field: %v", err)
	}
}

// TestVersionSkewRejected proves both sides refuse to talk across
// protocol versions: the coordinator rejects skewed frames with an
// explicit error naming both versions (counting them as bad frames, not
// merging them), and the worker rejects a skewed coordinator reply.
func TestVersionSkewRejected(t *testing.T) {
	c := NewCampaign(campaign.Spec{Protocol: "typed", Types: []string{"DATA"}}, "sweep", WireHarden{}, Config{})
	for _, v := range []int{0, 1, -1, ProtocolVersion + 10} {
		resp := c.HandleEnvelope(Envelope{V: v, Type: MsgHello, Worker: "skewed"})
		if resp.Type != MsgError {
			t.Fatalf("v=%d: got %q reply, want error", v, resp.Type)
		}
		if !strings.Contains(resp.Error, "protocol version mismatch") ||
			!strings.Contains(resp.Error, fmt.Sprintf("v%d", v)) {
			t.Errorf("v=%d: rejection %q does not name the versions", v, resp.Error)
		}
	}
	if got := c.Stats().BadFrames; got != 4 {
		t.Errorf("BadFrames = %d, want 4", got)
	}
	if got := c.Stats().WorkersSeen; got != 0 {
		t.Errorf("WorkersSeen = %d, want 0 — a skewed worker must not be admitted", got)
	}
	// Worker side: a reply stamped with a different version is refused.
	err := checkReply(Envelope{V: ProtocolVersion + 1, Type: MsgJob, Session: "w1", Job: &Job{Kind: JobCampaign}}, MsgJob)
	if err == nil || !strings.Contains(err.Error(), "protocol version mismatch") {
		t.Errorf("checkReply accepted skewed coordinator reply (err=%v)", err)
	}
}

// TestWireHardenRoundTrip pins what travels and what deliberately does
// not: deterministic watchdogs and budgets round-trip exactly; the
// wall-clock timeout and repro paths never reach a worker.
func TestWireHardenRoundTrip(t *testing.T) {
	cfg := harden.Config{
		StallSteps: 123,
		Budget:     harden.Budget{TraceEntries: 1, ScriptSteps: 2, InjectedMsgs: 3, Timers: 4},
		Retry:      true,
		Timeout:    999, // wall-clock: must not travel
		ReproDir:   "/tmp/quarantine",
	}
	got := HardenWire(cfg).Config()
	if got.StallSteps != 123 || got.Budget != cfg.Budget || !got.Retry {
		t.Errorf("deterministic knobs dropped: %+v", got)
	}
	if got.Timeout != 0 {
		t.Errorf("wall-clock Timeout traveled: %v", got.Timeout)
	}
	if got.ReproDir != "" {
		t.Errorf("ReproDir traveled: %q", got.ReproDir)
	}
}

// TestCoverageWireRoundTrip proves the sparse encoding preserves every
// bit through a JSON frame — including the sign-bit word that would
// corrupt through a float — and rejects out-of-range word indices from
// hostile results.
func TestCoverageWireRoundTrip(t *testing.T) {
	words := []explore.CovWord{{I: 0, W: 0x8000000000000001}, {I: 511, W: 0xdeadbeefcafef00d}, {I: 1023, W: 1}}
	cov, err := explore.CoverageFrom(words)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := json.Marshal(WireOutcome{Cov: cov.Sparse()})
	if err != nil {
		t.Fatal(err)
	}
	var got WireOutcome
	if err := json.Unmarshal(frame, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cov, words) {
		t.Fatalf("sparse encoding round-tripped to %v, want %v", got.Cov, words)
	}
	back, err := explore.CoverageFrom(got.Cov)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != cov.Fingerprint() {
		t.Fatalf("fingerprint %s round-tripped to %s", cov.Fingerprint(), back.Fingerprint())
	}
	for _, bad := range []explore.CovWord{{I: -1, W: 1}, {I: 1024, W: 1}, {I: 1 << 20, W: 1}} {
		if _, err := explore.CoverageFrom([]explore.CovWord{bad}); err == nil {
			t.Errorf("CoverageFrom accepted out-of-range word %+v", bad)
		}
	}
}
