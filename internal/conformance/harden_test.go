package conformance

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"pfi/internal/harden"
)

// quarantineConfig is the fixed isolation policy the quarantine suite
// replays committed repros under: simulated-time knobs only, so the
// classification is identical on any machine.
var quarantineConfig = harden.Config{
	StallSteps: 10_000,
	Budget: harden.Budget{
		ScriptSteps:  200_000,
		TraceEntries: 100_000,
	},
}

// TestQuarantinedRepros replays every committed quarantine repro
// (testdata/quarantine) under the fixed isolation config and asserts the
// run still classifies as the kind recorded in its header. A quarantined
// scenario can never pass — the point is that it keeps failing the same
// way, and that replaying it cannot hang or kill the suite.
func TestQuarantinedRepros(t *testing.T) {
	const quarDir = "testdata/quarantine"
	if _, err := os.Stat(quarDir); os.IsNotExist(err) {
		t.Skip("no quarantined repros committed yet")
	}
	scs, err := LoadDir(quarDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			want, ok := harden.ReproKind(sc.Source)
			if !ok {
				t.Fatalf("%s carries no quarantine header", sc.Path)
			}
			r := Run(sc, Options{Harden: quarantineConfig})
			if r.Outcome != want {
				t.Fatalf("outcome = %v, header says %v (err: %v)", r.Outcome, want, r.Err)
			}
			if r.Isolation == nil {
				t.Fatal("contained run has no isolation record")
			}
		})
	}
}

// TestRunContainsRunawayScript: without a script-step budget the
// interpreter's built-in guard reports an ordinary scenario failure;
// with one, the same runaway loop — in either loop form — is a
// BudgetExceeded containment.
func TestRunContainsRunawayScript(t *testing.T) {
	for form, loop := range map[string]string{
		"while": "while {1} { set spin [expr {$spin + 1}] }",
		"for":   "for {set i 0} {1} {} {}", // empty body: only the loop's own step check can trip
	} {
		t.Run(form, func(t *testing.T) {
			src := "world tcp\nset spin 0\n" + loop + "\n"

			r := Run(New("runaway", src), Options{})
			if r.Outcome != harden.Fail || r.Err == nil {
				t.Fatalf("unbudgeted runaway: outcome %v err %v, want Fail with step-limit error", r.Outcome, r.Err)
			}
			if !strings.Contains(r.Err.Error(), "step limit") {
				t.Errorf("err %v does not name the step limit", r.Err)
			}

			r = Run(New("runaway", src), Options{Harden: harden.Config{Budget: harden.Budget{ScriptSteps: 10_000}}})
			if r.Outcome != harden.BudgetExceeded {
				t.Fatalf("budgeted runaway: outcome %v, want BudgetExceeded (err: %v)", r.Outcome, r.Err)
			}
			if r.Isolation == nil || r.Isolation.Counter != "script-steps" {
				t.Errorf("isolation record %+v, want script-steps counter", r.Isolation)
			}
		})
	}
}

// TestRunTraceBudgetKeepsPartialState: a busy world tripping the trace
// budget still surfaces the partial trace it produced up to the abort.
func TestRunTraceBudgetKeepsPartialState(t *testing.T) {
	src := "world gmp a b c\ngmp_start a\ngmp_start b\ngmp_start c\nrun 5m\n"
	r := Run(New("busy", src), Options{Harden: harden.Config{Budget: harden.Budget{TraceEntries: 20}}})
	if r.Outcome != harden.BudgetExceeded {
		t.Fatalf("outcome = %v, want BudgetExceeded (err: %v)", r.Outcome, r.Err)
	}
	if r.Isolation == nil || r.Isolation.Counter != "trace-entries" {
		t.Fatalf("isolation record %+v, want trace-entries counter", r.Isolation)
	}
	if len(r.Trace) == 0 {
		t.Error("partial trace was not preserved across the abort")
	}
	if r.World != "gmp" {
		t.Errorf("World = %q, want gmp (world was built before the abort)", r.World)
	}
}

// TestRunKeepsZeroConfigBehavior: the default Options still run a clean
// scenario to a Pass outcome with no isolation record — the isolation
// layer is invisible unless something goes wrong.
func TestRunKeepsZeroConfigBehavior(t *testing.T) {
	r := Run(New("clean", "world tcp\nrun 1s\n"), Options{})
	if r.Err != nil || r.Outcome != harden.Pass || r.Isolation != nil {
		t.Fatalf("clean run: outcome %v isolation %+v err %v", r.Outcome, r.Isolation, r.Err)
	}
}

// TestHostileCountsAreContained: scenario files are outside input, and a
// count in one must not be able to take the process down with a runtime
// out-of-memory throw, which no recover contains. tcp_stream's memory does
// not grow with its count, so three billion segments end where any long
// run does, at a budget; tcp_send allocates its argument and refuses a
// count above its limit with an ordinary script error.
func TestHostileCountsAreContained(t *testing.T) {
	r := Run(New("hostile-stream", "world tcp\ntcp_dial\n"+
		"faultload vendor send { msg_log cur_msg seen }\ntcp_stream 3000000000 1ms\n"),
		Options{Harden: harden.Config{Budget: harden.Budget{TraceEntries: 5_000}}})
	if r.Outcome != harden.BudgetExceeded {
		t.Fatalf("tcp_stream 3000000000: outcome %v, want BudgetExceeded (err: %v)", r.Outcome, r.Err)
	}
	if r.Isolation == nil || r.Isolation.Counter != "trace-entries" {
		t.Errorf("isolation record %+v, want trace-entries counter", r.Isolation)
	}

	r = Run(New("hostile-send", "world tcp\ntcp_dial\ntcp_send 300000000000\n"), Options{})
	if r.Outcome != harden.Fail || r.Err == nil {
		t.Fatalf("tcp_send 300000000000: outcome %v err %v, want Fail", r.Outcome, r.Err)
	}
	if want := strconv.Itoa(maxSendBytes); !strings.Contains(r.Err.Error(), "limit of "+want) {
		t.Errorf("err %v does not name the limit %s", r.Err, want)
	}
	if r := Run(New("largest-send", fmt.Sprintf("world tcp\ntcp_dial\ntcp_send %d\n", maxSendBytes)), Options{}); r.Outcome != harden.Pass {
		t.Errorf("tcp_send %d (the limit itself): outcome %v err %v, want Pass", maxSendBytes, r.Outcome, r.Err)
	}
}
