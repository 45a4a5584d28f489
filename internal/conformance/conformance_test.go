package conformance

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pfi/internal/tcp"
	"pfi/internal/trace"
)

var update = flag.Bool("update", false, "re-bless the golden traces")

const (
	scenarioDir = "testdata"
	goldenDir   = "testdata/golden"
)

func loadAll(t *testing.T) []*Scenario {
	t.Helper()
	scs, err := LoadDir(scenarioDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(scs) < 10 {
		t.Fatalf("expected the 5 TCP + 2 GMP + 3 raft scenarios, found %d", len(scs))
	}
	return scs
}

// requireOK fails the test with every broken verdict spelled out.
func requireOK(t *testing.T, r *Result) {
	t.Helper()
	if r.Err != nil {
		t.Fatalf("%s: %v", r.Scenario, r.Err)
	}
	for _, v := range r.Failed() {
		t.Errorf("%s: %s", r.Scenario, v)
	}
}

// checkGolden compares (or, with -update, re-blesses) a result's trace.
func checkGolden(t *testing.T, r *Result) {
	t.Helper()
	checkGoldenIn(t, goldenDir, r)
}

func checkGoldenIn(t *testing.T, dir string, r *Result) {
	t.Helper()
	if *update {
		if err := UpdateGolden(dir, r); err != nil {
			t.Fatalf("%s: %v", r.Scenario, err)
		}
		return
	}
	diffs, err := CheckGolden(dir, r)
	if err != nil {
		t.Fatalf("%s: %v", r.Scenario, err)
	}
	for _, d := range diffs {
		t.Errorf("%s: golden: %s", r.Scenario, d)
	}
}

// TestConformanceScenarios replays every scenario under the default profile
// and pins each trace to its golden.
func TestConformanceScenarios(t *testing.T) {
	for _, sc := range loadAll(t) {
		t.Run(sc.Name, func(t *testing.T) {
			r := Run(sc, Options{})
			requireOK(t, r)
			checkGolden(t, r)
		})
	}
}

// TestConformanceFuzzerFound replays the repro scenarios the pfifuzz
// explorer discovered and minimized (testdata/found). Each one pins a
// deficient behavior — silently accepted corruption, lost-but-acked data —
// as a permanent regression: the assertions and goldens hold today, and
// any implementation change that moves the behavior (including fixing it)
// must revisit the scenario deliberately.
func TestConformanceFuzzerFound(t *testing.T) {
	const foundDir = "testdata/found"
	if _, err := os.Stat(foundDir); os.IsNotExist(err) {
		t.Skip("no fuzzer-found scenarios committed yet")
	}
	scs, err := LoadDir(foundDir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	for _, sc := range scs {
		t.Run(sc.Name, func(t *testing.T) {
			r := Run(sc, Options{})
			requireOK(t, r)
			checkGoldenIn(t, filepath.Join(foundDir, "golden"), r)
		})
	}
}

// TestConformanceAllProfiles replays the TCP scenarios under the other three
// vendor profiles — the per-vendor goldens catch drift in any profile's
// behaviour, not just the default's.
func TestConformanceAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("default-profile coverage only in -short mode")
	}
	scs := Filter(loadAll(t), func(name string) bool {
		return strings.HasPrefix(name, "tcp_")
	})
	for _, prof := range tcp.Profiles() {
		if prof.Name == tcp.SunOS413().Name {
			continue // covered by TestConformanceScenarios
		}
		t.Run(profileSlug(prof.Name), func(t *testing.T) {
			for _, r := range RunAll(scs, Options{Profile: prof, Workers: 4}) {
				requireOK(t, r)
				checkGolden(t, r)
			}
		})
	}
}

// TestConformanceParallelMatchesSerial is the determinism gate for the
// worker pool: fanning scenarios across eight workers must yield verdicts
// and traces identical to the serial run.
func TestConformanceParallelMatchesSerial(t *testing.T) {
	scs := loadAll(t)
	serial := RunAll(scs, Options{Workers: 1})
	parallel := RunAll(scs, Options{Workers: 8})
	if len(serial) != len(parallel) {
		t.Fatalf("result count: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		s, p := serial[i], parallel[i]
		if s.Scenario != p.Scenario {
			t.Fatalf("order diverged at %d: %q vs %q", i, s.Scenario, p.Scenario)
		}
		if !reflect.DeepEqual(s.Verdicts, p.Verdicts) {
			t.Errorf("%s: verdicts diverge between 1 and 8 workers:\nserial:   %v\nparallel: %v",
				s.Scenario, s.Verdicts, p.Verdicts)
		}
		if d := trace.Diff(s.Trace, p.Trace, 5); len(d) > 0 {
			t.Errorf("%s: trace diverges between 1 and 8 workers: %v", s.Scenario, d)
		}
	}
}

// TestPerturbedTimerFailsGolden is the suite's own smoke detector: a
// deliberately perturbed retransmission timer must change the pinned trace.
// If this test fails, the goldens have lost their discriminating power.
func TestPerturbedTimerFailsGolden(t *testing.T) {
	if *update {
		t.Skip("meaningless while re-blessing goldens")
	}
	sc, err := Load("testdata/tcp_retransmission" + Ext)
	if err != nil {
		t.Fatal(err)
	}
	prof := tcp.SunOS413()
	prof.RTOMin *= 2 // the bug a golden must catch
	r := Run(sc, Options{Profile: prof})
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	diffs, err := CheckGolden(goldenDir, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) == 0 {
		t.Fatal("perturbed RTOMin produced a trace identical to the golden; the golden is not sensitive to retransmission timing")
	}
}

// TestScenarioErrorsAreStructured: a failing expect is a verdict, not an
// execution error, and an unknown command is an error, not a verdict.
func TestScenarioErrorsAreStructured(t *testing.T) {
	r := Run(New("inline", `
		world tcp
		tcp_dial
		run 1s
		expect vendor retransmit DATA min 99
	`), Options{})
	if r.Err != nil {
		t.Fatalf("unexpected execution error: %v", r.Err)
	}
	if len(r.Verdicts) != 1 || r.Verdicts[0].OK {
		t.Fatalf("want one failing verdict, got %v", r.Verdicts)
	}
	if !strings.Contains(r.Verdicts[0].String(), "FAIL") {
		t.Errorf("verdict should render as FAIL: %s", r.Verdicts[0])
	}

	r = Run(New("inline", "definitely_not_a_command"), Options{})
	if r.Err == nil {
		t.Fatal("unknown command should be an execution error")
	}

	// filter_set is the one way to hand a filter a value; the removed
	// filter_freeze must fail loudly, not be silently accepted.
	r = Run(New("inline", "world tcp\nfilter_freeze vendor send mode strict"), Options{})
	if r.Err == nil || !strings.Contains(r.Err.Error(), `invalid command name "filter_freeze"`) {
		t.Fatalf("filter_freeze scenario: err %v, want invalid command name", r.Err)
	}
}

// TestCrossNodeSync: the PFI layers of one world share a sync bus, so a
// filter on one node waits for a signal a filter on another node raises —
// the paper's "synchronizing scripts executed by PFI layers running on
// different nodes".
func TestCrossNodeSync(t *testing.T) {
	r := Run(New("inline", `
		world tcp
		faultload xkernel receive {
			if {![info exists armed]} {
				set armed 1
				sync_wait go {log synced}
			}
		}
		faultload vendor send {
			if {[msg_type cur_msg] eq "DATA"} { sync_signal go }
		}
		tcp_dial
		expect_none xkernel script
		tcp_stream 1 0
		run 1s
		expect xkernel script note synced count 1
	`), Options{})
	requireOK(t, r)
}

// TestWorldGuards: workload commands demand the right world kind.
func TestWorldGuards(t *testing.T) {
	for _, src := range []string{
		"tcp_dial",                        // no world at all
		"world gmp a b c\ntcp_dial",       // tcp command in a gmp world
		"world tcp\ngmp_start",            // gmp command in a tcp world
		"world tcp\nworld tcp",            // double declaration
		"world tcp no-such-vendor",        // unknown profile
		"world gmp a b c bugs {made-up}",  // unknown bug
		"world tcp\ninject nobody send X", // unknown node
	} {
		if r := Run(New("inline", src), Options{}); r.Err == nil {
			t.Errorf("script %q should fail", src)
		}
	}
}

// TestPartitionGroups: a partition names existing nodes, each in one group.
// netsim would leave a node named twice in the last group naming it, so
// `partition {a b} {b c}` used to cut a|b c while reading as something else.
func TestPartitionGroups(t *testing.T) {
	for _, tc := range []struct{ cmd, wantErr string }{
		{"partition {a b} {c}", ""},
		{"partition {a a} {b c}", ""}, // twice in one group is still one group
		{"partition {a b} {nobody}", `unknown node "nobody"`},
		{"partition {a b} {b c}", "node b named in two groups"},
		{"partition {a} {b} {c a}", "node a named in two groups"},
	} {
		r := Run(New("inline", "world gmp a b c\n"+tc.cmd), Options{})
		switch {
		case tc.wantErr == "" && r.Err != nil:
			t.Errorf("%q: %v", tc.cmd, r.Err)
		case tc.wantErr != "" && (r.Err == nil || !strings.Contains(r.Err.Error(), tc.wantErr)):
			t.Errorf("%q: err %v, want %q", tc.cmd, r.Err, tc.wantErr)
		}
	}
	// raft_partition_heal parses its groups the same way, ranges included.
	r := Run(New("inline", "world raft 5\nraft_partition_heal 1s {r1..r3} {r3 r4}"), Options{})
	if r.Err == nil || !strings.Contains(r.Err.Error(), "node r3 named in two groups") {
		t.Errorf("raft_partition_heal: err %v, want r3 named in two groups", r.Err)
	}
}

// TestProfileSelection covers the forgiving profile matcher.
func TestProfileSelection(t *testing.T) {
	h := newHarness(tcp.SunOS413())
	for name, want := range map[string]string{
		"":            "SunOS 4.1.3",
		"default":     "SunOS 4.1.3",
		"solaris":     "Solaris 2.3",
		"AIX-3.2.3":   "AIX 3.2.3",
		"next":        "NeXT Mach",
		"SunOS 4.1.3": "SunOS 4.1.3",
	} {
		p, err := h.profileByName(name)
		if err != nil {
			t.Errorf("profileByName(%q): %v", name, err)
			continue
		}
		if p.Name != want {
			t.Errorf("profileByName(%q) = %q, want %q", name, p.Name, want)
		}
	}
	if _, err := h.profileByName("hp-ux"); err == nil {
		t.Error("unknown profile should error")
	}
}

func TestParseDur(t *testing.T) {
	for s, want := range map[string]string{
		"500ms": "500ms",
		"30s":   "30s",
		"2m":    "2m0s",
		"1500":  "1.5s", // bare milliseconds
		"0":     "0s",
	} {
		d, err := parseDur(s)
		if err != nil {
			t.Errorf("parseDur(%q): %v", s, err)
			continue
		}
		if d.String() != want {
			t.Errorf("parseDur(%q) = %v, want %v", s, d, want)
		}
	}
	if _, err := parseDur("soon"); err == nil {
		t.Error(`parseDur("soon") should error`)
	}
}

func TestGoldenPathNaming(t *testing.T) {
	tcpRes := &Result{Scenario: "tcp_retransmission", World: "SunOS 4.1.3"}
	if got := GoldenPath("g", tcpRes); got != "g/tcp_retransmission@sunos-4-1-3.trace" {
		t.Errorf("tcp golden path = %q", got)
	}
	gmpRes := &Result{Scenario: "gmp_partition_heal", World: "gmp"}
	if got := GoldenPath("g", gmpRes); got != "g/gmp_partition_heal.trace" {
		t.Errorf("gmp golden path = %q", got)
	}
}
