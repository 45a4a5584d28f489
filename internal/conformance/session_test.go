package conformance

import (
	"reflect"
	"strings"
	"testing"

	"pfi/internal/harden"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// tcpPrefix/tcpSuffixes build a fuzzer-shaped scenario: world, faultload,
// workload in the prefix; timeline, probe, and checks in the suffixes.
func tcpPrefix(profile string) string {
	return "world tcp {" + profile + "}\n" +
		"faultload xkernel receive {\n" +
		"if {[msg_type cur_msg] eq \"DATA\" && [now] < 4000} { xDrop cur_msg }\n" +
		"}\n" +
		"tcp_dial\n" +
		"tcp_stream 4 250\n"
}

var tcpSuffixes = []string{
	"run 3000\ntcp_send 100\nrun 5000\n" +
		"log probe tcp state [tcp_state] unacked [tcp_unacked] sent [sent_len] recv [recv_len] match [recv_matches]\n" +
		"expect vendor retransmit * min 1\n" +
		"assert {[sent_len] > 0}\n",
	"run 1000\nunplug vendor\nrun 2000\nreplug vendor\nrun 8000\n" +
		"log probe tcp state [tcp_state] unacked [tcp_unacked] sent [sent_len] recv [recv_len] match [recv_matches]\n" +
		"expect * * * min 1\n",
	"run 12000\n" +
		"log probe tcp state [tcp_state] unacked [tcp_unacked] sent [sent_len] recv [recv_len] match [recv_matches]\n" +
		"assert {[recv_len] >= 0}\n",
}

const gmpPrefix = "world gmp compsun1 compsun2 compsun3\n" +
	"faultload compsun2 receive {\n" +
	"if {[msg_type cur_msg] eq \"HEARTBEAT\" && [now] >= 20000 && [now] < 50000} { xDrop cur_msg }\n" +
	"}\n" +
	"gmp_start\n"

var gmpSuffixes = []string{
	"run 20000\npartition {compsun1} {compsun2 compsun3}\nrun 40000\nheal\nrun 90000\n" +
		"log probe gmp compsun1 trans [gmp_in_transition compsun1] group [gmp_group compsun1]\n" +
		"expect * * * min 1\n",
	"run 15000\ngmp_suspend compsun3\nrun 30000\ngmp_resume compsun3\nrun 60000\n" +
		"log probe gmp compsun2 trans [gmp_in_transition compsun2] group [gmp_group compsun2]\n" +
		"expect * * * min 1\n",
}

// renderTrace flattens entries for byte-level comparison.
func renderTrace(es []trace.Entry) string {
	var b strings.Builder
	for _, e := range es {
		b.WriteString(e.Canonical())
		b.WriteByte('\n')
	}
	return b.String()
}

// diffResults asserts a forked result is bit-identical to a fresh replay.
func diffResults(t *testing.T, label string, fresh, forked *Result) {
	t.Helper()
	if fresh.Err != nil {
		t.Fatalf("%s: fresh run errored: %v", label, fresh.Err)
	}
	if forked.Outcome != fresh.Outcome {
		t.Errorf("%s: outcome %v (fork) vs %v (fresh)", label, forked.Outcome, fresh.Outcome)
	}
	if forked.Elapsed != fresh.Elapsed {
		t.Errorf("%s: elapsed %v (fork) vs %v (fresh)", label, forked.Elapsed, fresh.Elapsed)
	}
	if forked.World != fresh.World {
		t.Errorf("%s: world %q (fork) vs %q (fresh)", label, forked.World, fresh.World)
	}
	if !reflect.DeepEqual(forked.Verdicts, fresh.Verdicts) {
		t.Errorf("%s: verdicts diverge:\nfork:  %+v\nfresh: %+v", label, forked.Verdicts, fresh.Verdicts)
	}
	got, want := renderTrace(forked.Trace), renderTrace(fresh.Trace)
	if got != want {
		t.Errorf("%s: traces diverge (%d vs %d entries):\n--- fork\n%s--- fresh\n%s",
			label, len(forked.Trace), len(fresh.Trace), got, want)
	}
}

// TestSessionForkMatchesFreshRun is the snapshot differential: for every
// vendor profile, forking candidate suffixes from one captured prefix must
// produce byte-identical traces and verdicts to replaying each full
// scenario in a fresh world. Suffix 0 is re-run after the others to prove
// restores are idempotent, not merely sequential.
func TestSessionForkMatchesFreshRun(t *testing.T) {
	for _, prof := range append(tcp.Profiles(), tcp.XKernel()) {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			prefix := tcpPrefix(prof.Name)
			sess, err := NewSession(prefix, Options{})
			if err != nil {
				t.Fatal(err)
			}
			order := append(append([]string(nil), tcpSuffixes...), tcpSuffixes[0])
			for i, suffix := range order {
				fresh := Run(New("diff", prefix+suffix), Options{})
				forked, ok := sess.Run("diff", suffix)
				if !ok {
					t.Fatalf("suffix %d: session declined a clean candidate (fresh outcome %v, err %v)",
						i, fresh.Outcome, fresh.Err)
				}
				diffResults(t, prof.Name, fresh, forked)
			}
		})
	}
}

// TestSessionForkMatchesFreshRunGMP is the GMP-world differential.
func TestSessionForkMatchesFreshRunGMP(t *testing.T) {
	sess, err := NewSession(gmpPrefix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	order := append(append([]string(nil), gmpSuffixes...), gmpSuffixes[0])
	for i, suffix := range order {
		fresh := Run(New("diff", gmpPrefix+suffix), Options{})
		forked, ok := sess.Run("diff", suffix)
		if !ok {
			t.Fatalf("suffix %d: session declined a clean candidate (fresh outcome %v, err %v)",
				i, fresh.Outcome, fresh.Err)
		}
		diffResults(t, "gmp", fresh, forked)
	}
}

// TestSessionUnderBudgets proves the monitor counter restore: with tight
// simulated-time budgets in play, forked runs still match fresh replays —
// the prefix's consumed steps, timers, and stall streak carry over instead
// of resetting (which would let a fork pass where a fresh run trips).
func TestSessionUnderBudgets(t *testing.T) {
	cfg := harden.Config{
		StallSteps: 200_000,
		Budget:     harden.Budget{TraceEntries: 100_000, Timers: 1_000_000},
	}
	prefix := tcpPrefix(tcp.SunOS413().Name)
	sess, err := NewSession(prefix, Options{Harden: cfg})
	if err != nil {
		t.Fatal(err)
	}
	for i, suffix := range tcpSuffixes {
		fresh := Run(New("budget", prefix+suffix), Options{Harden: cfg})
		forked, ok := sess.Run("budget", suffix)
		if !ok {
			t.Fatalf("suffix %d: session declined under budgets (fresh outcome %v, err %v)",
				i, fresh.Outcome, fresh.Err)
		}
		diffResults(t, "budgets", fresh, forked)
	}
}

// TestSessionDeclinesDirtyCandidates: anything but a clean Pass comes back
// ok=false, and the session stays usable afterwards.
func TestSessionDeclinesDirtyCandidates(t *testing.T) {
	prefix := tcpPrefix(tcp.SunOS413().Name)
	sess, err := NewSession(prefix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.Run("bad", "definitely_not_a_command\n"); ok {
		t.Fatal("session trusted a scenario error")
	}
	suffix := tcpSuffixes[0]
	fresh := Run(New("after", prefix+suffix), Options{})
	forked, ok := sess.Run("after", suffix)
	if !ok {
		t.Fatal("session unusable after a declined candidate")
	}
	diffResults(t, "after-decline", fresh, forked)
}

// TestSessionPrefixMustBeClean: a prefix that errors cannot seed a session.
func TestSessionPrefixMustBeClean(t *testing.T) {
	if _, err := NewSession("world tcp\nnope\n", Options{}); err == nil {
		t.Fatal("expected an error for a broken prefix")
	}
	if _, err := NewSession("set x 1\n", Options{}); err == nil {
		t.Fatal("expected an error for a world-less prefix")
	}
}

// TestShellSnapshotRestore drives the pfish shell builtins: capture after
// the workload, mutate the world, rewind, and re-run — the two branches
// from the same mark must agree with each other.
func TestShellSnapshotRestore(t *testing.T) {
	sh := NewShell(Options{})
	in := sh.Interp()
	if _, err := in.Eval(tcpPrefix(tcp.SunOS413().Name)); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Eval("snapshot warm"); err != nil {
		t.Fatal(err)
	}
	if _, err := in.Eval("run 5000\ntcp_send 80\nrun 2000"); err != nil {
		t.Fatal(err)
	}
	first, err := in.Eval("sent_len")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.Eval("restore warm"); err != nil {
		t.Fatal(err)
	}
	rewound, err := in.Eval("sent_len")
	if err != nil {
		t.Fatal(err)
	}
	if rewound == first {
		t.Fatalf("restore did not rewind sent_len (still %s)", first)
	}
	if _, err := in.Eval("run 5000\ntcp_send 80\nrun 2000"); err != nil {
		t.Fatal(err)
	}
	second, err := in.Eval("sent_len")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Fatalf("replay from mark diverged: sent_len %s vs %s", second, first)
	}
	if names, err := in.Eval("snapshots"); err != nil || names != "warm" {
		t.Fatalf("snapshots = %q, %v", names, err)
	}
}
