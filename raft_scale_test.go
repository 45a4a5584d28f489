package pfi

import (
	"fmt"
	"strings"
	"testing"

	"pfi/internal/conformance"
)

// raftChurnSource renders the scale battery's churn scenario for an n-node
// cluster: elect, commit, clock-stop a tenth of the cluster, crash-restart
// another tenth, keep committing, and pin both safety oracles. n must be
// at least 20 so the churned tenths are non-empty and disjoint.
func raftChurnSource(n int) string {
	tenth := n / 10
	var b strings.Builder
	fmt.Fprintf(&b, "world raft %d\n", n)
	b.WriteString("raft_start\nrun 30s\nraft_expect_leader\n")
	b.WriteString("set i1 [raft_propose steady]\nassert {$i1 == 1} \"fault-free proposal accepted\"\n")
	b.WriteString("run 5s\nraft_expect_committed 1 data steady\n")
	fmt.Fprintf(&b, "raft_suspend r1..r%d\nrun 10s\nraft_resume r1..r%d\n", tenth, tenth)
	fmt.Fprintf(&b, "raft_restart r%d..r%d\nrun 20s\n", tenth+1, 2*tenth)
	b.WriteString("raft_expect_leader\n")
	b.WriteString("set i2 [raft_propose churned]\nassert {$i2 == 2} \"cluster accepts work after churn\"\n")
	b.WriteString("run 15s\nraft_expect_committed 2 data churned\n")
	b.WriteString("assert {[raft_election_conflicts] == 0} \"election safety held\"\n")
	b.WriteString("assert {[raft_apply_conflicts] == 0} \"commit safety held\"\n")
	return b.String()
}

// raftSplitHealSource renders the battery's partition scenario: a minority/
// majority split held for thirty seconds while the majority keeps
// committing, then a heal and full convergence.
func raftSplitHealSource(n int) string {
	minority := (n - 1) / 2 // strictly below quorum
	var b strings.Builder
	fmt.Fprintf(&b, "world raft %d\n", n)
	b.WriteString("raft_start\nrun 30s\nraft_expect_leader\n")
	b.WriteString("set i1 [raft_propose before-split]\nassert {$i1 == 1} \"pre-partition proposal accepted\"\n")
	b.WriteString("run 5s\nraft_expect_committed 1 data before-split\n")
	fmt.Fprintf(&b, "partition {r1..r%d} {r%d..r%d}\nrun 30s\n", minority, minority+1, n)
	fmt.Fprintf(&b, "set lmaj [raft_expect_leader among {r%d..r%d}]\n", minority+1, n)
	b.WriteString("assert {$lmaj ne \"\"} \"majority side has a leader\"\n")
	b.WriteString("set i2 [raft_propose during-split $lmaj]\nassert {$i2 == 2} \"majority commits during the partition\"\n")
	fmt.Fprintf(&b, "run 10s\nraft_expect_committed 2 data during-split min %d\n", n/2+1)
	b.WriteString("heal\nrun 30s\nraft_expect_leader\nrun 10s\n")
	fmt.Fprintf(&b, "raft_expect_committed 2 data during-split min %d\n", n)
	b.WriteString("assert {[raft_election_conflicts] == 0} \"election safety held\"\n")
	b.WriteString("assert {[raft_apply_conflicts] == 0} \"commit safety held\"\n")
	return b.String()
}

// renderRaftResults flattens a RunAll result slice into one comparable
// string: scenario identity, every verdict, and the full event trace.
func renderRaftResults(t *testing.T, rs []*conformance.Result) string {
	t.Helper()
	var b strings.Builder
	for _, r := range rs {
		if r.Err != nil {
			t.Fatalf("scenario errored: %v", r.Err)
		}
		if failed := r.Failed(); len(failed) > 0 {
			t.Fatalf("scenario failed its assertions: %v", failed)
		}
		fmt.Fprintf(&b, "== world=%s outcome=%v elapsed=%v\n", r.World, r.Outcome, r.Elapsed)
		for _, v := range r.Verdicts {
			b.WriteString(v.String())
			b.WriteByte('\n')
		}
		for _, e := range r.Trace {
			b.WriteString(e.Canonical())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestRaftReplayDeterminism is the consensus scale battery: churn and
// split/heal scenarios at 100 and 1000 nodes (scaled down under -race and
// -short), replayed through the conformance worker pool at 1, 4, and 8
// workers. Every replay must be byte-identical — verdicts, event traces,
// and final virtual clocks — or the simulation has a hidden source of
// nondeterminism that would poison fuzzing reproducibility at scale.
func TestRaftReplayDeterminism(t *testing.T) {
	small, large := 100, 1000
	if raceEnabled || testing.Short() {
		small, large = 40, 100
	}
	scs := []*conformance.Scenario{
		conformance.New(fmt.Sprintf("raft-churn-%d", small), raftChurnSource(small)),
		conformance.New(fmt.Sprintf("raft-split-%d", small), raftSplitHealSource(small)),
		conformance.New(fmt.Sprintf("raft-churn-%d", large), raftChurnSource(large)),
	}
	var ref string
	for _, workers := range []int{1, 4, 8} {
		got := renderRaftResults(t, conformance.RunAll(scs, conformance.Options{Workers: workers}))
		if ref == "" {
			ref = got
			continue
		}
		if got != ref {
			t.Fatalf("replay diverged at %d workers (lens %d vs %d)", workers, len(got), len(ref))
		}
	}
}
