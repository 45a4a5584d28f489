package explore

import (
	"path/filepath"
	"strings"
	"testing"

	"pfi/internal/conformance"
	"pfi/internal/harden"
	"pfi/internal/tcp"
)

// TestRaftSeedsBugFree: against a correct raft implementation, every raft
// seed schedule — the generic corpus and both crafted bug probes — must
// evaluate without a single violation. This is the no-false-positive half
// of the oracle contract: election-safety and commit-safety hold
// unconditionally, so any violation here is an oracle bug, not noise.
func TestRaftSeedsBugFree(t *testing.T) {
	seeds := append(RaftSeedCorpus(5, ""),
		RaftStaleLeaderProbe(""), RaftDoubleVoteProbe(""))
	for i, s := range seeds {
		out := EvaluateWith(s, tcp.SunOS413(), harden.Config{})
		if len(out.Violations) > 0 {
			t.Errorf("bug-free seed %d (%s): unexpected violations %v", i, s.Hash(), out.Violations)
		}
		if out.Cov.Count() == 0 {
			t.Errorf("bug-free seed %d (%s): empty coverage — world did not run", i, s.Hash())
		}
	}
}

// TestRaftSeededBugsCaught: the two implementation bugs raft.Bugs can seed
// must each be caught by their oracle at generation zero — the crafted
// probe schedules discriminate exactly, so no mutation budget is needed.
// Each finding is then shrunk and emitted, and the emitted repro must
// replay as a plain conformance test against its own golden, closing the
// loop from fuzzer finding to committable regression.
func TestRaftSeededBugsCaught(t *testing.T) {
	dir := t.TempDir()
	rep, err := Fuzz(Options{
		Seed:    1,
		Budget:  1, // generation zero only: both probes fire without mutation
		Workers: 4,
		OutDir:  dir,
		Seeds: []Schedule{
			RaftStaleLeaderProbe("ack-before-quorum"),
			RaftDoubleVoteProbe("skip-vote-persist"),
		},
	})
	if err != nil {
		t.Fatalf("Fuzz: %v", err)
	}

	byKind := map[string]*Finding{}
	for i := range rep.Findings {
		byKind[rep.Findings[i].Violation.Kind] = &rep.Findings[i]
	}
	for kind, wantBugs := range map[string]string{
		ViolCommitSafety:   "ack-before-quorum",
		ViolElectionSafety: "skip-vote-persist",
	} {
		f := byKind[kind]
		if f == nil {
			t.Errorf("seeded bug %q not caught; findings: %s", wantBugs, rep)
			continue
		}
		if f.Schedule.RaftBugs != wantBugs {
			t.Errorf("%s finding lost its bug seed: got %q, want %q", kind, f.Schedule.RaftBugs, wantBugs)
		}
		if !strings.Contains(f.Scenario, "bugs {"+wantBugs+"}") {
			t.Errorf("%s repro does not pin the seeded bug:\n%s", kind, f.Scenario)
		}
		if f.Path == "" || f.GoldenPath == "" {
			t.Fatalf("%s finding not emitted: path=%q golden=%q", kind, f.Path, f.GoldenPath)
		}
		sc, err := conformance.Load(f.Path)
		if err != nil {
			t.Fatal(err)
		}
		r := conformance.Run(sc, conformance.Options{})
		if r.Err != nil {
			t.Fatalf("%s repro errors: %v", kind, r.Err)
		}
		if failed := r.Failed(); len(failed) > 0 {
			t.Fatalf("%s repro fails its own assertions: %v", kind, failed)
		}
		diffs, err := conformance.CheckGolden(filepath.Join(dir, "golden"), r)
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) > 0 {
			t.Fatalf("%s repro diverges from its own golden: %v", kind, diffs)
		}
	}
}

// TestRaftFuzzSnapshotMatchesFresh: raft worlds through the snapshot/fork
// fast path must be indistinguishable from fresh replays — same findings,
// same fingerprint. This exercises the raft snapshot registry (per-node
// durable/volatile state, timers, rng marks) under the fuzzer's bucketing,
// not just the rig-level unit tests.
func TestRaftFuzzSnapshotMatchesFresh(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("snapshot-vs-fresh comparison doubles the world count; covered in the non-race run")
	}
	opts := func(snap bool) Options {
		return Options{
			Seed:     1,
			Budget:   1,
			Workers:  4,
			Snapshot: snap,
			Seeds: []Schedule{
				RaftStaleLeaderProbe("ack-before-quorum"),
				RaftDoubleVoteProbe("skip-vote-persist"),
			},
		}
	}
	off, err := Fuzz(opts(false))
	if err != nil {
		t.Fatalf("Fuzz fresh: %v", err)
	}
	on, err := Fuzz(opts(true))
	if err != nil {
		t.Fatalf("Fuzz snapshot: %v", err)
	}
	sameReport(t, "fresh", "snapshot", off, on)
}
