package exp

import (
	"fmt"
	"testing"
	"time"
)

// TestRaftRigElectsAtScale boots a 100-node world (scaled down under
// -race), elects a single leader, and commits an entry on a quorum.
func TestRaftRigElectsAtScale(t *testing.T) {
	n := 100
	if raceEnabled || testing.Short() {
		n = 25
	}
	r, err := NewRaftRig(n)
	if err != nil {
		t.Fatal(err)
	}
	r.StartAll()
	r.W.RunFor(20 * time.Second)
	ls := r.Leaders()
	if len(ls) != 1 {
		t.Fatalf("leaders after 20s: %v", ls)
	}
	leader := r.Ms[ls[0]].Raft()
	if _, ok := leader.Propose("hello"); !ok {
		t.Fatal("leader rejected proposal")
	}
	r.W.RunFor(5 * time.Second)
	applied := 0
	for _, name := range r.Names {
		if r.Ms[name].Raft().Applied() == 1 {
			applied++
		}
	}
	if applied < n/2+1 {
		t.Fatalf("entry applied on %d/%d nodes, want quorum", applied, n)
	}
}

// TestRaftWorldForkReplaysIdentically snapshots a busy raft world via the
// world registry, runs a suffix, rewinds, and re-runs: the shared trace
// must be byte-identical — the contract O(delta) fuzzing depends on.
func TestRaftWorldForkReplaysIdentically(t *testing.T) {
	r, err := NewRaftRig(20)
	if err != nil {
		t.Fatal(err)
	}
	r.StartAll()
	r.W.RunFor(10 * time.Second)
	if ls := r.Leaders(); len(ls) == 1 {
		r.Ms[ls[0]].Raft().Propose("fork-me")
	}
	r.W.RunFor(time.Second)

	snap := r.W.Snapshots().Capture()
	run := func() string {
		r.W.Partition([]string{r.Names[0], r.Names[1]}, r.Names[2:])
		r.W.RunFor(15 * time.Second)
		r.W.Heal()
		r.W.RunFor(15 * time.Second)
		out := ""
		for _, e := range r.Log.Entries() {
			out += e.String() + "\n"
		}
		for _, name := range r.Names {
			n := r.Ms[name].Raft()
			out += fmt.Sprintf("%s %s term=%d commit=%d applied=%d last=%d\n",
				name, n.State(), n.Term(), n.Commit(), n.Applied(), n.LastIndex())
		}
		return out
	}
	first := run()
	snap.Restore()
	second := run()
	if first != second {
		t.Fatalf("fork replay diverged (lens %d vs %d)", len(first), len(second))
	}
}
