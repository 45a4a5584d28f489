package gmp_test

import (
	"strings"
	"testing"
	"time"

	"pfi/internal/dist"
	"pfi/internal/gmp"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/stack"
)

// TestSoakRandomChurn subjects a five-daemon cluster to an hour of virtual
// time under a randomized (but seeded) schedule of crashes, restarts,
// partitions, heals and suspensions, checking two things throughout:
//
//  1. agreement — no generation ever commits two different multi-member
//     views anywhere in the cluster, and
//  2. convergence — once the faults stop, every running daemon ends in the
//     same all-member group.
func TestSoakRandomChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	w := netsim.NewWorld(2027)
	rng := dist.NewSource(2027)

	type commitRec struct {
		node    string
		gen     uint32
		members string
	}
	var commits []commitRec
	daemons := make(map[string]*gmp.Daemon, len(names))
	nodes := make(map[string]*netsim.Node, len(names))
	for _, name := range names {
		node := w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		node.SetStack(stack.New(node.Env(), net))
		gmd := gmp.MustNew(node.Env(), net, names)
		name := name
		gmd.OnCommit(func(g gmp.Group) {
			commits = append(commits, commitRec{node: name, gen: g.Gen, members: strings.Join(g.Members, ",")})
		})
		daemons[name] = gmd
		nodes[name] = node
	}
	if err := w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		daemons[n].Start()
	}
	w.RunFor(time.Minute)

	// One hour of churn: every 30-90 s of virtual time, one random fault
	// (or repair) lands somewhere.
	stopped := map[string]bool{}
	partitioned := false
	for elapsed := time.Duration(0); elapsed < time.Hour; {
		step := 30*time.Second + time.Duration(rng.Intn(60))*time.Second
		w.RunFor(step)
		elapsed += step
		victim := names[rng.Intn(len(names))]
		switch rng.Intn(6) {
		case 0, 4: // crash: the process stops and its machine drops off
			if !stopped[victim] {
				daemons[victim].Suspend()
				nodes[victim].Unplug()
				stopped[victim] = true
			}
		case 1: // restart
			for _, n := range names {
				if stopped[n] {
					nodes[n].Replug()
					daemons[n].Resume()
					stopped[n] = false
					break
				}
			}
		case 2: // partition or heal
			if partitioned {
				w.Heal()
				partitioned = false
			} else {
				w.Partition(names[:2], names[2:])
				partitioned = true
			}
		case 3: // suspension (30 s)
			if !stopped[victim] {
				daemons[victim].Suspend()
				w.RunFor(30 * time.Second)
				elapsed += 30 * time.Second
				daemons[victim].Resume()
			}
		case 5: // no-op interval (steady state)
		}
	}
	// Repair everything and let the cluster settle.
	if partitioned {
		w.Heal()
	}
	for _, n := range names {
		if stopped[n] {
			nodes[n].Replug()
			daemons[n].Resume()
			stopped[n] = false
		}
	}
	w.RunFor(5 * time.Minute)

	// (1) Agreement across the whole run. A view's identity is its
	// (leader, generation) pair: generation numbers are allocated by the
	// proposing leader, and two leaders of disjoint partitions can mint
	// the same number for unrelated views. The protocol's promise — all
	// members see the changes of THEIR group in the same order — means no
	// two daemons may ever commit different member sets for the same
	// (leader, generation).
	type viewKey struct {
		leader string
		gen    uint32
	}
	byView := map[viewKey]map[string]bool{}
	for _, c := range commits {
		if !strings.Contains(c.members, ",") {
			continue // singleton self-reverts are local, not agreed views
		}
		leader := strings.SplitN(c.members, ",", 2)[0] // members sort ascending
		k := viewKey{leader: leader, gen: c.gen}
		if byView[k] == nil {
			byView[k] = map[string]bool{}
		}
		byView[k][c.members] = true
	}
	for k, views := range byView {
		if len(views) > 1 {
			t.Errorf("agreement violated for leader %s generation %d: views %v",
				k.leader, k.gen, views)
		}
	}
	// (2) Final convergence.
	want := daemons["n1"].Group()
	if len(want.Members) != len(names) {
		t.Fatalf("cluster did not re-converge: n1 sees %v", want)
	}
	for _, n := range names[1:] {
		if daemons[n].Group().String() != want.String() {
			t.Errorf("%s final view %v != %v", n, daemons[n].Group(), want)
		}
	}
	t.Logf("soak: %d commits across 1 h of churn, final view %v", len(commits), want)
}
