package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/exp"
	"pfi/internal/harden"
	"pfi/internal/raft"
)

// The raft sweep is a three-axis matrix: cluster size × faultload × churn.
// The faultload axis is the campaign.Case matrix (message type × fault ×
// direction) applied to one victim node's PFI filters; the other two axes
// select the registered scenario. Sizes and churn models are a fixed grid
// so coordinator and spawned workers always share the same scenario
// registry — the scenario name is the wire contract.
var (
	raftSweepSizes = []int{3, 5, 9, 25, 50, 100, 250, 500, 1000}
	raftSweepChurn = []string{"none", "restart", "suspend", "partition"}
)

// raftScenarioName is the fleet registry key for one (size, churn) cell.
func raftScenarioName(size int, churn string) string {
	return fmt.Sprintf("raft-%d-%s", size, churn)
}

// raftScenarios builds every supported (size, churn) cell, keyed by its
// registry name. The whole grid is built unconditionally at startup so a
// spawned stdio worker can resolve whatever cell the coordinator sweeps.
func raftScenarios() map[string]campaign.Scenario {
	m := map[string]campaign.Scenario{}
	for _, n := range raftSweepSizes {
		for _, churn := range raftSweepChurn {
			m[raftScenarioName(n, churn)] = raftScenario(n, churn)
		}
	}
	return m
}

// raftTypesDefault is the raft wire vocabulary the faultload axis targets.
const raftTypesDefault = "REQUEST_VOTE,VOTE_RESP,APPEND_ENTRIES,APPEND_RESP"

// parseRaftSizes validates the -raft size list against the supported grid.
func parseRaftSizes(s string) ([]int, error) {
	supported := map[int]bool{}
	for _, n := range raftSweepSizes {
		supported[n] = true
	}
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || !supported[n] {
			return nil, fmt.Errorf("unsupported raft cluster size %q (supported: %v)", part, raftSweepSizes)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no raft cluster sizes selected")
	}
	return out, nil
}

// parseRaftChurn validates the churn model list.
func parseRaftChurn(s string) ([]string, error) {
	supported := map[string]bool{}
	for _, c := range raftSweepChurn {
		supported[c] = true
	}
	var out []string
	for _, part := range splitList(s) {
		if !supported[part] {
			return nil, fmt.Errorf("unknown churn model %q (known: %s)", part, strings.Join(raftSweepChurn, ", "))
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no churn models selected")
	}
	return out, nil
}

// raftScenario builds the scenario for one (size, churn) cell. Each case
// boots a fresh n-node raft world, installs the generated faultload on r1's
// PFI filters, drives churn plus a steady proposal workload, and judges:
// the safety oracles (election safety, commit safety) must hold under any
// single-node faultload, and the unfaulted quorum must still commit.
func raftScenario(size int, churn string) campaign.Scenario {
	return func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
		rig, err := exp.NewRaftRig(size)
		if err != nil {
			return false, "", err
		}
		victim := rig.Ms[rig.Names[0]]
		m.Attach(rig.W.Sched, rig.Log, func() int {
			return victim.PFI.SendFilter().Stats().Injected + victim.PFI.ReceiveFilter().Stats().Injected
		})
		if err := c.Apply(victim.PFI); err != nil {
			return false, "", err
		}
		rig.StartAll()
		rig.W.RunFor(20 * time.Second)

		// A proposal lands only when the cluster has exactly one
		// state-leader at the tick; several ticks spread over the run keep
		// the workload alive across churn-induced re-elections.
		proposed := 0
		propose := func(k int) {
			if ls := rig.Leaders(); len(ls) == 1 {
				if _, ok := rig.Ms[ls[0]].Raft().Propose(fmt.Sprintf("w%d", k)); ok {
					proposed++
				}
			}
		}
		propose(0)
		rig.W.RunFor(10 * time.Second)

		switch churn {
		case "restart":
			for i := 1; i <= 2; i++ {
				n := rig.Ms[rig.Names[i%size]].Raft()
				n.Stop()
				rig.W.RunFor(5 * time.Second)
				n.Start()
				rig.W.RunFor(5 * time.Second)
			}
		case "suspend":
			n := rig.Ms[rig.Names[1%size]].Raft()
			n.Suspend()
			rig.W.RunFor(15 * time.Second)
			n.Resume()
			rig.W.RunFor(5 * time.Second)
		case "partition":
			cut := size / 3
			if cut == 0 {
				cut = 1
			}
			rig.W.Partition(rig.Names[:cut], rig.Names[cut:])
			propose(1)
			rig.W.RunFor(15 * time.Second)
			rig.W.Heal()
			rig.W.RunFor(5 * time.Second)
		case "none":
			rig.W.RunFor(20 * time.Second)
		}

		propose(2)
		rig.W.RunFor(10 * time.Second)
		propose(3)
		rig.W.RunFor(15 * time.Second)

		// Safety: the same whole-history oracle explore and conformance
		// use — one winner per term, one identity per applied index.
		elections, applies := raft.SafetyConflicts(rig.Log.Entries())
		if len(elections) > 0 {
			return false, fmt.Sprintf("election safety: term %d elected %s", elections[0].Key, strings.Join(elections[0].Members, ", ")), nil
		}
		if len(applies) > 0 {
			return false, fmt.Sprintf("commit safety: index %d applied as %s", applies[0].Key, strings.Join(applies[0].Members, ", ")), nil
		}
		// Liveness: a single faulted node plus bounded churn must not stop
		// the quorum from committing.
		if proposed == 0 {
			return false, "no proposal tick found a unique leader", nil
		}
		quorum := size/2 + 1
		applied := 0
		for _, name := range rig.Names {
			if rig.Ms[name].Raft().Applied() >= 1 {
				applied++
			}
		}
		if applied < quorum {
			return false, fmt.Sprintf("entry applied on %d/%d nodes, want quorum %d", applied, size, quorum), nil
		}
		return true, fmt.Sprintf("proposed=%d applied=%d/%d", proposed, applied, size), nil
	}
}

// runRaft is the -raft entry point: it sweeps the full consensus matrix,
// one sweep of the faultload case matrix per (size, churn) cell — the
// scenario name carries the cell, so in fleet mode each cell is one fleet
// round over freshly spawned workers and the wire carries case indices.
func (a *app) runRaft(sizesStr, churnStr string) error {
	sizes, err := parseRaftSizes(sizesStr)
	if err != nil {
		return err
	}
	churns, err := parseRaftChurn(churnStr)
	if err != nil {
		return err
	}
	spec, cases, err := a.spec("raft")
	if err != nil {
		return err
	}
	if a.list {
		for _, size := range sizes {
			for _, churn := range churns {
				for _, c := range cases {
					fmt.Printf("%s/%s\n", raftScenarioName(size, churn), c.Name)
				}
			}
		}
		return nil
	}
	if a.dump {
		return fmt.Errorf("-dump-prog disassembles against the GMP stub; run it without -raft")
	}
	if a.lc.Serve != "" {
		return fmt.Errorf("-raft sweeps run one fleet round per matrix cell; use -spawn-workers (a -serve listener cannot rebind per cell)")
	}
	total := len(sizes) * len(churns) * len(cases)
	fmt.Printf("sweeping raft matrix: %d sizes x %d churn models x %d faultloads = %d cases\n",
		len(sizes), len(churns), len(cases), total)
	var all []campaign.Verdict
	for _, size := range sizes {
		for _, churn := range churns {
			cell := raftScenarioName(size, churn)
			verdicts, err := a.sweep(spec, cell, cell)
			if err != nil {
				return fmt.Errorf("%s: %w", cell, err)
			}
			all = append(all, verdicts...)
		}
	}
	if fails := campaign.Failures(all); len(fails) > 0 {
		return fmt.Errorf("%d of %d raft cases failed", len(fails), total)
	}
	fmt.Printf("raft matrix clean: %d cases, both safety oracles held everywhere\n", total)
	return nil
}
