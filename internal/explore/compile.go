package explore

import (
	"fmt"
	"strings"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/fault"
)

// streamSpacingMS is the fixed inter-segment spacing of the TCP workload.
// Keeping it constant (rather than a genome field) makes workload timing a
// pure function of Warmup, so the compiler can schedule timeline events
// with static `run` deltas.
const streamSpacingMS = 250

// Raft workload shape: after the Warmup settle window, the driver submits
// raftProposals client commands raftProposalGapMS apart. Fixed rather than
// genome fields so the commit-safety oracle always has entries to judge —
// shrinking can never minimize the workload away.
const (
	raftProposals     = 6
	raftProposalGapMS = 10_000
)

// Compile renders the schedule as a bare conformance scenario: world,
// faultloads, workload, timeline, and a final probe block — no checks.
// The fuzzer evaluates these; CompileRepro adds the oracle assertions.
func Compile(s Schedule) (string, error) {
	return compile(s, nil)
}

// compile renders the scenario, appending the given assertion lines (from
// CompileRepro) after the probe block.
func compile(s Schedule, checks []string) (string, error) {
	if err := s.Validate(); err != nil {
		return "", err
	}
	var b strings.Builder

	// World declaration.
	switch s.World {
	case WorldTCP:
		if s.Profile != "" {
			fmt.Fprintf(&b, "world tcp {%s}\n", s.Profile)
		} else {
			b.WriteString("world tcp\n")
		}
	case WorldGMP:
		fmt.Fprintf(&b, "world gmp %s\n", strings.Join(gmpNodeNames(s.Nodes), " "))
	case WorldRaft:
		if s.RaftBugs != "" {
			fmt.Fprintf(&b, "world raft %d bugs {%s}\n", s.Nodes, s.RaftBugs)
		} else {
			fmt.Fprintf(&b, "world raft %d\n", s.Nodes)
		}
	}

	// Faultloads: every fault gene targeting the same (node, direction)
	// composes into one filter script, each snippet guarded by its window.
	type filterKey struct {
		node string
		dir  core.Direction
	}
	var order []filterKey
	scripts := map[filterKey][]string{}
	for i, g := range s.Genes {
		if g.Kind != GeneFault {
			continue
		}
		k := filterKey{g.Node, g.Dir}
		if _, seen := scripts[k]; !seen {
			order = append(order, k)
		}
		typ := g.Type
		if typ == "*" {
			typ = ""
		}
		guard := fault.Guard(time.Duration(g.AtMS)*time.Millisecond, time.Duration(g.DurMS)*time.Millisecond, typ, g.Prob)
		snippet, err := campaign.FaultSnippet(g.Fault, guard, campaign.SnippetParams{
			DelayMS:       g.Param,
			FirstN:        g.Param,
			CorruptOffset: g.Param,
			StateSuffix:   fmt.Sprintf("_g%d", i),
		})
		if err != nil {
			return "", err
		}
		scripts[k] = append(scripts[k], snippet)
	}
	for _, k := range order {
		dir := "send"
		if k.dir == core.Receive {
			dir = "receive"
		}
		fmt.Fprintf(&b, "faultload %s %s {\n%s}\n", k.node, dir, strings.Join(scripts[k], ""))
	}

	// Workload.
	switch s.World {
	case WorldTCP:
		b.WriteString("tcp_dial\n")
		fmt.Fprintf(&b, "tcp_stream %d %d\n", s.Warmup, streamSpacingMS)
	case WorldGMP:
		b.WriteString("gmp_start\n")
	case WorldRaft:
		b.WriteString("raft_start\n")
	}

	// Timeline: driver-level genes become run/command pairs in time order.
	elapsed := s.workloadEndMS()
	for _, ev := range s.timeline() {
		at := ev.atMS
		if at < elapsed {
			at = elapsed
		}
		if d := at - elapsed; d > 0 {
			fmt.Fprintf(&b, "run %d\n", d)
		}
		elapsed = at
		b.WriteString(ev.cmd)
		b.WriteByte('\n')
	}
	if end := s.EndMS(); end > elapsed {
		fmt.Fprintf(&b, "run %d\n", end-elapsed)
	}

	// Probe block: terminal state recorded into the shared trace so the
	// Go-side oracles (and human readers of the golden) can judge the run.
	// Raft's safety oracles judge the elected/apply event history directly,
	// so its probe is a one-line human-readable summary.
	switch s.World {
	case WorldTCP:
		b.WriteString("log probe tcp state [tcp_state] unacked [tcp_unacked] sent [sent_len] recv [recv_len] match [recv_matches]\n")
	case WorldGMP:
		for _, n := range gmpNodeNames(s.Nodes) {
			fmt.Fprintf(&b, "log probe gmp %s trans [gmp_in_transition %s] group [gmp_group %s]\n", n, n, n)
		}
	case WorldRaft:
		b.WriteString("log probe raft leaders [raft_leaders] election_conflicts [raft_election_conflicts] apply_conflicts [raft_apply_conflicts]\n")
	}
	for _, c := range checks {
		b.WriteString(c)
		b.WriteByte('\n')
	}
	return b.String(), nil
}

// event is one timeline entry.
type event struct {
	atMS int
	cmd  string
}

// timeline expands the driver-level genes (inject, partition, suspend,
// unplug, restart) into time-ordered commands, pairing each bounded window
// with its closing command. Raft worlds also get their fixed proposal
// workload here, interleaved with the faults in global time order.
func (s Schedule) timeline() []event {
	var evs []event
	if s.World == WorldRaft {
		// Even proposals chase the current unique leader; odd ones go to a
		// fixed node round-robin. The latter keep client traffic flowing
		// when leadership is ambiguous (a stale leader behind a partition
		// still gets proposals — exactly where commit-safety bugs live).
		for k := 0; k < raftProposals; k++ {
			cmd := fmt.Sprintf("raft_propose p%d", k)
			if k%2 == 1 {
				cmd += fmt.Sprintf(" r%d", k%s.Nodes+1)
			}
			evs = append(evs, event{s.Warmup*1000 + k*raftProposalGapMS, cmd})
		}
	}
	for _, g := range sortGenesByTime(s.Genes) {
		switch g.Kind {
		case GeneInject:
			dir := "send"
			if g.Dir == core.Receive {
				dir = "receive"
			}
			// Driver-side injection runs outside any filter pass, so the
			// forged message needs explicit network addressing to be
			// routable (and, for GMP, a credible sender).
			src, dst := g.Node, s.peerOf(g.Node)
			if g.Dir == core.Receive {
				src, dst = dst, src
			}
			fields := fmt.Sprintf("src %s dst %s", src, dst)
			if s.World == WorldGMP {
				fields += " sender " + src
			}
			evs = append(evs, event{g.AtMS, fmt.Sprintf("inject %s %s %s {%s}", g.Node, dir, g.Type, fields)})
		case GenePartition:
			names := s.nodes()
			evs = append(evs, event{g.AtMS, fmt.Sprintf("partition {%s} {%s}",
				strings.Join(names[:g.Split], " "), strings.Join(names[g.Split:], " "))})
			if g.DurMS > 0 {
				evs = append(evs, event{g.AtMS + g.DurMS, "heal"})
			}
		case GeneSuspend:
			suspend, resume := "gmp_suspend ", "gmp_resume "
			if s.World == WorldRaft {
				suspend, resume = "raft_suspend ", "raft_resume "
			}
			evs = append(evs, event{g.AtMS, suspend + g.Node})
			if g.DurMS > 0 {
				evs = append(evs, event{g.AtMS + g.DurMS, resume + g.Node})
			}
		case GeneRestart:
			evs = append(evs, event{g.AtMS, "raft_stop " + g.Node})
			if g.DurMS > 0 {
				evs = append(evs, event{g.AtMS + g.DurMS, "raft_start " + g.Node})
			}
		case GeneUnplug:
			evs = append(evs, event{g.AtMS, "unplug " + g.Node})
			if g.DurMS > 0 {
				evs = append(evs, event{g.AtMS + g.DurMS, "replug " + g.Node})
			}
		}
	}
	// Closing commands can land before a later gene's opener; restore
	// global time order (stable, so simultaneous events keep genome order).
	return sortEventsByTime(evs)
}

func sortEventsByTime(evs []event) []event {
	// Insertion sort: timelines are tiny and stability matters.
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].atMS < evs[j-1].atMS; j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	return evs
}

// CompileRepro renders the minimized schedule as a committable regression
// scenario: a provenance header, the scenario body, and assertions pinning
// the violating behavior the fuzzer observed. The scenario passes as-is
// against the current implementation; if the behavior ever changes (the
// deficiency gets fixed, or drifts further), the assertions or the golden
// trace flag it.
func CompileRepro(s Schedule, v Violation, seed int64) (string, error) {
	checks := reproChecks(s, v)
	body, err := compile(s, checks)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("# Fuzzer-found fault schedule, minimized by delta debugging.\n")
	fmt.Fprintf(&b, "# oracle: %s — %s\n", v.Kind, v.Detail)
	fmt.Fprintf(&b, "# pfifuzz -seed %d; schedule %s\n", seed, s.Hash())
	b.WriteString("# The assertions pin the observed (deficient) behavior as a\n")
	b.WriteString("# regression: a change here means the implementation moved.\n")
	b.WriteString(body)
	return b.String(), nil
}

// reproChecks renders the assertion lines that pin a violation.
func reproChecks(s Schedule, v Violation) []string {
	switch v.Kind {
	case ViolSilentCorruption:
		return []string{
			`assert {[tcp_unacked] == 0} "sender believes every byte was acknowledged"`,
			`assert {[recv_len] == [sent_len]} "every byte was delivered"`,
			`assert {![recv_matches]} "delivered bytes differ from sent: corruption accepted undetected"`,
		}
	case ViolAckDesync:
		return []string{
			`assert {[tcp_unacked] == 0} "sender believes every byte was acknowledged"`,
			`assert {[recv_len] < [sent_len]} "acknowledged bytes were never delivered"`,
		}
	case ViolStall:
		return []string{
			`assert {[tcp_state] eq "ESTABLISHED"} "connection still open"`,
			`assert {[tcp_unacked] > 0} "sender still owes data"`,
			`assert {![recv_matches]} "data never delivered despite a quiescent network"`,
		}
	case ViolSplitBrain:
		a, b, _ := strings.Cut(v.Nodes, " ")
		return []string{
			fmt.Sprintf(`assert {[gmp_group %s] ne [gmp_group %s]} "membership views diverged after the network healed"`, a, b),
		}
	case ViolStuckTransition:
		return []string{
			fmt.Sprintf(`assert {[gmp_in_transition %s]} "member wedged mid view-transition after quiescence"`, v.Nodes),
		}
	case ViolElectionSafety:
		return []string{
			`assert {[raft_election_conflicts] > 0} "two nodes won the same term: election safety violated"`,
		}
	case ViolCommitSafety:
		return []string{
			`assert {[raft_apply_conflicts] > 0} "a log index applied with two identities: commit safety violated"`,
		}
	default:
		return nil
	}
}
