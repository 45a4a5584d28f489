package conformance

import (
	"fmt"
	"strconv"
	"strings"

	"pfi/internal/raft"
	"pfi/internal/script"
)

// expandNodeSet expands range tokens of the form "r1..r50" into the full
// node list. Tokens without ".." pass through untouched, so the syntax
// composes with plain names: {r1 r5..r8} -> r1 r5 r6 r7 r8. Bulk topology
// ops at 100-1000 nodes are unwritable without this.
func expandNodeSet(tokens []string) ([]string, error) {
	out := make([]string, 0, len(tokens))
	for _, t := range tokens {
		i := strings.Index(t, "..")
		if i < 0 {
			out = append(out, t)
			continue
		}
		p1, lo, err1 := splitNodeName(t[:i])
		p2, hi, err2 := splitNodeName(t[i+2:])
		if err1 != nil || err2 != nil || p1 != p2 || lo > hi {
			return nil, fmt.Errorf("bad node range %q (want e.g. r1..r50)", t)
		}
		for k := lo; k <= hi; k++ {
			out = append(out, fmt.Sprintf("%s%d", p1, k))
		}
	}
	return out, nil
}

// partitionGroups parses the {node ...} groups of a partition command. Every
// node must exist and belong to one group only: netsim leaves a node named
// twice in the last group that names it, so a typo would quietly test a
// different cut from the one the scenario wrote down.
func (h *harness) partitionGroups(lists []string) ([][]string, error) {
	groups := make([][]string, 0, len(lists))
	groupOf := make(map[string]int)
	for gi, list := range lists {
		members, err := script.ListSplit(list)
		if err != nil {
			return nil, err
		}
		if members, err = expandNodeSet(members); err != nil {
			return nil, err
		}
		for _, m := range members {
			if _, err := h.node(m); err != nil {
				return nil, err
			}
			if first, named := groupOf[m]; named && first != gi {
				return nil, fmt.Errorf("node %s named in two groups", m)
			}
			groupOf[m] = gi
		}
		groups = append(groups, members)
	}
	return groups, nil
}

// splitNodeName splits "r17" into ("r", 17).
func splitNodeName(s string) (prefix string, n int, err error) {
	i := len(s)
	for i > 0 && s[i-1] >= '0' && s[i-1] <= '9' {
		i--
	}
	if i == len(s) {
		return "", 0, fmt.Errorf("node name %q has no numeric suffix", s)
	}
	n, err = strconv.Atoi(s[i:])
	return s[:i], n, err
}

// parseRaftBugs maps scenario bug tokens onto raft.Bugs.
func parseRaftBugs(tokens []string) (raft.Bugs, error) {
	var b raft.Bugs
	for _, t := range tokens {
		switch strings.ToLower(t) {
		case "skip-vote-persist", "skipvotepersist":
			b.SkipVotePersist = true
		case "ack-before-quorum", "ackbeforequorum":
			b.AckBeforeQuorum = true
		default:
			return b, fmt.Errorf("unknown raft bug %q (want skip-vote-persist, ack-before-quorum)", t)
		}
	}
	return b, nil
}

// raftNodes resolves a node-set argument list to raft members, defaulting
// to every node when the list is empty.
func (h *harness) raftNodes(args []string) ([]*raft.Node, error) {
	if err := h.needRaft(); err != nil {
		return nil, err
	}
	names := h.rr.Names
	if len(args) > 0 {
		var err error
		names, err = expandNodeSet(args)
		if err != nil {
			return nil, err
		}
	}
	out := make([]*raft.Node, len(names))
	for i, name := range names {
		m, err := h.raftMember(name)
		if err != nil {
			return nil, err
		}
		out[i] = m.Raft()
	}
	return out, nil
}

// registerRaftCommands installs the raft workload and oracle command set.
func registerRaftCommands(in *script.Interp, h *harness) {
	// Lifecycle commands all take a node set ("raft_stop r1 r5..r8") and
	// default to every node, so churn at 1000 nodes is one line.
	lifecycle := func(name string, op func(*raft.Node)) {
		in.Register(name, func(_ *script.Interp, args []string) (string, error) {
			ns, err := h.raftNodes(args)
			if err != nil {
				return "", err
			}
			for _, n := range ns {
				op(n)
			}
			return strconv.Itoa(len(ns)), nil
		})
	}
	lifecycle("raft_start", func(n *raft.Node) { n.Start() })
	lifecycle("raft_stop", func(n *raft.Node) { n.Stop() })
	lifecycle("raft_suspend", func(n *raft.Node) { n.Suspend() })
	lifecycle("raft_resume", func(n *raft.Node) { n.Resume() })
	lifecycle("raft_restart", func(n *raft.Node) { n.Stop(); n.Start() })

	// raft_propose submits a client command. With a node argument it goes to
	// that node (which may reject it as a non-leader); without, it goes to
	// the current unique leader. Returns the assigned log index, 0 when the
	// proposal was not accepted — scripts assert on the result rather than
	// aborting, because "no leader right now" is a legitimate state under
	// fault injection.
	in.Register("raft_propose data ?node?", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needRaft(); err != nil {
			return "", err
		}
		var target *raft.Node
		if len(args) == 2 {
			m, err := h.raftMember(args[1])
			if err != nil {
				return "", err
			}
			target = m.Raft()
		} else if ls := h.rr.Leaders(); len(ls) == 1 {
			target = h.rr.Ms[ls[0]].Raft()
		}
		if target == nil {
			return "0", nil
		}
		idx, ok := target.Propose(args[0])
		if !ok {
			return "0", nil
		}
		return strconv.FormatUint(idx, 10), nil
	})

	// raft_expect_leader records the election-safety check of the moment:
	// exactly one node in the leader role among the given set (default all).
	// Returns the leader's name so scripts can target it.
	in.Register("raft_expect_leader ?among {node ...}?", func(_ *script.Interp, args []string) (string, error) {
		if len(args) == 1 || len(args) == 2 && args[0] != "among" {
			return "", script.WrongArgs("raft_expect_leader ?among {node ...}?")
		}
		if err := h.needRaft(); err != nil {
			return "", err
		}
		names := h.rr.Names
		if len(args) == 2 {
			members, err := script.ListSplit(args[1])
			if err != nil {
				return "", err
			}
			if names, err = expandNodeSet(members); err != nil {
				return "", err
			}
		}
		var leaders []string
		for _, name := range names {
			m, err := h.raftMember(name)
			if err != nil {
				return "", err
			}
			if m.Raft().IsLeader() {
				leaders = append(leaders, name)
			}
		}
		got := "no leader"
		if len(leaders) > 0 {
			got = strings.Join(leaders, ", ")
		}
		h.record(Verdict{
			Step: "raft_expect_leader " + strings.Join(args, " "),
			OK:   len(leaders) == 1,
			At:   h.now(),
			Want: "exactly one leader",
			Got:  got,
		})
		if len(leaders) == 1 {
			return leaders[0], nil
		}
		return "", nil
	})

	// raft_expect_committed asserts the entry at a log index is applied —
	// with the expected payload, on at least min nodes (default: a quorum
	// of the whole cluster). Returns the count of nodes holding it. Its
	// options may repeat, so it declares no maximum and checks its pairs.
	in.Register("raft_expect_committed", func(_ *script.Interp, args []string) (string, error) {
		if len(args)%2 == 0 {
			return "", script.WrongArgs("raft_expect_committed index ?data payload? ?min n?")
		}
		if err := h.needRaft(); err != nil {
			return "", err
		}
		idx, err := strconv.ParseUint(args[0], 10, 64)
		if err != nil || idx == 0 {
			return "", fmt.Errorf("bad log index %q", args[0])
		}
		data := ""
		hasData := false
		min := len(h.rr.Names)/2 + 1
		for i := 1; i < len(args); i += 2 {
			switch args[i] {
			case "data":
				data, hasData = args[i+1], true
			case "min":
				n, err := strconv.Atoi(args[i+1])
				if err != nil || n < 1 {
					return "", fmt.Errorf("bad min %q", args[i+1])
				}
				min = n
			default:
				return "", fmt.Errorf("unknown option %q", args[i])
			}
		}
		holders := 0
		for _, name := range h.rr.Names {
			n := h.rr.Ms[name].Raft()
			if n.Applied() < idx {
				continue
			}
			if e, ok := n.EntryAt(idx); ok && (!hasData || e.Data == data) {
				holders++
			}
		}
		want := fmt.Sprintf("entry %d applied on >= %d nodes", idx, min)
		if hasData {
			want = fmt.Sprintf("entry %d = %q applied on >= %d nodes", idx, data, min)
		}
		h.record(Verdict{
			Step: "raft_expect_committed " + strings.Join(args, " "),
			OK:   holders >= min,
			At:   h.now(),
			Want: want,
			Got:  fmt.Sprintf("%d nodes", holders),
		})
		return strconv.Itoa(holders), nil
	})

	// raft_partition_heal is the compound topology op: partition into the
	// given groups, run for the duration, heal. One line per fault epoch.
	in.Register("raft_partition_heal duration {node ...} ?{node ...} ...?", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needRaft(); err != nil {
			return "", err
		}
		d, err := parseDur(args[0])
		if err != nil || d < 0 {
			return "", fmt.Errorf("bad duration %q", args[0])
		}
		groups, err := h.partitionGroups(args[1:])
		if err != nil {
			return "", err
		}
		h.w.Partition(groups...)
		steps := h.w.RunFor(d)
		h.w.Heal()
		return strconv.Itoa(steps), nil
	})

	// --- value commands for assert expressions -----------------------------

	in.Register("raft_leaders", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needRaft(); err != nil {
			return "", err
		}
		return strings.Join(h.rr.Leaders(), " "), nil
	})

	raftValue := func(name string, get func(*raft.Node) string) {
		in.Register(name+" node", func(_ *script.Interp, args []string) (string, error) {
			m, err := h.raftMember(args[0])
			if err != nil {
				return "", err
			}
			return get(m.Raft()), nil
		})
	}
	raftValue("raft_state", func(n *raft.Node) string { return n.State().String() })
	raftValue("raft_term", func(n *raft.Node) string { return strconv.FormatUint(n.Term(), 10) })
	raftValue("raft_applied", func(n *raft.Node) string { return strconv.FormatUint(n.Applied(), 10) })
	raftValue("raft_commit", func(n *raft.Node) string { return strconv.FormatUint(n.Commit(), 10) })
	raftValue("raft_last_index", func(n *raft.Node) string { return strconv.FormatUint(n.LastIndex(), 10) })

	// raft_election_conflicts counts terms in which the trace records two
	// distinct nodes winning — the election-safety oracle over the whole
	// history, not just the current instant. It reads only the elected
	// entries, not a copy of the whole log: a campaign cell asks both
	// oracles once per case.
	in.RegisterTyped("raft_election_conflicts", func(_ *script.Interp, args []string) (script.Value, error) {
		if err := h.needRaft(); err != nil {
			return script.Value{}, err
		}
		elections, _ := raft.SafetyConflicts(h.log.Filter("", "elected", ""))
		return script.Int(int64(len(elections))), nil
	})

	// raft_apply_conflicts counts log indexes applied with two different
	// identities (payload#term) anywhere in the cluster — the commit-safety
	// oracle over the whole history.
	in.RegisterTyped("raft_apply_conflicts", func(_ *script.Interp, args []string) (script.Value, error) {
		if err := h.needRaft(); err != nil {
			return script.Value{}, err
		}
		_, applies := raft.SafetyConflicts(h.entries())
		return script.Int(int64(len(applies))), nil
	})
}
