package raft

import (
	"sort"

	"pfi/internal/trace"
)

// Conflict is one breach of a raft safety property found in a trace: a
// term with more than one elected node, or a log index applied with more
// than one identity (payload#term).
type Conflict struct {
	// Key is the term (election safety) or log index (commit safety).
	Key uint64
	// Members are the distinct winners or identities, sorted.
	Members []string
}

// SafetyConflicts is the one raft safety oracle: a single pass over the
// nodes' "elected" and "apply" events, judged over the whole history
// rather than the current instant. It returns the terms that elected two
// leaders and the indexes applied with two identities, lowest key first,
// so callers render deterministic detail text from the first element and
// count with len. Both are nil for a safe history.
func SafetyConflicts(entries []trace.Entry) (elections, applies []Conflict) {
	winners := map[uint64]map[string]bool{} // term -> elected nodes
	applied := map[uint64]map[string]bool{} // index -> applied identities
	note := func(m map[uint64]map[string]bool, key uint64, member string) {
		if m[key] == nil {
			m[key] = map[string]bool{}
		}
		m[key][member] = true
	}
	for i := range entries {
		switch e := &entries[i]; e.Kind {
		case "elected":
			note(winners, e.Seq, e.Node)
		case "apply":
			note(applied, e.Seq, e.Note)
		}
	}
	return conflicts(winners), conflicts(applied)
}

// conflicts keeps the keys holding more than one member.
func conflicts(m map[uint64]map[string]bool) []Conflict {
	var out []Conflict
	for key, set := range m {
		if len(set) < 2 {
			continue
		}
		c := Conflict{Key: key}
		for member := range set {
			c.Members = append(c.Members, member)
		}
		sort.Strings(c.Members)
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
