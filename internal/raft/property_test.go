package raft

import (
	"fmt"
	"testing"
	"time"
)

// identity is how the safety checks name an entry: its data plus the term
// that wrote it — two entries are "the same" only if both match.
func identity(e LogEntry) string { return fmt.Sprintf("%s#%d", e.Data, e.Term) }

// checker accumulates the cluster-wide safety state the properties quantify
// over: every committed (applied) index's identity and every term's leader.
type checker struct {
	t         *testing.T
	seed      int64
	committed map[uint64]string // index -> identity at first apply
	leaders   map[uint64]string // term -> node that won it
}

func newChecker(t *testing.T, seed int64) *checker {
	return &checker{t: t, seed: seed, committed: map[uint64]string{}, leaders: map[uint64]string{}}
}

// observe runs every invariant against the cluster's current state. It is
// called after every scheduler step, so no transient violation can hide.
func (ck *checker) observe(c *memCluster) {
	nodes := make([]*Node, 0, len(c.names))
	for _, n := range c.names {
		nodes = append(nodes, c.nodes[n])
	}
	// Election safety: at most one leader per term.
	for _, n := range nodes {
		if n.state != StateLeader {
			continue
		}
		if prev, ok := ck.leaders[n.term]; ok && prev != n.id {
			ck.t.Fatalf("seed %d: term %d led by both %s and %s", ck.seed, n.term, prev, n.id)
		}
		ck.leaders[n.term] = n.id
	}
	// Commit safety: an applied index never changes identity, on any node,
	// ever.
	for _, n := range nodes {
		for idx := uint64(1); idx <= n.applied; idx++ {
			e, ok := n.EntryAt(idx)
			if !ok {
				ck.t.Fatalf("seed %d: %s applied %d beyond log end %d", ck.seed, n.id, idx, n.LastIndex())
			}
			id := identity(e)
			if prev, ok := ck.committed[idx]; ok && prev != id {
				ck.t.Fatalf("seed %d: index %d committed as %q then %q on %s", ck.seed, idx, prev, id, n.id)
			}
			ck.committed[idx] = id
		}
	}
	// Log matching: if two logs agree on the term at an index, they agree
	// on every entry up to and including it. Checking the deepest common
	// index with equal terms covers the whole prefix by induction.
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			a, b := nodes[i], nodes[j]
			idx := a.LastIndex()
			if bl := b.LastIndex(); bl < idx {
				idx = bl
			}
			for ; idx >= 1; idx-- {
				ea, _ := a.EntryAt(idx)
				eb, _ := b.EntryAt(idx)
				if ea.Term != eb.Term {
					continue
				}
				for k := uint64(1); k <= idx; k++ {
					ea, _ = a.EntryAt(k)
					eb, _ = b.EntryAt(k)
					if identity(ea) != identity(eb) {
						ck.t.Fatalf("seed %d: log matching broken: %s and %s agree at %d (term %d) but differ at %d: %q vs %q",
							ck.seed, a.id, b.id, idx, ea.Term, k, identity(ea), identity(eb))
					}
				}
				break
			}
		}
	}
	// Leader completeness: every current leader's log holds every entry
	// the cluster has ever committed.
	for _, n := range nodes {
		if n.state != StateLeader {
			continue
		}
		for idx, id := range ck.committed {
			e, ok := n.EntryAt(idx)
			if !ok || identity(e) != id {
				got := "<missing>"
				if ok {
					got = identity(e)
				}
				ck.t.Fatalf("seed %d: leader %s (term %d) lacks committed entry %d: want %q, have %s",
					ck.seed, n.id, n.term, idx, id, got)
			}
		}
	}
}

// TestPropertyFaultFreeInterleavings drives random fault-free message
// interleavings — every message arrives, but with delays long enough to
// reorder traffic and even force re-elections — and asserts after every
// single event that log matching, leader completeness, election safety,
// and commit safety all hold. Entirely in-memory: no netsim world.
func TestPropertyFaultFreeInterleavings(t *testing.T) {
	trials := 12
	if testing.Short() || raceEnabled {
		trials = 4
	}
	for seed := int64(1); seed <= int64(trials); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			sizes := []int{3, 5, 7}
			size := sizes[int(seed)%len(sizes)]
			// Delays up to 2s overlap the heartbeat interval (1s) and eat
			// into the election timeout (3–6s): enough to reorder heavily
			// and occasionally depose a live leader — all without dropping
			// a single message.
			c := newMemCluster(t, size, seed, 2*time.Second)
			ck := newChecker(t, seed)
			c.startAll()

			// A deterministic client: every 1.5s, try to propose at every
			// node; only leaders accept.
			proposal := 0
			var client func()
			client = func() {
				c.sched.After(1500*time.Millisecond, "client", client)
				for _, name := range c.names {
					if idx, ok := c.nodes[name].Propose(fmt.Sprintf("p%d-%s", proposal, name)); ok {
						_ = idx
						proposal++
					}
				}
			}
			c.sched.After(1500*time.Millisecond, "client", client)

			end := c.sched.Now().Add(60 * time.Second)
			for c.sched.Now() < end {
				if !c.sched.Step() {
					break
				}
				ck.observe(c)
			}
			if len(ck.committed) == 0 {
				t.Fatalf("seed %d: nothing committed in 60s — workload never ran", seed)
			}
		})
	}
}
