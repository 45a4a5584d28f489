package exp

import (
	"fmt"

	"pfi/internal/core"
	"pfi/internal/netsim"
	"pfi/internal/raft"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// RaftMember is one machine in a raft world: the consensus layer with a
// PFI layer spliced directly below it at the datagram boundary.
type RaftMember struct {
	Node *netsim.Node
	PFI  *core.Layer
	RL   *raft.Layer
}

// Raft returns the member's consensus state machine.
func (m *RaftMember) Raft() *raft.Node { return m.RL.Node() }

// RaftRig is an n-node raft world. Unlike the GMP rig it scales to 1000
// nodes: connectivity comes from the world's default link (one shared
// config) instead of O(n²) explicit links, and per-message wire tracing
// stays off so the shared log holds protocol events, not packet history.
type RaftRig struct {
	W     *netsim.World
	Log   *trace.Log
	Names []string
	Ms    map[string]*RaftMember
}

// RaftNames returns the canonical node names r1..rn.
func RaftNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i+1)
	}
	return names
}

// NewRaftRig builds an n-node raft world. opts apply to every node (after
// the rig's shared-trace and per-node-randomness options, so caller
// overrides win).
func NewRaftRig(n int, opts ...raft.Option) (*RaftRig, error) {
	if n < 1 {
		return nil, fmt.Errorf("exp: raft rig needs at least 1 node, got %d", n)
	}
	names := RaftNames(n)
	w := netsim.NewWorld(1995)
	w.SetDefaultLink(&netsim.LinkConfig{Latency: lanLatency})
	log := trace.NewLog()
	w.Snapshots().Register("log", log)
	r := &RaftRig{W: w, Log: log, Names: names, Ms: make(map[string]*RaftMember, n)}
	bus := core.NewSyncBus()
	for _, name := range names {
		node, err := w.AddNode(name)
		if err != nil {
			return nil, err
		}
		perNode := []raft.Option{
			raft.WithTrace(log),
			raft.WithRand(w.Rand().Split("raft:" + name)),
		}
		rl, err := raft.NewLayer(node.Env(), names, append(perNode, opts...)...)
		if err != nil {
			return nil, err
		}
		pfi := core.NewLayer(node.Env(), core.WithStub(raft.PFIStub{}), core.WithTrace(log), core.WithSyncBus(bus))
		stk := stack.New(node.Env(), rl, pfi)
		node.SetStack(stk)
		w.Snapshots().Register("raft:"+name, rl)
		w.Snapshots().Register("pfi:"+name, pfi)
		w.Snapshots().Register("stack:"+name, stk)
		r.Ms[name] = &RaftMember{Node: node, PFI: pfi, RL: rl}
	}
	return r, nil
}

// StartAll boots every node.
func (r *RaftRig) StartAll() {
	for _, n := range r.Names {
		r.Ms[n].Raft().Start()
	}
}

// Leaders returns the nodes currently in the leader role, in name order.
func (r *RaftRig) Leaders() []string {
	var out []string
	for _, n := range r.Names {
		if r.Ms[n].Raft().IsLeader() {
			out = append(out, n)
		}
	}
	return out
}
