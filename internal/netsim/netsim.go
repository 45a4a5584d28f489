// Package netsim is the deterministic network substrate the experiments run
// on: named nodes, point-to-point links with latency/jitter/loss, network
// partitions, and the "unplugged Ethernet" fault from the paper's
// zero-window-probe experiment.
//
// netsim replaces the paper's real lab Ethernet. Messages are delivered as
// simtime events, so an experiment spanning days of protocol time (the
// two-day unplug test) runs deterministically in milliseconds.
package netsim

import (
	"fmt"
	"time"

	"pfi/internal/dist"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/snapshot"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// Broadcast is the destination meaning "every other node".
const Broadcast = "*"

// LinkConfig describes one direction-independent link.
type LinkConfig struct {
	// Latency is the base propagation delay.
	Latency time.Duration
	// Jitter adds a uniform draw in [0, Jitter) per message.
	Jitter time.Duration
	// Loss drops each message independently with this probability.
	Loss float64
}

// Stats counts world-level message outcomes.
type Stats struct {
	Sent        int
	Delivered   int
	LostRandom  int // dropped by link loss probability
	LostDown    int // dropped because an endpoint was unplugged
	LostNoRoute int // dropped because no link exists
	LostCut     int // dropped by a partition
}

// World is one simulated network. Not safe for concurrent use.
type World struct {
	Sched *simtime.Scheduler
	rng   *dist.Source
	nodes map[string]*Node
	order []*Node // creation order, for deterministic broadcast fan-out
	links map[uint64]*LinkConfig
	def   *LinkConfig // default link config for unconnected pairs, if any
	stats Stats
	log   *trace.Log // optional wire-level log
	// hops numbers the world's wire hops: each send to one destination
	// draws the next, and the log's wire entries carry it as their Seq.
	hops uint64

	// free holds deliveries whose hop is over, for newDelivery to hand out
	// again. The world is single-threaded, so a plain stack will do; a
	// delivery a snapshot has seen never comes here (delivery.pinned).
	free []*delivery
	// msgs holds the messages whose hop is over; every node's stack builds
	// its frames from it (stack.Env.Msgs). A kept message never comes here.
	msgs message.Pool

	// snaps is the world's snapshot roster: scheduler and world state are
	// pre-registered; rigs add their protocol layers and shared log.
	snaps *snapshot.Registry
}

// NewWorld creates an empty world with its own scheduler and a seeded
// random source.
func NewWorld(seed int64) *World {
	w := &World{
		Sched: simtime.NewScheduler(),
		rng:   dist.NewSource(seed),
		nodes: make(map[string]*Node),
		links: make(map[uint64]*LinkConfig),
	}
	w.snaps = snapshot.NewRegistry()
	w.snaps.Register("sched", w.Sched)
	w.snaps.Register("netsim", w)
	return w
}

// Snapshots returns the world's snapshot registry. The scheduler and the
// world's own state are pre-registered; world builders (rigs) register
// every stateful protocol layer and the shared trace log here.
func (w *World) Snapshots() *snapshot.Registry { return w.snaps }

// SetTrace mirrors wire events (send/deliver/drop) into l.
func (w *World) SetTrace(l *trace.Log) { w.log = l }

// Stats returns a copy of the world's counters.
func (w *World) Stats() Stats { return w.stats }

// Rand returns the world's random source (for experiment components that
// must share the deterministic stream).
func (w *World) Rand() *dist.Source { return w.rng }

// Node is one machine on the network.
type Node struct {
	name      string
	world     *World
	idx       int // position in World.order; half of a link key
	stk       *stack.Stack
	env       *stack.Env
	unplugged bool
	group     int // partition group; 0 = not named by the current partition
}

// AddNode registers a machine. Node names must be unique.
func (w *World) AddNode(name string) (*Node, error) {
	if name == "" || name == Broadcast {
		return nil, fmt.Errorf("netsim: invalid node name %q", name)
	}
	if _, dup := w.nodes[name]; dup {
		return nil, fmt.Errorf("netsim: duplicate node %q", name)
	}
	n := &Node{
		name:  name,
		world: w,
		idx:   len(w.order),
		env:   &stack.Env{Sched: w.Sched, Node: name, Msgs: &w.msgs},
	}
	w.nodes[name] = n
	w.order = append(w.order, n)
	return n, nil
}

// MustAddNode is AddNode for experiment setup code.
func (w *World) MustAddNode(name string) *Node {
	n, err := w.AddNode(name)
	if err != nil {
		panic(err)
	}
	return n
}

// Node looks up a machine by name.
func (w *World) Node(name string) (*Node, bool) {
	n, ok := w.nodes[name]
	return n, ok
}

// Nodes returns node names in creation order.
func (w *World) Nodes() []string {
	names := make([]string, len(w.order))
	for i, n := range w.order {
		names[i] = n.name
	}
	return names
}

// Name returns the node's name.
func (n *Node) Name() string { return n.name }

// Env returns the node's per-stack environment (scheduler + name).
func (n *Node) Env() *stack.Env { return n.env }

// SetStack attaches a protocol stack: outbound messages leaving the
// stack's bottom enter the network; inbound deliveries enter the stack's
// bottom layer.
func (n *Node) SetStack(s *stack.Stack) {
	n.stk = s
	s.OnTransmit(func(m *message.Message) error {
		return n.world.transmit(n, m)
	})
}

// Unplug disconnects the node's network cable: everything to or from it is
// silently lost, exactly like the paper's two-day Ethernet unplug.
func (n *Node) Unplug() { n.unplugged = true }

// Replug reconnects the cable.
func (n *Node) Replug() { n.unplugged = false }

// linkKey is the unordered node pair as one map key.
func linkKey(a, b *Node) uint64 {
	lo, hi := a.idx, b.idx
	if lo > hi {
		lo, hi = hi, lo
	}
	return uint64(lo)<<32 | uint64(hi)
}

// Connect creates (or reconfigures) the bidirectional link between a and b.
func (w *World) Connect(a, b string, cfg LinkConfig) error {
	na, ok := w.nodes[a]
	if !ok {
		return fmt.Errorf("netsim: unknown node %q", a)
	}
	nb, ok := w.nodes[b]
	if !ok {
		return fmt.Errorf("netsim: unknown node %q", b)
	}
	if a == b {
		return fmt.Errorf("netsim: cannot link %q to itself", a)
	}
	if cfg.Loss < 0 || cfg.Loss > 1 {
		return fmt.Errorf("netsim: loss probability %v out of [0,1]", cfg.Loss)
	}
	w.links[linkKey(na, nb)] = &cfg
	return nil
}

// ConnectAll links every pair of current nodes with cfg (a full mesh —
// the LAN the paper's machines shared).
func (w *World) ConnectAll(cfg LinkConfig) error {
	for i, a := range w.order {
		for _, b := range w.order[i+1:] {
			if err := w.Connect(a.name, b.name, cfg); err != nil {
				return err
			}
		}
	}
	return nil
}

// Partition splits the network into the given groups: messages crossing
// group boundaries are dropped. Nodes not mentioned keep connectivity only
// among themselves (they form an implicit extra group). A node belongs to
// one group: if several name it, the last one wins (the scenario language
// rejects such a partition before it gets here), and unknown names are
// skipped.
func (w *World) Partition(groups ...[]string) {
	w.Heal()
	for gi, g := range groups {
		for _, name := range g {
			if n, ok := w.nodes[name]; ok {
				n.group = gi + 1
			}
		}
	}
}

// Heal removes any partition.
func (w *World) Heal() {
	for _, n := range w.order {
		n.group = 0
	}
}

// delivery is one message on the wire: the pending arrival event, the
// resolved endpoints and the message, in a single object. The scheduler
// fires it; SnapshotState finds it among the scheduler's pending events. A
// loopback has src == dst.
type delivery struct {
	simtime.Event
	src, dst *Node
	m        *message.Message
	hop      uint64 // the hop's number, for its wire-recv or wire-drop entry
	// pinned marks a delivery that was pending when a snapshot was taken:
	// the snapshot's scheduler state holds its event and a restore queues
	// it again, so it is never reused.
	pinned bool
}

// newDelivery returns a delivery for one hop, reusing one whose hop is over.
func (w *World) newDelivery(src, dst *Node, m *message.Message, hop uint64) *delivery {
	n := len(w.free)
	if n == 0 {
		return &delivery{src: src, dst: dst, m: m, hop: hop}
	}
	d := w.free[n-1]
	w.free = w.free[:n-1]
	d.src, d.dst, d.m, d.hop = src, dst, m, hop
	return d
}

// Fire implements simtime.Handler: the message arrives, and the hop gives
// back what it used to the world's free lists. This is the one place that
// does: Fire runs directly under Scheduler.Step, so the receiving stack's
// whole call chain has unwound and no sender's frame is on the stack —
// whoever still wants the message has said so with Keep by now. (A
// send-side drop is no such place: the PFI layer forwards a message and
// then clones it for xDuplicate.)
func (d *delivery) Fire() {
	w, m := d.dst.world, d.m
	d.arrive(w)
	if !d.pinned {
		d.m = nil
		w.free = append(w.free, d)
	}
	w.msgs.Release(m)
}

func (d *delivery) arrive(w *World) {
	if d.src != d.dst {
		// Re-check reachability at arrival: a cable pulled mid-flight
		// loses the packet.
		if d.src.unplugged || d.dst.unplugged || d.src.group != d.dst.group {
			w.drop(d.src, d.dst, d.hop, "lost in flight")
			w.stats.LostDown++
			return
		}
		if w.log != nil {
			w.log.Addf(w.Sched.Now(), d.dst.name, "wire-recv", "", d.hop, "from "+d.src.name)
		}
	}
	w.stats.Delivered++
	if d.dst.stk != nil {
		// Delivery errors are a node-local matter; the network does
		// not propagate them back in time to the sender.
		_ = d.dst.stk.Deliver(d.m)
	}
}

// transmit routes m from a node, using the message's destination.
func (w *World) transmit(from *Node, m *message.Message) error {
	dst := m.Dst()
	if dst == "" {
		return fmt.Errorf("netsim: a message from %s has no destination", from.name)
	}
	m.SetSrc(from.name)
	if dst == Broadcast {
		for _, to := range w.order {
			if to != from {
				w.sendOne(from, to, w.msgs.Clone(m))
			}
		}
		return nil
	}
	to, ok := w.nodes[dst]
	if !ok {
		return fmt.Errorf("netsim: unknown destination %q", dst)
	}
	if to == from {
		// Loopback: never leaves the host, so it ignores cables, links,
		// and partitions — but it HAS traversed the sender's stack (and
		// any PFI layer in it), which is what lets the paper's experiment
		// drop a daemon's heartbeats to itself.
		w.stats.Sent++
		d := w.newDelivery(from, from, m, 0)
		w.Sched.Lane(0).Arm(&d.Event, "loopback", d)
		return nil
	}
	w.sendOne(from, to, m)
	return nil
}

func (w *World) sendOne(src, dst *Node, m *message.Message) {
	w.stats.Sent++
	w.hops++
	hop := w.hops
	if src.unplugged || dst.unplugged {
		w.drop(src, dst, hop, "unplugged")
		w.stats.LostDown++
		return
	}
	if src.group != dst.group {
		w.drop(src, dst, hop, "partitioned")
		w.stats.LostCut++
		return
	}
	c := w.def
	if l, ok := w.links[linkKey(src, dst)]; ok {
		c = l
	}
	if c == nil {
		w.drop(src, dst, hop, "no route")
		w.stats.LostNoRoute++
		return
	}
	if c.Loss > 0 && w.rng.Bernoulli(c.Loss) {
		w.drop(src, dst, hop, "random loss")
		w.stats.LostRandom++
		return
	}
	delay := c.Latency
	if c.Jitter > 0 {
		delay += time.Duration(w.rng.Uniform(0, float64(c.Jitter)))
	}
	if w.log != nil {
		w.log.Addf(w.Sched.Now(), src.name, "wire-send", "", hop, "to "+dst.name)
	}
	d := w.newDelivery(src, dst, m, hop)
	if c.Jitter > 0 {
		w.Sched.Arm(&d.Event, delay, "deliver", d)
	} else {
		// Deliveries that take one fixed delay fire in the order they
		// were sent, so they queue on that delay's lane, off the heap.
		w.Sched.Lane(delay).Arm(&d.Event, "deliver", d)
	}
}

// SetDefaultLink makes unconnected node pairs reachable with cfg. Passing
// nil removes the default (unconnected pairs drop traffic).
func (w *World) SetDefaultLink(cfg *LinkConfig) { w.def = cfg }

func (w *World) drop(from, to *Node, hop uint64, why string) {
	if w.log != nil {
		w.log.Addf(w.Sched.Now(), from.name, "wire-drop", "", hop,
			fmt.Sprintf("to %s: %s", to.name, why))
	}
}

// --- snapshot / restore ------------------------------------------------

// linkState saves one link entry: the pointer (Connect may replace it) plus
// its configuration.
type linkState struct {
	key uint64
	l   *LinkConfig
	cfg LinkConfig
}

// nodeState saves the per-node switches faults toggle.
type nodeState struct {
	unplugged bool
	group     int
}

// flightState saves one in-flight message: the pointer its pending
// delivery holds, and the message content at capture time. Capturing pins
// both: the message is kept (SaveState) and the delivery is never reused.
type flightState struct {
	m  *message.Message
	st message.State
}

// worldState is the world's mutable state at one instant.
type worldState struct {
	links    []linkState
	def      *LinkConfig
	stats    Stats
	hops     uint64
	order    []*Node
	nodes    []nodeState // aligned with order
	rngMark  uint64
	log      *trace.Log
	logLen   int
	inflight []flightState
}

// SnapshotState captures the network substrate: topology, link and cable
// state, partition groups, counters (the hop number among them), the random
// stream position, and the content of every message still in flight —
// found on the scheduler's pending deliveries, which carry their message.
// The scheduler is registered separately; stacks and layers snapshot
// themselves.
func (w *World) SnapshotState() any {
	st := &worldState{
		def:     w.def,
		stats:   w.stats,
		hops:    w.hops,
		order:   append([]*Node(nil), w.order...),
		nodes:   make([]nodeState, len(w.order)),
		rngMark: w.rng.Mark(),
		log:     w.log,
	}
	for i, n := range w.order {
		st.nodes[i] = nodeState{unplugged: n.unplugged, group: n.group}
	}
	st.links = make([]linkState, 0, len(w.links))
	for k, l := range w.links {
		st.links = append(st.links, linkState{key: k, l: l, cfg: *l})
	}
	if w.log != nil {
		st.logLen = w.log.Len()
	}
	w.Sched.EachPending(func(h simtime.Handler) {
		if d, ok := h.(*delivery); ok {
			d.pinned = true
			st.inflight = append(st.inflight, flightState{m: d.m, st: d.m.SaveState()})
		}
	})
	return st
}

// RestoreState rewinds the world to a captured state. Links, nodes, and
// in-flight messages keep their identities (the pointers pending deliveries
// hold); only their mutable content rolls back. Deliveries sent since the
// capture leave the scheduler's queue with its restore and are simply
// dropped, their messages with them: nothing a capture saw was ever reused,
// so there is nothing to take back from the free list.
func (w *World) RestoreState(state any) {
	st := state.(*worldState)
	w.def = st.def
	w.stats, w.hops = st.stats, st.hops
	w.order = append(w.order[:0], st.order...)
	w.nodes = make(map[string]*Node, len(st.order))
	for i, n := range st.order {
		n.unplugged, n.group = st.nodes[i].unplugged, st.nodes[i].group
		w.nodes[n.name] = n
	}
	w.links = make(map[uint64]*LinkConfig, len(st.links))
	for _, ls := range st.links {
		*ls.l = ls.cfg
		w.links[ls.key] = ls.l
	}
	w.log = st.log
	if w.log != nil {
		w.log.RestoreState(st.logLen)
	}
	w.rng.Rewind(st.rngMark)
	for _, fs := range st.inflight {
		fs.m.RestoreState(fs.st)
	}
}

// Run executes the world until no events remain.
func (w *World) Run() int { return w.Sched.Run() }

// RunFor executes the world for d of virtual time.
func (w *World) RunFor(d time.Duration) int { return w.Sched.RunFor(d) }

// Now returns the current virtual time.
func (w *World) Now() simtime.Time { return w.Sched.Now() }
