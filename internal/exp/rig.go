// Package exp reproduces every experiment of the paper's Section 4: the
// five TCP experiments (Tables 1-4, Figure 4, and the reordering study)
// against the four vendor behaviour profiles, and the four GMP experiment
// families (Tables 5-8) against the group membership daemon with its
// historical bugs switchable on and off.
//
// Each Run* function builds a fresh simulated world, installs the paper's
// filter scripts, drives the workload, and returns a structured result
// carrying the observations the paper's tables report.
//
// The rigs (NewTCPRig, NewGMPRig) are exported so the conformance runner
// can replay declarative .pfi scenarios against the same worlds the paper's
// experiments use. Every layer of a rig logs into one shared trace.Log, so
// a rig's whole run serializes to a single canonical golden trace, and the
// PFI layers of a rig share one core.SyncBus, so filters on different nodes
// can synchronize (sync_signal/sync_wait).
package exp

import (
	"fmt"
	"time"

	"pfi/internal/core"
	"pfi/internal/gmp"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// lanLatency is the simulated LAN propagation delay.
const lanLatency = 2 * time.Millisecond

// TCPEndpoint is one machine in the TCP experiments: a vendor (or
// x-Kernel) TCP stack with a PFI layer spliced directly below it.
type TCPEndpoint struct {
	Node *netsim.Node
	TCP  *tcp.Layer
	PFI  *core.Layer
}

// TCPRig is the paper's experimental setup: a machine running a vendor TCP
// implementation talking to the instrumented x-Kernel machine. Both
// endpoints share one trace log; entries are distinguished by node name.
type TCPRig struct {
	W      *netsim.World
	Log    *trace.Log
	Vendor *TCPEndpoint
	XK     *TCPEndpoint
}

func newTCPEndpoint(w *netsim.World, name string, prof tcp.Profile, log *trace.Log, bus *core.SyncBus) (*TCPEndpoint, error) {
	node, err := w.AddNode(name)
	if err != nil {
		return nil, err
	}
	tl := tcp.NewLayer(node.Env(), prof, tcp.WithTrace(log))
	pl := core.NewLayer(node.Env(), core.WithStub(tcp.PFIStub{}), core.WithTrace(log), core.WithSyncBus(bus))
	stk := stack.New(node.Env(), tl, pl)
	node.SetStack(stk)
	w.Snapshots().Register("tcp:"+name, tl)
	w.Snapshots().Register("pfi:"+name, pl)
	w.Snapshots().Register("stack:"+name, stk)
	return &TCPEndpoint{Node: node, TCP: tl, PFI: pl}, nil
}

// NewTCPRig builds the two-machine TCP world: "vendor" running prof against
// the instrumented "xkernel" endpoint.
func NewTCPRig(prof tcp.Profile) (*TCPRig, error) {
	w := netsim.NewWorld(1995)
	log := trace.NewLog()
	w.Snapshots().Register("log", log)
	bus := core.NewSyncBus()
	vendor, err := newTCPEndpoint(w, "vendor", prof, log, bus)
	if err != nil {
		return nil, err
	}
	xk, err := newTCPEndpoint(w, "xkernel", tcp.XKernel(), log, bus)
	if err != nil {
		return nil, err
	}
	if err := w.Connect("vendor", "xkernel", netsim.LinkConfig{Latency: lanLatency}); err != nil {
		return nil, err
	}
	return &TCPRig{W: w, Log: log, Vendor: vendor, XK: xk}, nil
}

// Dial opens vendor -> xkernel:80 and runs the handshake.
func (r *TCPRig) Dial(accept func(*tcp.Conn)) (*tcp.Conn, error) {
	if accept == nil {
		accept = func(*tcp.Conn) {}
	}
	if err := r.XK.TCP.Listen(80, accept); err != nil {
		return nil, err
	}
	c, err := r.Vendor.TCP.Connect("xkernel", 80)
	if err != nil {
		return nil, err
	}
	r.W.RunFor(time.Second)
	if c.State() != tcp.StateEstablished {
		return nil, fmt.Errorf("exp: handshake failed, state %v", c.State())
	}
	return c, nil
}

// StreamSegments sends n MSS-sized segments spaced apart, letting each be
// acknowledged (the "thirty packets allowed through" warm-up).
func (r *TCPRig) StreamSegments(c *tcp.Conn, n int, spacing time.Duration) error {
	payload := make([]byte, tcp.MSS)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	for i := 0; i < n; i++ {
		if err := c.Send(payload); err != nil {
			return fmt.Errorf("exp: warm-up segment %d: %w", i, err)
		}
		r.W.RunFor(spacing)
	}
	return nil
}

// GMPMember is one machine in the GMP experiments: daemon over rudp with a
// PFI layer at the UDP boundary.
type GMPMember struct {
	Node *netsim.Node
	Net  *rudp.Layer
	PFI  *core.Layer
	Gmd  *gmp.Daemon
}

// GMPRig is an n-machine GMP world. Node names sort such that Names[0] is
// the leader-by-id when all machines group together (the paper's compsun
// numbering). Daemon events and PFI filter events share one trace log.
type GMPRig struct {
	W     *netsim.World
	Log   *trace.Log
	Names []string
	Ms    map[string]*GMPMember
}

// NewGMPRig builds an n-daemon GMP world. opts apply to every daemon (after
// the rig's shared-trace option, so a caller-supplied gmp.WithTrace wins).
func NewGMPRig(names []string, opts ...gmp.Option) (*GMPRig, error) {
	w := netsim.NewWorld(1995)
	log := trace.NewLog()
	w.Snapshots().Register("log", log)
	r := &GMPRig{W: w, Log: log, Names: names, Ms: make(map[string]*GMPMember)}
	bus := core.NewSyncBus()
	for _, name := range names {
		node, err := w.AddNode(name)
		if err != nil {
			return nil, err
		}
		net := rudp.NewLayer(node.Env())
		pfi := core.NewLayer(node.Env(), core.WithStub(gmp.PFIStub{}), core.WithTrace(log), core.WithSyncBus(bus))
		stk := stack.New(node.Env(), net, pfi)
		node.SetStack(stk)
		gmd, err := gmp.New(node.Env(), net, names, append([]gmp.Option{gmp.WithTrace(log)}, opts...)...)
		if err != nil {
			return nil, err
		}
		w.Snapshots().Register("rudp:"+name, net)
		w.Snapshots().Register("pfi:"+name, pfi)
		w.Snapshots().Register("gmd:"+name, gmd)
		w.Snapshots().Register("stack:"+name, stk)
		r.Ms[name] = &GMPMember{Node: node, Net: net, PFI: pfi, Gmd: gmd}
	}
	if err := w.ConnectAll(netsim.LinkConfig{Latency: lanLatency}); err != nil {
		return nil, err
	}
	return r, nil
}

// StartAll boots every daemon.
func (r *GMPRig) StartAll() {
	for _, n := range r.Names {
		r.Ms[n].Gmd.Start()
	}
}

// entryTimes extracts the timestamps of trace entries.
func entryTimes(es []trace.Entry) []simtime.Time {
	ts := make([]simtime.Time, len(es))
	for i, e := range es {
		ts[i] = e.At
	}
	return ts
}

// membersEqual compares a committed view's members with want.
func membersEqual(g gmp.Group, want []string) bool {
	if len(g.Members) != len(want) {
		return false
	}
	for i := range want {
		if g.Members[i] != want[i] {
			return false
		}
	}
	return true
}
