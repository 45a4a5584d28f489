// Package explore is a coverage-guided fuzzer over fault schedules — the
// feedback-driven successor to the campaign package's exhaustive matrix.
//
// A Schedule is a typed genome: per-message-type fault windows
// (drop/delay/duplicate/corrupt/reorder decisions with dist parameters),
// driver-level injection points, and partition/suspend timings. Each
// genome compiles to a declarative conformance scenario (.pfi), runs in a
// fresh simulated world, and feeds back trace coverage: (node, event-kind)
// tuples and per-node event-kind state transitions from the shared
// trace.Log are hashed into a bitmap. Schedules that light new bits join
// the corpus; parent selection favors schedules holding rare bits. All
// randomness flows from one seeded dist.Source, and exploration proceeds
// in deterministic generations (candidates are derived sequentially, then
// evaluated in parallel through campaign.ForEach, then merged in candidate
// order), so a run is bit-for-bit reproducible for any worker count.
//
// When a run violates an oracle — scenario execution failure, a stalled
// connection, silently accepted corruption, acknowledged-but-lost data,
// split-brain or stuck membership — a delta-debugging shrinker minimizes
// the schedule and emits a ready-to-commit .pfi repro plus golden trace,
// turning every discovery into a permanent tier-1 regression test.
package explore

import (
	"fmt"
	"sort"
	"strings"

	"pfi/internal/core"
	"pfi/internal/dist"
	"pfi/internal/fault"
)

// World kinds a schedule can target.
const (
	WorldTCP  = "tcp"
	WorldGMP  = "gmp"
	WorldRaft = "raft"
)

// GeneKind discriminates the gene union.
type GeneKind int

const (
	// GeneFault installs a time-windowed message fault on one PFI filter.
	GeneFault GeneKind = iota + 1
	// GeneInject generates a spurious protocol message at a point in time.
	GeneInject
	// GenePartition splits a GMP world in two at AtMS and heals it DurMS
	// later (DurMS == 0: never heals).
	GenePartition
	// GeneSuspend freezes a GMP daemon at AtMS (the paper's process-crash)
	// and resumes it DurMS later (DurMS == 0: never resumes).
	GeneSuspend
	// GeneUnplug detaches a node's network interface at AtMS and replugs it
	// DurMS later (DurMS == 0: never).
	GeneUnplug
	// GeneRestart crashes a raft node at AtMS — wiping its volatile state
	// but keeping term/vote/log, the durable half of the paper's
	// crash-recovery model — and reboots it DurMS later (DurMS == 0:
	// never). Raft worlds only.
	GeneRestart
)

var geneKindNames = map[GeneKind]string{
	GeneFault:     "fault",
	GeneInject:    "inject",
	GenePartition: "partition",
	GeneSuspend:   "suspend",
	GeneUnplug:    "unplug",
	GeneRestart:   "restart",
}

// String implements fmt.Stringer.
func (k GeneKind) String() string {
	if s, ok := geneKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("GeneKind(%d)", int(k))
}

// Gene is one decision in a fault schedule. Field meaning depends on Kind;
// unused fields stay zero so the canonical encoding is stable.
type Gene struct {
	Kind GeneKind
	// Node targets a world participant ("vendor"/"xkernel" for TCP,
	// "compsun<i>" for GMP). For GenePartition, Node is unused.
	Node string
	// Dir selects the send or receive filter (GeneFault, GeneInject).
	Dir core.Direction
	// Fault is the injected fault kind (GeneFault).
	Fault fault.Kind
	// Type is the message-type selector for GeneFault ("*" = all) and the
	// generated type for GeneInject.
	Type string
	// AtMS is the activation time in virtual milliseconds.
	AtMS int
	// DurMS bounds the active window (GeneFault/GenePartition/GeneSuspend/
	// GeneUnplug). 0 means the condition persists to the end of the run.
	DurMS int
	// Param parameterizes the fault: delay milliseconds (Delay), first-N
	// budget (DropFirstN), corrupt byte offset (Corrupt).
	Param int
	// Prob applies the fault probabilistically via the filter's seeded coin
	// (0 or 1: always).
	Prob float64
	// Split is the partition point for GenePartition: nodes[:Split] vs
	// nodes[Split:].
	Split int
}

// Key renders the gene canonically — the unit of schedule hashing, corpus
// dedup, and corpus fingerprints.
func (g Gene) Key() string {
	return fmt.Sprintf("%s|%s|%d|%d|%s|%d|%d|%d|%g|%d",
		g.Kind, g.Node, g.Dir, g.Fault, g.Type, g.AtMS, g.DurMS, g.Param, g.Prob, g.Split)
}

// Schedule is the fuzzer's genome: a world selection, a workload size, and
// an ordered gene list.
type Schedule struct {
	// World is WorldTCP, WorldGMP, or WorldRaft.
	World string
	// Profile pins the vendor profile for TCP worlds ("" = runner default).
	Profile string
	// Nodes is the GMP member or raft cluster count (TCP worlds always have
	// two machines).
	Nodes int
	// Warmup is the TCP workload size in MSS segments (streamed 250 ms
	// apart), or the GMP/raft settle time in seconds before the first
	// proposal or gene.
	Warmup int
	// TailMS is how long the world keeps running after the last timeline
	// event — the drain window the oracles judge quiescence against.
	TailMS int
	// RaftBugs, for raft worlds, seeds the implementation bugs the world is
	// built with (space-separated `world raft ... bugs` tokens). Used by the
	// oracle self-tests; empty for real exploration.
	// The json tag omits the empty case so pre-raft schedules keep their
	// historical fleet wire encoding (pinned as protocol goldens).
	RaftBugs string `json:",omitempty"`
	// Genes is the fault schedule.
	Genes []Gene
}

// Key renders the schedule canonically. RaftBugs joins the key only when
// set, so every pre-raft schedule keeps its historical key (and therefore
// its corpus hash and repro filename).
func (s Schedule) Key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%s|%d|%d|%d", s.World, s.Profile, s.Nodes, s.Warmup, s.TailMS)
	if s.RaftBugs != "" {
		fmt.Fprintf(&b, "|bugs=%s", s.RaftBugs)
	}
	for _, g := range s.Genes {
		b.WriteByte('\n')
		b.WriteString(g.Key())
	}
	return b.String()
}

// Hash returns a short stable identifier for the schedule (FNV-1a64 of the
// canonical key, hex).
func (s Schedule) Hash() string {
	return fmt.Sprintf("%016x", fnv64(s.Key()))
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// tcpNodes and the message-type vocabularies the genome draws from.
var (
	tcpNodes  = []string{"vendor", "xkernel"}
	tcpTypes  = []string{"*", "DATA", "ACK", "SYN", "SYN-ACK", "FIN", "RST"}
	tcpInject = []string{"ACK", "RST", "SYN", "FIN"}
	gmpTypes  = []string{"*", "HEARTBEAT", "PROCLAIM", "JOIN", "MEMBERSHIP_CHANGE", "ACK", "NAK", "COMMIT", "DEAD_REPORT"}
	gmpInject = []string{"HEARTBEAT", "PROCLAIM", "JOIN", "ACK", "NAK", "DEAD_REPORT"}
	// raftTypes has no inject counterpart: forging a VoteResp or AppendResp
	// is a Byzantine fault, and raft's safety guarantees assume non-Byzantine
	// failures — an injected forged vote "violating" election safety would be
	// a false positive, not a protocol bug. Corruption faults are fine: the
	// wire checksum turns them into loss.
	raftTypes = []string{"*", "REQUEST_VOTE", "VOTE_RESP", "APPEND_ENTRIES", "APPEND_RESP"}
)

// gmpNodeNames returns the first n compsun names, the rig's canonical
// numbering.
func gmpNodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("compsun%d", i+1)
	}
	return names
}

// raftNodeNames returns the first n raft node names, the rig's canonical
// numbering.
func raftNodeNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("r%d", i+1)
	}
	return names
}

// peerOf returns a deterministic counterpart for node: the other TCP
// endpoint, or the next GMP member in ring order.
func (s Schedule) peerOf(node string) string {
	ns := s.nodes()
	for i, n := range ns {
		if n == node {
			return ns[(i+1)%len(ns)]
		}
	}
	return ns[0]
}

// nodes returns the schedule's participant names.
func (s Schedule) nodes() []string {
	switch s.World {
	case WorldGMP:
		return gmpNodeNames(s.Nodes)
	case WorldRaft:
		return raftNodeNames(s.Nodes)
	}
	return tcpNodes
}

// Validate checks structural well-formedness; the compiler and mutator
// only produce valid schedules, so a failure here is a fuzzer bug.
func (s Schedule) Validate() error {
	switch s.World {
	case WorldTCP:
		if s.Warmup < 1 {
			return fmt.Errorf("explore: tcp schedule needs at least one warm-up segment")
		}
	case WorldGMP:
		if s.Nodes < 2 || s.Nodes > 7 {
			return fmt.Errorf("explore: gmp node count %d out of [2,7]", s.Nodes)
		}
	case WorldRaft:
		if s.Nodes < 3 || s.Nodes > 1000 {
			return fmt.Errorf("explore: raft cluster size %d out of [3,1000]", s.Nodes)
		}
	default:
		return fmt.Errorf("explore: unknown world %q", s.World)
	}
	if s.TailMS < 0 || s.Warmup < 0 {
		return fmt.Errorf("explore: negative workload parameter")
	}
	names := map[string]bool{}
	for _, n := range s.nodes() {
		names[n] = true
	}
	for i, g := range s.Genes {
		if g.AtMS < 0 || g.DurMS < 0 || g.Param < 0 {
			return fmt.Errorf("explore: gene %d: negative timing/param", i)
		}
		if g.Prob < 0 || g.Prob > 1 {
			return fmt.Errorf("explore: gene %d: probability %g out of [0,1]", i, g.Prob)
		}
		switch g.Kind {
		case GeneFault:
			if !names[g.Node] {
				return fmt.Errorf("explore: gene %d: unknown node %q", i, g.Node)
			}
			if g.Dir != core.Send && g.Dir != core.Receive {
				return fmt.Errorf("explore: gene %d: bad direction", i)
			}
			if g.Type == "" {
				return fmt.Errorf("explore: gene %d: empty type selector", i)
			}
		case GeneInject:
			if s.World == WorldRaft {
				// Injection forges protocol messages — a Byzantine fault
				// outside raft's failure model, and a false-positive machine
				// for the safety oracles.
				return fmt.Errorf("explore: gene %d: inject in a raft world", i)
			}
			if !names[g.Node] {
				return fmt.Errorf("explore: gene %d: unknown node %q", i, g.Node)
			}
			if g.Dir != core.Send && g.Dir != core.Receive {
				return fmt.Errorf("explore: gene %d: bad direction", i)
			}
		case GenePartition:
			if s.World != WorldGMP && s.World != WorldRaft {
				return fmt.Errorf("explore: gene %d: partition in a %s world", i, s.World)
			}
			if g.Split < 1 || g.Split >= s.Nodes {
				return fmt.Errorf("explore: gene %d: split %d out of (0,%d)", i, g.Split, s.Nodes)
			}
		case GeneSuspend:
			if (s.World != WorldGMP && s.World != WorldRaft) || !names[g.Node] {
				return fmt.Errorf("explore: gene %d: bad suspend target %q", i, g.Node)
			}
		case GeneUnplug:
			if !names[g.Node] {
				return fmt.Errorf("explore: gene %d: unknown node %q", i, g.Node)
			}
		case GeneRestart:
			if s.World != WorldRaft || !names[g.Node] {
				return fmt.Errorf("explore: gene %d: bad restart target %q", i, g.Node)
			}
		default:
			return fmt.Errorf("explore: gene %d: unknown kind %v", i, g.Kind)
		}
	}
	return nil
}

// Quiescent reports whether every gene's effect is bounded and over by
// endMS - settleMS: fault windows closed, partitions healed, daemons
// resumed, cables replugged. The liveness oracles only judge quiescent
// schedules — a world still under fault is allowed to look broken.
func (s Schedule) Quiescent(endMS, settleMS int) bool {
	deadline := endMS - settleMS
	for _, g := range s.Genes {
		switch g.Kind {
		case GeneInject:
			if g.AtMS > deadline {
				return false
			}
		default:
			if g.DurMS == 0 || g.AtMS+g.DurMS > deadline {
				return false
			}
		}
	}
	return true
}

// EndMS is the virtual time the compiled scenario runs to: past the
// workload, past the GMP settle window, past every gene's window, plus the
// drain tail.
func (s Schedule) EndMS() int {
	end := s.workloadEndMS()
	if s.World == WorldGMP && s.Warmup*1000 > end {
		end = s.Warmup * 1000
	}
	if s.World == WorldRaft {
		// Past the settle window and the whole proposal epoch.
		if pe := s.Warmup*1000 + raftProposals*raftProposalGapMS; pe > end {
			end = pe
		}
	}
	for _, g := range s.Genes {
		at := g.AtMS + g.DurMS
		if at > end {
			end = at
		}
	}
	return end + s.TailMS
}

// --- random generation and mutation -------------------------------------

// timeQuantumMS keeps every genome timestamp on a coarse grid so mutations
// explore structurally distinct schedules instead of nearby jitter, and so
// shrinking converges on round numbers.
const timeQuantumMS = 500

// maxGenes bounds genome growth.
const maxGenes = 12

func quantize(ms int) int {
	if ms < 0 {
		ms = 0
	}
	return ms / timeQuantumMS * timeQuantumMS
}

// randSchedule draws a fresh genome. TCP worlds dominate: their oracles
// are sharper and their worlds cheaper.
func randSchedule(rng *dist.Source) Schedule {
	s := Schedule{World: WorldTCP}
	if rng.Bernoulli(0.3) {
		s.World = WorldGMP
		s.Nodes = 3 + rng.Intn(3)
		s.Warmup = 60 + rng.Intn(60) // settle seconds
		s.TailMS = 120_000 + timeQuantumMS*rng.Intn(240)
	} else {
		s.Warmup = 1 + rng.Intn(6)
		s.TailMS = 150_000 + timeQuantumMS*rng.Intn(300)
	}
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		s.Genes = append(s.Genes, randGene(rng, s))
	}
	return s
}

// horizonMS is the window gene activation times are drawn from.
func (s Schedule) horizonMS() int {
	switch s.World {
	case WorldGMP:
		return s.Warmup*1000 + 120_000
	case WorldRaft:
		return s.Warmup*1000 + raftProposals*raftProposalGapMS + 30_000
	}
	return s.workloadEndMS() + 60_000
}

// workloadEndMS is when the scripted workload finishes (dial + stream for
// TCP) — timeline events are scheduled at or after it. GMP and raft worlds
// have no scripted workload beyond their start command (raft proposals are
// timeline events), so genes can land during group formation or elections.
func (s Schedule) workloadEndMS() int {
	if s.World == WorldGMP || s.World == WorldRaft {
		return 0
	}
	return 1000 + s.Warmup*streamSpacingMS
}

func randGene(rng *dist.Source, s Schedule) Gene {
	nodes := s.nodes()
	g := Gene{
		Node: nodes[rng.Intn(len(nodes))],
		AtMS: quantize(rng.Intn(s.horizonMS() + 1)),
		Prob: 1,
	}
	if rng.Bernoulli(0.2) {
		g.Prob = []float64{0.25, 0.5, 0.75}[rng.Intn(3)]
	}
	kindW := []float64{6, 1.5, 0, 0, 0.5} // fault, inject, partition, suspend, unplug, restart
	if s.World == WorldGMP {
		kindW = []float64{5, 1, 2, 2, 1}
	}
	if s.World == WorldRaft {
		kindW = []float64{4, 0, 3, 2, 1, 3} // inject excluded: Byzantine
	}
	switch GeneKind(rng.Weighted(kindW) + 1) {
	case GeneInject:
		g.Kind = GeneInject
		g.Dir = core.Direction(1 + rng.Intn(2))
		g.Prob = 1
		if s.World == WorldGMP {
			g.Type = gmpInject[rng.Intn(len(gmpInject))]
		} else {
			g.Type = tcpInject[rng.Intn(len(tcpInject))]
		}
	case GenePartition:
		g.Kind = GenePartition
		g.Node = ""
		g.Prob = 1
		g.Split = 1 + rng.Intn(s.Nodes-1)
		g.DurMS = quantize(30_000 + rng.Intn(120_000))
	case GeneSuspend:
		g.Kind = GeneSuspend
		g.Prob = 1
		g.DurMS = quantize(15_000 + rng.Intn(120_000))
	case GeneUnplug:
		g.Kind = GeneUnplug
		g.Prob = 1
		g.DurMS = quantize(15_000 + rng.Intn(120_000))
	case GeneRestart:
		g.Kind = GeneRestart
		g.Prob = 1
		g.DurMS = quantize(5_000 + rng.Intn(60_000))
	default:
		g.Kind = GeneFault
		g.Dir = core.Direction(1 + rng.Intn(2))
		kinds := fault.Kinds()
		g.Fault = kinds[rng.Intn(len(kinds))]
		g.DurMS = quantize(5_000 + rng.Intn(90_000))
		types := tcpTypes
		switch s.World {
		case WorldGMP:
			types = gmpTypes
		case WorldRaft:
			types = raftTypes
		}
		g.Type = types[rng.Intn(len(types))]
		g.Param = g.Fault.Draw(rng)
	}
	return g
}

// mutate derives a child genome from parent with 1..3 random edits.
func mutate(rng *dist.Source, parent Schedule) Schedule {
	s := parent
	s.Genes = append([]Gene(nil), parent.Genes...)
	edits := 1 + rng.Intn(3)
	for e := 0; e < edits; e++ {
		op := rng.Weighted([]float64{3, 2, 4, 1}) // add, delete, tweak, resize workload
		switch {
		case op == 0 && len(s.Genes) < maxGenes:
			g := randGene(rng, s)
			at := rng.Intn(len(s.Genes) + 1)
			s.Genes = append(s.Genes[:at], append([]Gene{g}, s.Genes[at:]...)...)
		case op == 1 && len(s.Genes) > 1:
			at := rng.Intn(len(s.Genes))
			s.Genes = append(s.Genes[:at], s.Genes[at+1:]...)
		case op == 3:
			if s.World == WorldTCP {
				s.Warmup = 1 + rng.Intn(6)
			} else {
				s.Warmup = 60 + rng.Intn(60)
			}
			s.TailMS = quantize(120_000 + timeQuantumMS*rng.Intn(360))
		default:
			if len(s.Genes) == 0 {
				s.Genes = append(s.Genes, randGene(rng, s))
				break
			}
			at := rng.Intn(len(s.Genes))
			s.Genes[at] = tweakGene(rng, s, s.Genes[at])
		}
	}
	return s
}

// tweakGene perturbs a single field, staying valid.
func tweakGene(rng *dist.Source, s Schedule, g Gene) Gene {
	switch rng.Intn(4) {
	case 0:
		g.AtMS = quantize(rng.Intn(s.horizonMS() + 1))
	case 1:
		if g.Kind != GeneInject {
			g.DurMS = quantize(5_000 + rng.Intn(120_000))
		}
	case 2:
		switch g.Kind {
		case GeneFault:
			kinds := fault.Kinds()
			g.Fault = kinds[rng.Intn(len(kinds))]
			g.Param = g.Fault.Draw(rng)
		case GenePartition:
			g.Split = 1 + rng.Intn(s.Nodes-1)
		default:
			nodes := s.nodes()
			g.Node = nodes[rng.Intn(len(nodes))]
		}
	default:
		return randGene(rng, s) // full replacement
	}
	return g
}

// seedCorpus returns the deterministic initial population: one minimal
// schedule per world plus a few hand-shaped probes of known-interesting
// regions (blackouts, corruption, partitions).
func seedCorpus() []Schedule {
	return []Schedule{
		{World: WorldTCP, Warmup: 2, TailMS: 150_000},
		{World: WorldTCP, Warmup: 3, TailMS: 180_000, Genes: []Gene{
			{Kind: GeneFault, Node: "xkernel", Dir: core.Receive, Fault: fault.Drop, Type: "DATA", AtMS: 1500, DurMS: 10_000, Prob: 1},
		}},
		{World: WorldTCP, Warmup: 3, TailMS: 180_000, Genes: []Gene{
			{Kind: GeneFault, Node: "vendor", Dir: core.Send, Fault: fault.Corrupt, Type: "DATA", AtMS: 1000, DurMS: 5_000, Param: 20, Prob: 1},
		}},
		{World: WorldGMP, Nodes: 5, Warmup: 90, TailMS: 180_000, Genes: []Gene{
			{Kind: GenePartition, AtMS: 95_000, DurMS: 90_000, Split: 3, Prob: 1},
		}},
	}
}

// RaftSeedCorpus returns the deterministic raft seed population for an
// n-node cluster: a fault-free baseline plus probes of the regions raft
// findings live in (partitions over the proposal epoch, restart/suspend
// churn during elections, probabilistic loss). Raft schedules only enter a
// run through Options.Seeds — randSchedule never draws them — so a run
// without raft seeds consumes the exact random stream it always did.
// bugs seeds the implementation bugs the worlds are built with (the
// oracle self-tests); pass "" for real exploration.
func RaftSeedCorpus(nodes int, bugs string) []Schedule {
	base := Schedule{World: WorldRaft, Nodes: nodes, Warmup: 30, TailMS: 60_000, RaftBugs: bugs}
	names := raftNodeNames(nodes)
	churn := base
	churn.Genes = []Gene{
		{Kind: GeneRestart, Node: names[0], AtMS: 2_000, DurMS: 5_000, Prob: 1},
		{Kind: GeneRestart, Node: names[1%nodes], AtMS: 4_000, DurMS: 5_000, Prob: 1},
		{Kind: GeneRestart, Node: names[2%nodes], AtMS: 6_000, DurMS: 5_000, Prob: 1},
		{Kind: GeneSuspend, Node: names[nodes-1], AtMS: 35_000, DurMS: 20_000, Prob: 1},
	}
	split := base
	split.Genes = []Gene{
		{Kind: GenePartition, AtMS: 32_000, DurMS: 30_000, Split: (nodes + 1) / 2, Prob: 1},
	}
	loss := base
	loss.Genes = []Gene{
		{Kind: GeneFault, Node: names[0], Dir: core.Receive, Fault: fault.Drop, Type: "*", AtMS: 30_000, DurMS: 30_000, Prob: 0.5},
		{Kind: GeneFault, Node: names[1%nodes], Dir: core.Send, Fault: fault.Corrupt, Type: "APPEND_ENTRIES", AtMS: 30_000, DurMS: 30_000, Param: 9, Prob: 0.5},
	}
	return []Schedule{base, churn, split, loss}
}

// RaftStaleLeaderProbe returns a crafted 5-node schedule that isolates the
// first elected leader in a two-node minority partition, then keeps client
// proposals flowing to it while the majority elects a successor and
// commits different entries. A correct stale leader appends the minority
// proposal but can never commit it (no quorum reachable), so healing
// truncates it away silently; a leader built with the ack-before-quorum
// bug applies it immediately, and the same log index later applies with a
// second identity on the majority side — the commit-safety oracle fires.
// The Split=2 cut is what arms the probe: the deterministic first winner
// is r2 (earliest election timer under the rig's fixed seed), and
// names[:2] puts it on the quorum-less side. Violation-free against a
// bug-free world, so it also serves as a corpus seed for
// leader-in-minority interleavings.
func RaftStaleLeaderProbe(bugs string) Schedule {
	return Schedule{
		World: WorldRaft, Nodes: 5, Warmup: 30, TailMS: 60_000, RaftBugs: bugs,
		Genes: []Gene{
			{Kind: GenePartition, AtMS: 32_000, DurMS: 20_000, Split: 2, Prob: 1},
		},
	}
}

// RaftDoubleVoteProbe returns a crafted 3-node schedule that lands a voter
// restart inside the one window where vote durability matters: after the
// voter has granted the first term-1 candidate, before the second term-1
// candidate's REQUEST_VOTE arrives. r1 is made deaf to REQUEST_VOTE and
// APPEND_ENTRIES during startup, so it never learns term 1 already has a
// winner and campaigns for the same term off its own (later) election
// timer; r3 — which granted r2 — restarts in the gap between the two
// candidacies. A correct node re-reads its durable vote and refuses r1; a
// node built with the skip-vote-persist bug comes back amnesiac, grants a
// second term-1 vote, and both candidates reach quorum — the
// election-safety oracle fires. Against a bug-free world the same schedule
// is violation-free, so it doubles as a corpus seed probing tight
// restart/election interleavings. The millisecond timings are pure
// functions of the deterministic world clocks (r2's first election timeout
// at ~5.13s, r1's at ~5.43s under the rig's fixed seed), so the probe is
// exact, not probabilistic.
func RaftDoubleVoteProbe(bugs string) Schedule {
	return Schedule{
		World: WorldRaft, Nodes: 3, Warmup: 30, TailMS: 60_000, RaftBugs: bugs,
		Genes: []Gene{
			{Kind: GeneFault, Node: "r1", Dir: core.Receive, Fault: fault.Drop, Type: "REQUEST_VOTE", AtMS: 0, DurMS: 15_000, Prob: 1},
			{Kind: GeneFault, Node: "r1", Dir: core.Receive, Fault: fault.Drop, Type: "APPEND_ENTRIES", AtMS: 0, DurMS: 15_000, Prob: 1},
			{Kind: GeneRestart, Node: "r3", AtMS: 5_150, DurMS: 200, Prob: 1},
		},
	}
}

// sortGenesByTime orders timeline events; used by the compiler. Stable so
// equal-time genes keep genome order.
func sortGenesByTime(gs []Gene) []Gene {
	out := append([]Gene(nil), gs...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].AtMS < out[j].AtMS })
	return out
}
