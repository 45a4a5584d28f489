package conformance

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/gmp"
	"pfi/internal/harden"
	"pfi/internal/netsim"
	"pfi/internal/raft"
	"pfi/internal/simtime"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// Verdict is the structured outcome of one checked scenario step (expect,
// expect_none, assert).
type Verdict struct {
	// Step is the command as executed, e.g. "expect vendor retransmit DATA min 10".
	Step string
	// OK reports whether the check held.
	OK bool
	// At is the virtual time the check ran.
	At simtime.Time
	// Want and Got describe the criterion and the observation.
	Want string
	Got  string
}

// String renders one verdict line.
func (v Verdict) String() string {
	status := "PASS"
	if !v.OK {
		status = "FAIL"
	}
	s := fmt.Sprintf("%-4s @%-10s %s", status, v.At, v.Step)
	if !v.OK {
		s += fmt.Sprintf("  (want %s, got %s)", v.Want, v.Got)
	}
	return s
}

// harness is the mutable world state behind one scenario run. It is built
// lazily by the `world` command and torn down with the run.
type harness struct {
	defaultProf tcp.Profile
	tol         time.Duration // default timing tolerance for expect at/within

	kind string // "", "tcp", "gmp", or "raft"
	w    *netsim.World
	log  *trace.Log
	pfis map[string]*core.Layer

	// tcp world state
	prof   tcp.Profile
	rig    *exp.TCPRig
	conn   *tcp.Conn // client (vendor) connection
	server *tcp.Conn // accepted (xkernel) connection
	sent   []byte    // bytes pushed through tcp_send/tcp_stream

	// What the server delivered to the application, compared with sent as
	// it arrives instead of kept: the count, whether any delivered byte
	// differed from the byte sent at its offset (append-only on both
	// sides, so a difference never heals), and the delivered bytes that
	// still lie beyond len(sent) — an injected DATA segment can get ahead
	// of the sender — waiting to be compared when sent catches up.
	recvN     int
	recvBad   bool
	recvAhead []byte

	// gmp world state
	gr *exp.GMPRig

	// raft world state
	rr *exp.RaftRig

	// monitor is the isolation layer's observer, attached when the
	// scenario builds its world (nil-safe: plain Run sets one anyway,
	// but harness unit tests may not).
	monitor *harden.Monitor

	// progDump, when set, receives a disassembly of every faultload
	// script as it is installed.
	progDump io.Writer

	verdicts []Verdict
}

func newHarness(defaultProf tcp.Profile) *harness {
	return &harness{
		defaultProf: defaultProf,
		tol:         500 * time.Millisecond,
		pfis:        map[string]*core.Layer{},
	}
}

// delivered accounts for d, the next bytes the server's application read.
func (h *harness) delivered(d []byte) {
	h.recvAhead = append(h.recvAhead, d...)
	h.recvN += len(d)
	h.settle()
}

// settle compares the delivered bytes sent has caught up with. Normally
// that is all of them and recvAhead stays empty.
func (h *harness) settle() {
	at := h.recvN - len(h.recvAhead)
	n := min(len(h.recvAhead), len(h.sent)-at)
	if n <= 0 {
		return
	}
	if !bytes.Equal(h.recvAhead[:n], h.sent[at:at+n]) {
		h.recvBad = true
	}
	h.recvAhead = h.recvAhead[:copy(h.recvAhead, h.recvAhead[n:])]
}

// recvMatches reports whether the delivered stream equals the sent one.
func (h *harness) recvMatches() bool {
	h.settle()
	return h.recvN == len(h.sent) && !h.recvBad
}

func (h *harness) needWorld() error {
	if h.kind == "" {
		return fmt.Errorf("no world: declare one with `world tcp`, `world gmp <nodes>`, or `world raft <n>` first")
	}
	return nil
}

func (h *harness) needTCP() error {
	if h.kind != "tcp" {
		return fmt.Errorf("command needs a tcp world (current: %q)", h.kind)
	}
	return nil
}

func (h *harness) needConn() error {
	if err := h.needTCP(); err != nil {
		return err
	}
	if h.conn == nil {
		return fmt.Errorf("no connection: run tcp_dial first")
	}
	return nil
}

func (h *harness) needGMP() error {
	if h.kind != "gmp" {
		return fmt.Errorf("command needs a gmp world (current: %q)", h.kind)
	}
	return nil
}

func (h *harness) needRaft() error {
	if h.kind != "raft" {
		return fmt.Errorf("command needs a raft world (current: %q)", h.kind)
	}
	return nil
}

// buildTCP constructs the two-machine TCP world.
func (h *harness) buildTCP(prof tcp.Profile) error {
	rig, err := exp.NewTCPRig(prof)
	if err != nil {
		return err
	}
	h.kind, h.prof, h.rig = "tcp", prof, rig
	h.w, h.log = rig.W, rig.Log
	h.pfis["vendor"] = rig.Vendor.PFI
	h.pfis["xkernel"] = rig.XK.PFI
	h.attachMonitor()
	return nil
}

// buildGMP constructs an n-daemon GMP world. names is copied: the rig holds
// on to it, and the scenario interpreter reuses its argument buffers.
func (h *harness) buildGMP(names []string, bugs gmp.Bugs) error {
	gr, err := exp.NewGMPRig(append([]string(nil), names...), gmp.WithBugs(bugs))
	if err != nil {
		return err
	}
	h.kind, h.gr = "gmp", gr
	h.w, h.log = gr.W, gr.Log
	for name, m := range gr.Ms {
		h.pfis[name] = m.PFI
	}
	h.attachMonitor()
	return nil
}

// buildRaft constructs an n-node raft world (nodes r1..rn). The bugs are
// injected into every node, mirroring how a buggy build ships to the whole
// fleet at once.
func (h *harness) buildRaft(n int, bugs raft.Bugs) error {
	rr, err := exp.NewRaftRig(n, raft.WithBugs(bugs))
	if err != nil {
		return err
	}
	h.kind, h.rr = "raft", rr
	h.w, h.log = rr.W, rr.Log
	for name, m := range rr.Ms {
		h.pfis[name] = m.PFI
	}
	h.attachMonitor()
	return nil
}

// attachMonitor points the isolation monitor at the freshly built world:
// its scheduler, the shared trace log, and an injected-message counter
// summed over every PFI filter.
func (h *harness) attachMonitor() {
	if h.monitor == nil || h.w == nil {
		return
	}
	pfis := h.pfis
	h.monitor.Attach(h.w.Sched, h.log, func() int {
		n := 0
		for _, l := range pfis {
			n += l.SendFilter().Stats().Injected + l.ReceiveFilter().Stats().Injected
		}
		return n
	})
}

func (h *harness) pfi(node string) (*core.Layer, error) {
	l, ok := h.pfis[node]
	if !ok {
		return nil, fmt.Errorf("unknown node %q (have %s)", node, strings.Join(h.nodeNames(), ", "))
	}
	return l, nil
}

func (h *harness) nodeNames() []string {
	if h.w == nil {
		return nil
	}
	return h.w.Nodes()
}

func (h *harness) node(name string) (*netsim.Node, error) {
	if err := h.needWorld(); err != nil {
		return nil, err
	}
	n, ok := h.w.Node(name)
	if !ok {
		return nil, fmt.Errorf("unknown node %q (have %s)", name, strings.Join(h.nodeNames(), ", "))
	}
	return n, nil
}

func (h *harness) member(name string) (*exp.GMPMember, error) {
	if err := h.needGMP(); err != nil {
		return nil, err
	}
	m, ok := h.gr.Ms[name]
	if !ok {
		return nil, fmt.Errorf("unknown gmp member %q", name)
	}
	return m, nil
}

func (h *harness) raftMember(name string) (*exp.RaftMember, error) {
	if err := h.needRaft(); err != nil {
		return nil, err
	}
	m, ok := h.rr.Ms[name]
	if !ok {
		return nil, fmt.Errorf("unknown raft member %q", name)
	}
	return m, nil
}

func (h *harness) now() simtime.Time {
	if h.w == nil {
		return 0
	}
	return h.w.Now()
}

func (h *harness) record(v Verdict) {
	h.verdicts = append(h.verdicts, v)
}

// entries snapshots the shared trace log.
func (h *harness) entries() []trace.Entry {
	if h.log == nil {
		return nil
	}
	return h.log.Entries()
}

// profileByName resolves a vendor profile from a scenario token: "default"
// (or "") selects the runner's default, anything else goes through
// tcp.ProfileByName's forgiving match.
func (h *harness) profileByName(name string) (tcp.Profile, error) {
	if name == "" || strings.EqualFold(name, "default") {
		return h.defaultProf, nil
	}
	return tcp.ProfileByName(name)
}

// parseBugs maps scenario bug tokens onto gmp.Bugs.
func parseBugs(tokens []string) (gmp.Bugs, error) {
	var b gmp.Bugs
	for _, t := range tokens {
		switch strings.ToLower(t) {
		case "self-death", "selfdeath":
			b.SelfDeath = true
		case "proclaim-forward", "proclaim":
			b.ProclaimForward = true
		case "timer-unset", "timer":
			b.TimerUnset = true
		default:
			return b, fmt.Errorf("unknown gmp bug %q (want self-death, proclaim-forward, timer-unset)", t)
		}
	}
	return b, nil
}

// parseDur accepts either a Go duration ("30s", "2m", "1.5h") or a bare
// number of milliseconds — scenarios mix human-readable constants with
// millisecond arithmetic from [now].
func parseDur(s string) (time.Duration, error) {
	if d, err := time.ParseDuration(s); err == nil {
		return d, nil
	}
	if ms, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Duration(ms * float64(time.Millisecond)), nil
	}
	return 0, fmt.Errorf("bad duration %q (want e.g. 500ms, 30s, 2m, or bare milliseconds)", s)
}
