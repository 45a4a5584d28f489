package conformance

import (
	"bytes"
	"fmt"
	"io"
	"sort"
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
	// sent is the stream pushed through tcp_send/tcp_stream, as runs of the
	// payload slices Conn.Send was handed — it aliases them instead of
	// keeping a second copy, which the Send contract (immutable once
	// handed over) makes safe.
	sent sentLog

	// What the server delivered to the application, compared with sent as
	// it arrives instead of kept: the count, whether any delivered byte
	// differed from the byte sent at its offset (append-only on both
	// sides, so a difference never heals), and the delivered bytes that
	// still lie beyond sent.len() — an injected DATA segment can get ahead
	// of the sender — copied (OnData only lends them) to be compared when
	// sent catches up.
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

// sentRun is one payload slice sent back to back: stream byte start+i is
// payload[i%len(payload)], up to the next run's start (the log's length
// for the last run), so the repeat count is implied. A run cut short by
// truncate may end mid-pattern.
type sentRun struct {
	payload []byte
	start   int
}

// sentLog is an append-only byte stream kept as runs: tcp_stream's 10,000
// sends of one slice are one run, a tcp_send is a run of one.
type sentLog struct {
	runs []sentRun
	n    int
}

func (l *sentLog) len() int { return l.n }

// add appends p, extending the last run when p is the slice that run
// repeats and the run ends on a pattern boundary.
func (l *sentLog) add(p []byte) {
	if len(p) == 0 {
		return
	}
	if k := len(l.runs) - 1; k < 0 || !sameSlice(l.runs[k].payload, p) || (l.n-l.runs[k].start)%len(p) != 0 {
		l.runs = append(l.runs, sentRun{payload: p, start: l.n})
	}
	l.n += len(p)
}

func sameSlice(a, b []byte) bool { return len(a) == len(b) && &a[0] == &b[0] }

// truncate rewinds the log to its first n bytes.
func (l *sentLog) truncate(n int) {
	k := len(l.runs)
	for k > 0 && l.runs[k-1].start >= n {
		k--
	}
	l.runs, l.n = l.runs[:k], n
}

// equalAt reports whether d equals the logged bytes [off, off+len(d)),
// which must lie within the log.
func (l *sentLog) equalAt(off int, d []byte) bool {
	// The run holding off: the last one that starts at or before it.
	k := sort.Search(len(l.runs), func(i int) bool { return l.runs[i].start > off }) - 1
	for len(d) > 0 {
		r, end := l.runs[k], l.n
		if k+1 < len(l.runs) {
			end = l.runs[k+1].start
		}
		for len(d) > 0 && off < end {
			p := r.payload[(off-r.start)%len(r.payload):]
			n := min(len(p), len(d), end-off)
			if !bytes.Equal(p[:n], d[:n]) {
				return false
			}
			d, off = d[n:], off+n
		}
		k++
	}
	return true
}

// delivered accounts for d, the next bytes the server's application read.
// d is lent (Conn.OnData): it is compared in place, and only the part
// beyond what has been sent is copied.
func (h *harness) delivered(d []byte) {
	h.settle()
	at := h.recvN
	h.recvN += len(d)
	if len(h.recvAhead) == 0 {
		n := min(len(d), h.sent.len()-at)
		if !h.sent.equalAt(at, d[:n]) {
			h.recvBad = true
		}
		d = d[n:]
	}
	h.recvAhead = append(h.recvAhead, d...)
}

// settle compares the delivered bytes sent has caught up with. Normally
// nothing was ahead and recvAhead is empty.
func (h *harness) settle() {
	at := h.recvN - len(h.recvAhead)
	n := min(len(h.recvAhead), h.sent.len()-at)
	if n <= 0 {
		return
	}
	if !h.sent.equalAt(at, h.recvAhead[:n]) {
		h.recvBad = true
	}
	h.recvAhead = h.recvAhead[:copy(h.recvAhead, h.recvAhead[n:])]
}

// recvMatches reports whether the delivered stream equals the sent one.
func (h *harness) recvMatches() bool {
	h.settle()
	return h.recvN == h.sent.len() && !h.recvBad
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

// detach hands over the shared trace log's entries, once the scenario is
// over: the log is left empty.
func (h *harness) detach() []trace.Entry {
	if h.log == nil {
		return nil
	}
	return h.log.Detach()
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
