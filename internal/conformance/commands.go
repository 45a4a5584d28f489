package conformance

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"pfi/internal/core"
	"pfi/internal/raft"
	"pfi/internal/script"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// any is the wildcard token for expect's node/kind/type selectors.
const any = "*"

// maxSendBytes bounds one tcp_send. The command allocates its argument, and
// scenario files are outside input: 1 MiB is 256 default receive buffers
// and 170 times the largest send any shipped scenario makes (6144), while
// a count like 300000000000 is refused instead of killing the process.
// Longer streams are tcp_stream's job, whose memory does not grow with its
// count.
const maxSendBytes = 1 << 20

// patternBytes builds the workload payload: n bytes of a–z repeating.
func patternBytes(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte('a' + i%26)
	}
	return p
}

func parseDir(s string) (core.Direction, error) {
	switch s {
	case "send":
		return core.Send, nil
	case "receive", "recv":
		return core.Receive, nil
	default:
		return 0, fmt.Errorf("bad direction %q (want send or receive)", s)
	}
}

func parseOnOff(s string) (bool, error) {
	switch s {
	case "on", "1", "true", "yes":
		return true, nil
	case "off", "0", "false", "no":
		return false, nil
	default:
		return false, fmt.Errorf("bad boolean %q (want on or off)", s)
	}
}

// registerCommands installs the conformance command set into the scenario
// interpreter, bound to h. The scenario language is the same Tcl subset the
// PFI filters run, so scenarios get control flow, expr, and procs for free.
func registerCommands(in *script.Interp, h *harness) {
	// --- world construction ------------------------------------------------

	in.Register("world", func(_ *script.Interp, args []string) (string, error) {
		if h.kind != "" {
			return "", fmt.Errorf("world already declared (%q)", h.kind)
		}
		if len(args) == 0 {
			return "", script.WrongArgs("world tcp ?profile? | world gmp node ?node ...? ?bugs {list}? | world raft n ?bugs {list}?")
		}
		switch args[0] {
		case "tcp":
			if len(args) > 2 {
				return "", script.WrongArgs("world tcp ?profile?")
			}
			name := ""
			if len(args) == 2 {
				name = args[1]
			}
			prof, err := h.profileByName(name)
			if err != nil {
				return "", err
			}
			return prof.Name, h.buildTCP(prof)
		case "gmp":
			nodes := args[1:]
			bugs := ""
			for i, a := range nodes {
				if a == "bugs" {
					if i != len(nodes)-2 {
						return "", fmt.Errorf("bugs must be the final option: %q", "world gmp node ... bugs {list}")
					}
					bugs = nodes[i+1]
					nodes = nodes[:i]
					break
				}
			}
			if len(nodes) < 1 {
				return "", fmt.Errorf("world gmp needs at least one node")
			}
			tokens, err := script.ListSplit(bugs)
			if err != nil {
				return "", err
			}
			b, err := parseBugs(tokens)
			if err != nil {
				return "", err
			}
			return strings.Join(nodes, " "), h.buildGMP(nodes, b)
		case "raft":
			if len(args) != 2 && len(args) != 4 {
				return "", script.WrongArgs("world raft n ?bugs {list}?")
			}
			n, err := strconv.Atoi(args[1])
			if err != nil || n < 1 {
				return "", fmt.Errorf("bad raft cluster size %q", args[1])
			}
			var b raft.Bugs
			if len(args) == 4 {
				if args[2] != "bugs" {
					return "", script.WrongArgs("world raft n ?bugs {list}?")
				}
				tokens, err := script.ListSplit(args[3])
				if err != nil {
					return "", err
				}
				if b, err = parseRaftBugs(tokens); err != nil {
					return "", err
				}
			}
			return fmt.Sprintf("r1..r%d", n), h.buildRaft(n, b)
		default:
			return "", fmt.Errorf("unknown world kind %q (want tcp, gmp, or raft)", args[0])
		}
	})

	in.Register("profile", func(_ *script.Interp, args []string) (string, error) {
		if h.kind == "tcp" {
			return h.prof.Name, nil
		}
		return "", nil
	})

	in.Register("within tolerance", func(_ *script.Interp, args []string) (string, error) {
		d, err := parseDur(args[0])
		if err != nil || d < 0 {
			return "", fmt.Errorf("bad tolerance %q", args[0])
		}
		h.tol = d
		return "", nil
	})

	// --- time and topology -------------------------------------------------

	in.RegisterTyped("run duration", func(_ *script.Interp, args []string) (script.Value, error) {
		if err := h.needWorld(); err != nil {
			return script.Value{}, err
		}
		d, err := parseDur(args[0])
		if err != nil || d < 0 {
			return script.Value{}, fmt.Errorf("bad run duration %q", args[0])
		}
		return script.Int(int64(h.w.RunFor(d))), nil
	})

	in.RegisterTyped("now", func(_ *script.Interp, args []string) (script.Value, error) {
		return script.Int(time.Duration(h.now()).Milliseconds()), nil
	})

	in.Register("unplug node ?node ...?", func(_ *script.Interp, args []string) (string, error) {
		names, err := expandNodeSet(args)
		if err != nil {
			return "", err
		}
		for _, name := range names {
			n, err := h.node(name)
			if err != nil {
				return "", err
			}
			n.Unplug()
		}
		return "", nil
	})

	in.Register("replug node ?node ...?", func(_ *script.Interp, args []string) (string, error) {
		names, err := expandNodeSet(args)
		if err != nil {
			return "", err
		}
		for _, name := range names {
			n, err := h.node(name)
			if err != nil {
				return "", err
			}
			n.Replug()
		}
		return "", nil
	})

	in.Register("partition {node ...} ?{node ...} ...?", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needWorld(); err != nil {
			return "", err
		}
		groups, err := h.partitionGroups(args)
		if err != nil {
			return "", err
		}
		h.w.Partition(groups...)
		return "", nil
	})

	in.Register("heal", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needWorld(); err != nil {
			return "", err
		}
		h.w.Heal()
		return "", nil
	})

	// --- faultload ---------------------------------------------------------

	in.Register("faultload node send|receive script", func(_ *script.Interp, args []string) (string, error) {
		l, err := h.pfi(args[0])
		if err != nil {
			return "", err
		}
		dir, err := parseDir(args[1])
		if err != nil {
			return "", err
		}
		f := l.SendFilter()
		if dir == core.Receive {
			f = l.ReceiveFilter()
		}
		if h.progDump != nil {
			title := fmt.Sprintf("%s/%s faultload", args[0], args[1])
			if err := f.Interp().DumpProgram(h.progDump, title, args[2]); err != nil {
				return "", err
			}
		}
		if dir == core.Send {
			return "", l.SetSendScript(args[2])
		}
		return "", l.SetReceiveScript(args[2])
	})

	in.Register("filter_set node send|receive varName value", func(_ *script.Interp, args []string) (string, error) {
		l, err := h.pfi(args[0])
		if err != nil {
			return "", err
		}
		dir, err := parseDir(args[1])
		if err != nil {
			return "", err
		}
		f := l.SendFilter()
		if dir == core.Receive {
			f = l.ReceiveFilter()
		}
		f.Interp().SetGlobal(args[2], args[3])
		return args[3], nil
	})

	in.Register("inject node send|receive type ?{field value ...}?", func(_ *script.Interp, args []string) (string, error) {
		l, err := h.pfi(args[0])
		if err != nil {
			return "", err
		}
		dir, err := parseDir(args[1])
		if err != nil {
			return "", err
		}
		fields := map[string]string{}
		if len(args) == 4 {
			kvs, err := script.ListSplit(args[3])
			if err != nil {
				return "", err
			}
			if len(kvs)%2 != 0 {
				return "", fmt.Errorf("field list %q has odd length", args[3])
			}
			for i := 0; i < len(kvs); i += 2 {
				fields[kvs[i]] = kvs[i+1]
			}
		}
		return "", l.Inject(dir, args[2], fields)
	})

	// --- tcp workload ------------------------------------------------------

	in.Register("tcp_dial", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needTCP(); err != nil {
			return "", err
		}
		if h.conn != nil {
			return "", fmt.Errorf("already dialed")
		}
		autoConsume := true
		for i := 0; i < len(args); i += 2 {
			if i+1 >= len(args) {
				return "", script.WrongArgs("tcp_dial ?autoconsume on|off?")
			}
			switch args[i] {
			case "autoconsume":
				v, err := parseOnOff(args[i+1])
				if err != nil {
					return "", err
				}
				autoConsume = v
			default:
				return "", fmt.Errorf("unknown tcp_dial option %q", args[i])
			}
		}
		c, err := h.rig.Dial(func(sc *tcp.Conn) {
			h.server = sc
			sc.SetAutoConsume(autoConsume)
			sc.OnData(h.delivered)
		})
		if err != nil {
			return "", err
		}
		h.conn = c
		return "", nil
	})

	in.Register("tcp_keepalive on|off", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needConn(); err != nil {
			return "", err
		}
		v, err := parseOnOff(args[0])
		if err != nil {
			return "", err
		}
		h.conn.SetKeepAlive(v)
		return "", nil
	})

	// tcp_send queues one write of n pattern bytes, n at most maxSendBytes.
	in.Register("tcp_send bytes", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needConn(); err != nil {
			return "", err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return "", fmt.Errorf("bad byte count %q", args[0])
		}
		if n > maxSendBytes {
			return "", fmt.Errorf("byte count %d exceeds the tcp_send limit of %d; stream more with tcp_stream", n, maxSendBytes)
		}
		payload := patternBytes(n)
		h.sent.add(payload)
		return "", h.conn.Send(payload)
	})

	in.Register("tcp_stream segments spacing", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needConn(); err != nil {
			return "", err
		}
		n, err := strconv.Atoi(args[0])
		if err != nil || n <= 0 {
			return "", fmt.Errorf("bad segment count %q", args[0])
		}
		spacing, err := parseDur(args[1])
		if err != nil || spacing < 0 {
			return "", fmt.Errorf("bad spacing %q", args[1])
		}
		// Every segment carries the same pattern: one payload, never written
		// again, is what Conn.Send queues n times and what the sent log
		// records as one run — nothing here grows with n, so a hostile count
		// runs into the run's budgets, not out of memory.
		payload := patternBytes(tcp.MSS)
		for i := 0; i < n; i++ {
			h.sent.add(payload)
			if err := h.conn.Send(payload); err != nil {
				return "", fmt.Errorf("segment %d: %w", i, err)
			}
			h.w.RunFor(spacing)
		}
		return "", nil
	})

	in.Register("tcp_state", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needConn(); err != nil {
			return "", err
		}
		return h.conn.State().String(), nil
	})

	in.RegisterTyped("tcp_unacked", func(_ *script.Interp, args []string) (script.Value, error) {
		if err := h.needConn(); err != nil {
			return script.Value{}, err
		}
		return script.Int(int64(h.conn.UnackedSegments())), nil
	})

	in.RegisterTyped("recv_len", func(_ *script.Interp, args []string) (script.Value, error) {
		if err := h.needTCP(); err != nil {
			return script.Value{}, err
		}
		return script.Int(int64(h.recvN)), nil
	})

	in.RegisterTyped("sent_len", func(_ *script.Interp, args []string) (script.Value, error) {
		if err := h.needTCP(); err != nil {
			return script.Value{}, err
		}
		return script.Int(int64(h.sent.len())), nil
	})

	in.Register("recv_matches", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needTCP(); err != nil {
			return "", err
		}
		if h.recvMatches() {
			return "1", nil
		}
		return "0", nil
	})

	// --- gmp workload ------------------------------------------------------

	in.Register("gmp_start", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needGMP(); err != nil {
			return "", err
		}
		if len(args) == 0 {
			h.gr.StartAll()
			return "", nil
		}
		for _, name := range args {
			m, err := h.member(name)
			if err != nil {
				return "", err
			}
			m.Gmd.Start()
		}
		return "", nil
	})

	in.Register("gmp_suspend node", func(_ *script.Interp, args []string) (string, error) {
		m, err := h.member(args[0])
		if err != nil {
			return "", err
		}
		m.Gmd.Suspend()
		return "", nil
	})

	in.Register("gmp_resume node", func(_ *script.Interp, args []string) (string, error) {
		m, err := h.member(args[0])
		if err != nil {
			return "", err
		}
		m.Gmd.Resume()
		return "", nil
	})

	in.Register("gmp_group node", func(_ *script.Interp, args []string) (string, error) {
		m, err := h.member(args[0])
		if err != nil {
			return "", err
		}
		return strings.Join(m.Gmd.Group().Members, " "), nil
	})

	in.RegisterTyped("gmp_gen node", func(_ *script.Interp, args []string) (script.Value, error) {
		m, err := h.member(args[0])
		if err != nil {
			return script.Value{}, err
		}
		return script.Int(int64(m.Gmd.Group().Gen)), nil
	})

	in.Register("gmp_in_transition node", func(_ *script.Interp, args []string) (string, error) {
		m, err := h.member(args[0])
		if err != nil {
			return "", err
		}
		if m.Gmd.InTransition() {
			return "1", nil
		}
		return "0", nil
	})

	// gmp_declared_dead reports whether the node's daemon has declared
	// itself dead and stayed in its group (the self-death bug).
	in.Register("gmp_declared_dead node", func(_ *script.Interp, args []string) (string, error) {
		m, err := h.member(args[0])
		if err != nil {
			return "", err
		}
		if m.Gmd.SelfDeclaredDead() {
			return "1", nil
		}
		return "0", nil
	})

	// gmp_armed_hb_expect counts the node's armed heartbeat-expect timers.
	in.RegisterTyped("gmp_armed_hb_expect node", func(_ *script.Interp, args []string) (script.Value, error) {
		m, err := h.member(args[0])
		if err != nil {
			return script.Value{}, err
		}
		return script.Int(int64(m.Gmd.ArmedHBExpect())), nil
	})

	// --- raft workload -----------------------------------------------------

	registerRaftCommands(in, h)

	// --- checks ------------------------------------------------------------

	in.Register("expect", func(_ *script.Interp, args []string) (string, error) {
		return h.expect("expect", args, false)
	})

	in.Register("expect_none", func(_ *script.Interp, args []string) (string, error) {
		return h.expect("expect_none", args, true)
	})

	in.Register("assert exprString ?label?", func(si *script.Interp, args []string) (string, error) {
		ok, err := si.EvalExprBool(args[0])
		if err != nil {
			return "", err
		}
		step := "assert {" + strings.TrimSpace(args[0]) + "}"
		if len(args) == 2 {
			step += " — " + args[1]
		}
		h.record(Verdict{
			Step: step,
			OK:   ok,
			At:   h.now(),
			Want: "expression true",
			Got:  strconv.FormatBool(ok),
		})
		if ok {
			return "1", nil
		}
		return "0", nil
	})

	in.Register("log", func(_ *script.Interp, args []string) (string, error) {
		if err := h.needWorld(); err != nil {
			return "", err
		}
		h.log.Addf(h.now(), "driver", "scenario", "", 0, strings.Join(args, " "))
		return "", nil
	})
}

// expectCriteria is the parsed option set of one expect step.
type expectCriteria struct {
	node, kind, typ string
	count           int // exact count (-1: unset)
	min, max        int // -1: unset
	at              time.Duration
	hasAt           bool
	within          time.Duration // tolerance for at (default h.tol)
	after, before   time.Duration
	hasAfter        bool
	hasBefore       bool
	note            string
	seq             uint64
	hasSeq          bool
}

// expect implements the expect and expect_none commands. It filters the
// shared trace log by the selectors, applies the count/timing criteria, and
// records a Verdict. The result is the matched-entry count, so scripts can
// do arithmetic on it.
func (h *harness) expect(cmdName string, args []string, none bool) (string, error) {
	if err := h.needWorld(); err != nil {
		return "", err
	}
	c, err := parseExpectArgs(args, h.tol)
	if err != nil {
		return "", fmt.Errorf("%s: %w", cmdName, err)
	}
	if none {
		if c.count >= 0 || c.min >= 0 || c.max >= 0 || c.hasAt {
			return "", fmt.Errorf("%s takes no count/min/max/at options", cmdName)
		}
		c.count = 0
	} else if c.count < 0 && c.min < 0 && c.max < 0 && !c.hasAt {
		c.min = 1 // bare expect: at least one match
	}

	matched := h.matchEntries(c)
	ok, want, got := c.judge(matched)
	h.record(Verdict{
		Step: cmdName + " " + strings.Join(args, " "),
		OK:   ok,
		At:   h.now(),
		Want: want,
		Got:  got,
	})
	return strconv.Itoa(len(matched)), nil
}

// parseExpectArgs splits "node kind ?type?" selectors from trailing
// "option value" pairs.
func parseExpectArgs(args []string, defaultTol time.Duration) (expectCriteria, error) {
	c := expectCriteria{count: -1, min: -1, max: -1, within: defaultTol}
	isOption := func(s string) bool {
		switch s {
		case "count", "min", "max", "at", "within", "after", "before", "note", "seq":
			return true
		}
		return false
	}
	var sel []string
	i := 0
	for ; i < len(args) && len(sel) < 3 && !isOption(args[i]); i++ {
		sel = append(sel, args[i])
	}
	if len(sel) < 2 {
		return c, script.WrongArgs("expect node kind ?type? ?count|min|max n? ?at t? ?within tol? ?after t? ?before t? ?note substr? ?seq n?")
	}
	c.node, c.kind = sel[0], sel[1]
	if len(sel) == 3 {
		c.typ = sel[2]
	} else {
		c.typ = any
	}
	for ; i < len(args); i += 2 {
		if i+1 >= len(args) {
			return c, fmt.Errorf("option %q needs a value", args[i])
		}
		opt, val := args[i], args[i+1]
		switch opt {
		case "count", "min", "max":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return c, fmt.Errorf("bad %s %q", opt, val)
			}
			switch opt {
			case "count":
				c.count = n
			case "min":
				c.min = n
			case "max":
				c.max = n
			}
		case "at", "within", "after", "before":
			d, err := parseDur(val)
			if err != nil {
				return c, err
			}
			switch opt {
			case "at":
				c.at, c.hasAt = d, true
			case "within":
				c.within = d
			case "after":
				c.after, c.hasAfter = d, true
			case "before":
				c.before, c.hasBefore = d, true
			}
		case "note":
			c.note = val
		case "seq":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return c, fmt.Errorf("bad seq %q", val)
			}
			c.seq, c.hasSeq = n, true
		default:
			return c, fmt.Errorf("unknown option %q", opt)
		}
	}
	return c, nil
}

// matchEntries filters the trace by the criteria's selectors and window.
func (h *harness) matchEntries(c expectCriteria) []trace.Entry {
	var out []trace.Entry
	for _, e := range h.entries() {
		if c.node != any && e.Node != c.node {
			continue
		}
		if c.kind != any && e.Kind != c.kind {
			continue
		}
		if c.typ != any && e.Type != c.typ {
			continue
		}
		if c.hasAfter && time.Duration(e.At) < c.after {
			continue
		}
		if c.hasBefore && time.Duration(e.At) > c.before {
			continue
		}
		if c.note != "" && !strings.Contains(e.Note, c.note) {
			continue
		}
		if c.hasSeq && e.Seq != c.seq {
			continue
		}
		out = append(out, e)
	}
	return out
}

// judge applies the count and timing criteria to the matched entries.
func (c expectCriteria) judge(matched []trace.Entry) (ok bool, want, got string) {
	n := len(matched)
	ok = true
	var wants, gots []string
	if c.count >= 0 && n != c.count {
		ok = false
	}
	if c.min >= 0 && n < c.min {
		ok = false
	}
	if c.max >= 0 && n > c.max {
		ok = false
	}
	switch {
	case c.count >= 0:
		wants = append(wants, fmt.Sprintf("count == %d", c.count))
	default:
		if c.min >= 0 {
			wants = append(wants, fmt.Sprintf("count >= %d", c.min))
		}
		if c.max >= 0 {
			wants = append(wants, fmt.Sprintf("count <= %d", c.max))
		}
	}
	gots = append(gots, fmt.Sprintf("%d matching entries", n))
	if c.hasAt {
		wants = append(wants, fmt.Sprintf("an entry at %v ± %v", c.at, c.within))
		hit := false
		var nearest time.Duration
		bestGap := time.Duration(-1)
		for _, e := range matched {
			gap := time.Duration(e.At) - c.at
			if gap < 0 {
				gap = -gap
			}
			if bestGap < 0 || gap < bestGap {
				bestGap, nearest = gap, time.Duration(e.At)
			}
			if gap <= c.within {
				hit = true
			}
		}
		if !hit {
			ok = false
			if bestGap >= 0 {
				gots = append(gots, fmt.Sprintf("nearest at %v", nearest))
			} else {
				gots = append(gots, "no entries")
			}
		}
	}
	if len(wants) == 0 {
		wants = append(wants, "count >= 1")
	}
	return ok, strings.Join(wants, " and "), strings.Join(gots, ", ")
}
