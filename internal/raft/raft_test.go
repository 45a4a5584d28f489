package raft

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"
	"unsafe"

	"pfi/internal/dist"
	"pfi/internal/simtime"
)

// memCluster is the pure in-memory harness: nodes exchange Msg values
// through the scheduler with per-message delays drawn from one seeded
// source. No netsim, no encoding — just the consensus core and time.
type memCluster struct {
	sched    *simtime.Scheduler
	src      *dist.Source
	names    []string
	nodes    map[string]*Node
	maxDelay time.Duration
	drop     func(from, to string) bool // nil: deliver everything
}

func newMemCluster(t testing.TB, n int, seed int64, maxDelay time.Duration, opts ...Option) *memCluster {
	c := &memCluster{
		sched:    simtime.NewScheduler(),
		src:      dist.NewSource(seed),
		nodes:    make(map[string]*Node, n),
		maxDelay: maxDelay,
	}
	for i := 0; i < n; i++ {
		c.names = append(c.names, fmt.Sprintf("m%d", i+1))
	}
	for _, name := range c.names {
		name := name
		send := func(dst string, m *Msg) { c.deliver(name, dst, m) }
		perNode := []Option{WithRand(c.src.Split("node:" + name))}
		node, err := NewNode(c.sched, name, c.names, send, append(perNode, opts...)...)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", name, err)
		}
		c.nodes[name] = node
	}
	return c
}

// deliver queues a copy of m: the node lends it for the send only, and an
// APPEND_ENTRIES's Entries are the leader's log, which may be truncated
// while the copy is in flight.
func (c *memCluster) deliver(from, to string, lent *Msg) {
	if c.drop != nil && c.drop(from, to) {
		return
	}
	m := *lent
	m.Entries = slices.Clone(lent.Entries)
	delay := time.Millisecond
	if c.maxDelay > time.Millisecond {
		delay += time.Duration(c.src.Intn(int(c.maxDelay - time.Millisecond)))
	}
	dst := c.nodes[to]
	c.sched.After(delay, "deliver "+from+">"+to, func() { dst.Handle(&m) })
}

func (c *memCluster) startAll() {
	for _, n := range c.names {
		c.nodes[n].Start()
	}
}

func (c *memCluster) leaders() []*Node {
	var out []*Node
	for _, n := range c.names {
		if c.nodes[n].IsLeader() {
			out = append(out, c.nodes[n])
		}
	}
	return out
}

// runUntilLeader advances time until exactly one leader exists (and no
// election is in flight), failing after limit.
func (c *memCluster) runUntilLeader(t *testing.T, limit time.Duration) *Node {
	t.Helper()
	deadline := c.sched.Now().Add(limit)
	for c.sched.Now() < deadline {
		c.sched.RunFor(100 * time.Millisecond)
		if ls := c.leaders(); len(ls) == 1 {
			return ls[0]
		}
	}
	t.Fatalf("no single leader within %v", limit)
	return nil
}

func TestSingleNodeCommits(t *testing.T) {
	c := newMemCluster(t, 1, 1, 5*time.Millisecond)
	c.startAll()
	n := c.nodes["m1"]
	c.sched.RunFor(10 * time.Second)
	if !n.IsLeader() {
		t.Fatalf("singleton did not elect itself: %s", dumpState(n))
	}
	if _, ok := n.Propose("a"); !ok {
		t.Fatal("propose rejected")
	}
	c.sched.RunFor(time.Second)
	if n.Applied() != 1 {
		t.Fatalf("applied = %d, want 1", n.Applied())
	}
}

func TestElectionAndReplication(t *testing.T) {
	c := newMemCluster(t, 5, 42, 5*time.Millisecond)
	c.startAll()
	leader := c.runUntilLeader(t, 30*time.Second)
	for i := 0; i < 5; i++ {
		if _, ok := leader.Propose(fmt.Sprintf("v%d", i)); !ok {
			t.Fatalf("propose %d rejected", i)
		}
		c.sched.RunFor(200 * time.Millisecond)
	}
	c.sched.RunFor(5 * time.Second)
	for _, name := range c.names {
		n := c.nodes[name]
		if n.Applied() != 5 {
			t.Fatalf("%s applied %d/5: %s", name, n.Applied(), dumpState(n))
		}
		for idx := uint64(1); idx <= 5; idx++ {
			e, ok := n.EntryAt(idx)
			if !ok || e.Data != fmt.Sprintf("v%d", idx-1) {
				t.Fatalf("%s entry %d = %+v", name, idx, e)
			}
		}
	}
}

func TestLeaderKillFailover(t *testing.T) {
	c := newMemCluster(t, 5, 7, 5*time.Millisecond)
	c.startAll()
	old := c.runUntilLeader(t, 30*time.Second)
	old.Propose("before")
	c.sched.RunFor(2 * time.Second)
	old.Stop()
	next := c.runUntilLeader(t, 30*time.Second)
	if next == old {
		t.Fatal("stopped leader still leads")
	}
	if next.Term() <= old.Term() {
		t.Fatalf("new leader term %d not past old %d", next.Term(), old.Term())
	}
	if _, ok := next.Propose("after"); !ok {
		t.Fatal("new leader rejected proposal")
	}
	c.sched.RunFor(5 * time.Second)
	if next.Applied() != 2 {
		t.Fatalf("new leader applied %d/2", next.Applied())
	}
	// The rebooted old leader re-joins as a follower and catches up; its
	// term, vote, and log survived the crash (stable storage).
	old.Start()
	c.sched.RunFor(10 * time.Second)
	if old.IsLeader() && next.IsLeader() {
		t.Fatal("two leaders after rejoin")
	}
	if old.Applied() != 2 {
		t.Fatalf("rejoined node applied %d/2: %s", old.Applied(), dumpState(old))
	}
}

func TestRestartKeepsPersistentState(t *testing.T) {
	c := newMemCluster(t, 3, 3, 5*time.Millisecond)
	c.startAll()
	leader := c.runUntilLeader(t, 30*time.Second)
	leader.Propose("x")
	c.sched.RunFor(2 * time.Second)
	var follower *Node
	for _, name := range c.names {
		if n := c.nodes[name]; n != leader {
			follower = n
			break
		}
	}
	term, vote, last := follower.Term(), follower.votedFor, follower.LastIndex()
	if last == 0 {
		t.Fatal("follower has empty log")
	}
	follower.Stop()
	if follower.Applied() != 1 {
		// applied is volatile but survives until restart
		t.Logf("note: applied %d at stop", follower.Applied())
	}
	follower.Start()
	if follower.Term() != term || follower.votedFor != vote || follower.LastIndex() != last {
		t.Fatalf("persistent state lost: term %d->%d vote %q->%q last %d->%d",
			term, follower.Term(), vote, follower.votedFor, last, follower.LastIndex())
	}
	if follower.Commit() != 0 || follower.Applied() != 0 {
		t.Fatalf("volatile state survived restart: commit=%d applied=%d", follower.Commit(), follower.Applied())
	}
	c.sched.RunFor(5 * time.Second)
	if follower.Applied() != 1 {
		t.Fatalf("restarted follower did not re-apply: %s", dumpState(follower))
	}
}

// TestSkipVotePersistDoubleVote pins the seeded election-safety bug: with
// the bug a rebooted node grants a second vote in the same term; without
// it the persisted vote is honored.
func TestSkipVotePersistDoubleVote(t *testing.T) {
	for _, buggy := range []bool{false, true} {
		var granted []bool
		sched := simtime.NewScheduler()
		send := func(dst string, m *Msg) {
			if m.Type == TypeVoteResp {
				granted = append(granted, m.Granted)
			}
		}
		n := mustNewNode(sched, "c", []string{"a", "b", "c"}, send,
			WithBugs(Bugs{SkipVotePersist: buggy}))
		n.Start()
		n.Handle(&Msg{Type: TypeRequestVote, Term: 5, From: "a", LastIndex: 0, LastTerm: 0})
		n.Stop()
		n.Start()
		n.Handle(&Msg{Type: TypeRequestVote, Term: 5, From: "b", LastIndex: 0, LastTerm: 0})
		if len(granted) != 2 || !granted[0] {
			t.Fatalf("buggy=%v: unexpected responses %v", buggy, granted)
		}
		if granted[1] != buggy {
			t.Fatalf("buggy=%v: second vote granted=%v", buggy, granted[1])
		}
	}
}

// TestAckBeforeQuorumAppliesEarly pins the seeded commit-safety bug: the
// buggy leader applies a proposal no follower has seen.
func TestAckBeforeQuorumAppliesEarly(t *testing.T) {
	for _, buggy := range []bool{false, true} {
		c := newMemCluster(t, 3, 11, 5*time.Millisecond, WithBugs(Bugs{AckBeforeQuorum: buggy}))
		c.startAll()
		leader := c.runUntilLeader(t, 30*time.Second)
		// Cut the leader off from everyone before it proposes.
		c.drop = func(from, to string) bool { return from == leader.id || to == leader.id }
		leader.Propose("ghost")
		c.sched.RunFor(100 * time.Millisecond)
		if got := leader.Applied() == 1; got != buggy {
			t.Fatalf("buggy=%v: leader applied unreplicated entry = %v (%s)", buggy, got, dumpState(leader))
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	msgs := []*Msg{
		{Type: TypeRequestVote, Term: 7, From: "r12", LastIndex: 9, LastTerm: 6},
		{Type: TypeVoteResp, Term: 7, From: "r3", Granted: true},
		{Type: TypeVoteResp, Term: 8, From: "r3"},
		{Type: TypeAppend, Term: 9, From: "r1", PrevIndex: 4, PrevTerm: 8, Commit: 3,
			Entries: []LogEntry{{Term: 9, Data: "alpha"}, {Term: 9, Data: ""}}},
		{Type: TypeAppend, Term: 2, From: "r1000"},
		{Type: TypeAppendResp, Term: 9, From: "r7", Success: true, Match: 6},
	}
	for _, m := range msgs {
		got, err := Decode(m.Encode())
		if err != nil {
			t.Fatalf("%s: %v", m.TypeName(), err)
		}
		if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", *m) {
			t.Fatalf("roundtrip mismatch:\n in %+v\nout %+v", m, got)
		}
		// A receiver that knows the sender — as the datagram's source or
		// as a peer — decodes the same message and reuses its own string.
		src, peers := m.From, []string{"r0", m.From}
		for _, known := range []struct {
			src   string
			peers []string
			from  string
		}{{src, nil, src}, {"elsewhere", peers, peers[1]}, {"elsewhere", nil, ""}} {
			sm := m.Encode()
			got, err := decodeRaw(sm.Bytes(), known.src, known.peers)
			if err != nil || fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", *m) {
				t.Fatalf("decode knowing %q %v: %+v, %v", known.src, known.peers, got, err)
			}
			if known.from != "" && unsafe.StringData(got.From) != unsafe.StringData(known.from) {
				t.Fatalf("decode knowing %q %v allocated a copy of From", known.src, known.peers)
			}
			if err := sm.SetByte(sm.Len()-1, 0xEE); err != nil {
				t.Fatal(err)
			}
			if got.From != m.From {
				t.Fatal("decoded From aliases the frame's bytes")
			}
		}
	}
}

// A stub generates what it recognizes: every raft message type comes back
// from Generate as a validly checksummed frame of that type.
func TestStubGeneratesWhatItRecognizes(t *testing.T) {
	stub := PFIStub{}
	for typ := uint8(TypeRequestVote); typ <= TypeAppendResp; typ++ {
		name := TypeName(typ)
		m, err := stub.Generate(name, map[string]string{"from": "r1", "term": "3"})
		if err != nil {
			t.Errorf("Generate(%s): %v", name, err)
			continue
		}
		info, err := stub.Recognize(m)
		if err != nil || info.Type != name || info.Field("from") != "r1" || info.Field("term") != "3" {
			t.Errorf("Generate(%s) recognized as %q from %q term %q, err %v",
				name, info.Type, info.Field("from"), info.Field("term"), err)
		}
	}
	if _, err := stub.Generate("", nil); err == nil {
		t.Error("generated the empty type name")
	}
}

// TestMsgFieldTable pins, per message type, every field a filter script can
// read, and that a field of another message type reads empty.
func TestMsgFieldTable(t *testing.T) {
	for _, tt := range []struct {
		m    Msg
		want map[string]string
	}{
		{Msg{Type: TypeRequestVote, Term: 7, From: "r12", LastIndex: 9, LastTerm: 6}, map[string]string{
			"from": "r12", "term": "7", "last_index": "9", "last_term": "6", "granted": ""}},
		{Msg{Type: TypeVoteResp, Term: 7, From: "r3", Granted: true}, map[string]string{
			"from": "r3", "term": "7", "granted": "1", "last_index": ""}},
		{Msg{Type: TypeAppend, Term: 9, From: "r1", PrevIndex: 4, PrevTerm: 8, Commit: 3,
			Entries: []LogEntry{{Term: 9, Data: "alpha"}, {Term: 9, Data: "beta"}}}, map[string]string{
			"from": "r1", "term": "9", "prev_index": "4", "prev_term": "8", "commit": "3",
			"entries": "2", "data": "alpha,beta", "granted": ""}},
		{Msg{Type: TypeAppend, Term: 2, From: "r1000"}, map[string]string{
			"from": "r1000", "term": "2", "prev_index": "0", "entries": "0", "data": ""}},
		{Msg{Type: TypeAppendResp, Term: 9, From: "r7", Success: true, Match: 6}, map[string]string{
			"from": "r7", "term": "9", "success": "1", "match": "6", "data": ""}},
	} {
		for name, want := range tt.want {
			if got := tt.m.Field(name); got != want {
				t.Errorf("%s: Field(%q) = %q, want %q", tt.m.TypeName(), name, got, want)
			}
		}
	}
}

// TestDecodeRejectsCorruption: a frame of each message type, and an
// APPEND_ENTRIES carrying entries, fails to decode under every corruption
// of one byte — any other value, so every single-bit flip too — and under
// bursts of 2 to 4 bytes at every offset: all ones, and 64 patterns per
// length whose first and last bytes are non-zero. A raft frame's corruption
// must read as loss, and CRC-32C detects every error burst of up to 32 bits.
func TestDecodeRejectsCorruption(t *testing.T) {
	var bursts [][]byte
	x := uint32(2463534242) // xorshift32 state
	for n := 2; n <= 4; n++ {
		bursts = append(bursts, bytes.Repeat([]byte{0xff}, n))
		for k := 0; k < 64; k++ {
			b := make([]byte, n)
			for i := range b {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				b[i] = byte(x)
			}
			b[0] |= 1
			b[n-1] |= 0x80
			bursts = append(bursts, b)
		}
	}
	for _, m := range []Msg{
		{Type: TypeRequestVote, Term: 7, From: "r3", LastIndex: 12, LastTerm: 6},
		{Type: TypeVoteResp, Term: 7, From: "r3", Granted: false},
		{Type: TypeAppend, Term: 9, From: "r1", PrevIndex: 4, PrevTerm: 8, Commit: 3},
		{Type: TypeAppend, Term: 9, From: "r1", PrevIndex: 4, PrevTerm: 8, Commit: 3,
			Entries: []LogEntry{{Term: 9, Data: "alpha"}, {Term: 9, Data: "beta"}}},
		{Type: TypeAppendResp, Term: 9, From: "r7", Success: true, Match: 6},
	} {
		raw := m.Encode().CopyBytes()
		if got, err := decodeRaw(raw, "", nil); err != nil || got.Type != m.Type || len(got.Entries) != len(m.Entries) {
			t.Fatalf("%s: clean frame decoded as %+v, %v", m.TypeName(), got, err)
		}
		rejects := func(what string, off int, pattern []byte) {
			bad := append([]byte(nil), raw...)
			for i, p := range pattern {
				bad[off+i] ^= p
			}
			if _, err := decodeRaw(bad, "", nil); err == nil {
				t.Fatalf("%s (%d entries): %s at byte %d went undetected", m.TypeName(), len(m.Entries), what, off)
			}
		}
		for off := range raw {
			for v := 1; v < 256; v++ {
				rejects(fmt.Sprintf("xor %#02x", v), off, []byte{byte(v)})
			}
			for bit := 0; bit < 8; bit++ {
				rejects(fmt.Sprintf("flipped bit %d", bit), off, []byte{1 << bit})
			}
			for _, b := range bursts {
				if off+len(b) <= len(raw) {
					rejects(fmt.Sprintf("burst %x", b), off, b)
				}
			}
		}
	}
}

// TestSnapshotRestoreReplaysIdentically forks a busy cluster mid-run and
// checks the replayed suffix is byte-identical: same states, same event
// log. This is the O(delta) fuzzing contract at the node level.
func TestSnapshotRestoreReplaysIdentically(t *testing.T) {
	c := newMemCluster(t, 5, 99, 500*time.Millisecond)
	c.startAll()
	c.sched.RunFor(8 * time.Second)
	if ls := c.leaders(); len(ls) == 1 {
		ls[0].Propose("mid")
	}
	c.sched.RunFor(2 * time.Second)

	schedSt := c.sched.SnapshotState()
	srcMark := c.src.Mark()
	nodeSt := make([]any, len(c.names)) // aligned with c.names
	logMarks := make([]any, len(c.names))
	for i, n := range c.names {
		nodeSt[i] = c.nodes[n].SnapshotState()
		logMarks[i] = c.nodes[n].log.SnapshotState()
	}

	record := func() string {
		c.sched.RunFor(20 * time.Second)
		out := ""
		for _, n := range c.names {
			node := c.nodes[n]
			out += dumpState(node) + "\n"
			for _, e := range node.log.Entries() {
				out += e.String() + "\n"
			}
		}
		return out
	}
	first := record()
	c.sched.RestoreState(schedSt)
	c.src.Rewind(srcMark)
	for i, n := range c.names {
		c.nodes[n].log.RestoreState(logMarks[i])
		c.nodes[n].RestoreState(nodeSt[i])
	}
	second := record()
	if first != second {
		t.Fatalf("fork replay diverged:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
}

// mustNewNode is NewNode for test setup code.
func mustNewNode(sched *simtime.Scheduler, id string, peers []string, send SendFunc, opts ...Option) *Node {
	n, err := NewNode(sched, id, peers, send, opts...)
	if err != nil {
		panic(err)
	}
	return n
}

// dumpState renders a node's state in one line, for failure messages and
// for comparing two runs.
func dumpState(n *Node) string {
	return fmt.Sprintf("%s %s term=%d commit=%d applied=%d last=%d",
		n.id, n.state, n.term, n.commit, n.applied, n.LastIndex())
}
