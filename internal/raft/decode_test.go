package raft

import (
	"fmt"
	"slices"
	"testing"

	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/stack"
)

// decodeRaw decodes raw into a zero Msg.
func decodeRaw(raw []byte, src string, peers []string) (Msg, error) {
	var m Msg
	err := m.decode(raw, src, peers)
	return m, err
}

// dirtyMsg is a Msg left over from an earlier frame: every field set, and
// Entries with spare capacity holding stale data.
func dirtyMsg() *Msg {
	ents := make([]LogEntry, 3, 8)
	for i := range ents {
		ents[i] = LogEntry{Term: 99, Data: "stale"}
	}
	return &Msg{Type: TypeAppend, Term: 99, From: "stale", LastIndex: 99, LastTerm: 99, Granted: true,
		PrevIndex: 99, PrevTerm: 99, Commit: 99, Entries: ents, Success: true, Match: 99}
}

// sameDecode reports how two decodes differ, field by field, Entries by
// content (an empty and a nil Entries are the same), and error by text.
func sameDecode(a Msg, aErr error, b Msg, bErr error) string {
	if fmt.Sprint(aErr) != fmt.Sprint(bErr) {
		return fmt.Sprintf("errors %v and %v", aErr, bErr)
	}
	if !slices.Equal(a.Entries, b.Entries) {
		return fmt.Sprintf("entries %v and %v", a.Entries, b.Entries)
	}
	a.Entries, b.Entries = nil, nil
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		return fmt.Sprintf("fields %+v and %+v", a, b)
	}
	return ""
}

// FuzzRaftDecodeInPlace: decoding a frame into a Msg that held an earlier
// frame — its Entries storage reused — gives the same fields, entries and
// error text as decoding it into a zero Msg, whatever the bytes.
func FuzzRaftDecodeInPlace(f *testing.F) {
	for _, m := range []*Msg{
		{Type: TypeRequestVote, Term: 7, From: "r3", LastIndex: 12, LastTerm: 6},
		{Type: TypeVoteResp, Term: 7, From: "r3", Granted: true},
		{Type: TypeAppend, Term: 9, From: "r1", PrevIndex: 4, PrevTerm: 8, Commit: 3},
		{Type: TypeAppend, Term: 9, From: "r1", PrevIndex: 4, PrevTerm: 8, Commit: 3,
			Entries: []LogEntry{{Term: 9, Data: "alpha"}, {Term: 9, Data: ""}}},
		{Type: TypeAppendResp, Term: 9, From: "r7", Success: true, Match: 6},
	} {
		f.Add(m.Encode().CopyBytes(), "r1")
	}
	f.Add([]byte{0, 0, 0, 0, 1}, "")
	f.Fuzz(func(t *testing.T, raw []byte, src string) {
		peers := []string{"r1", "r2", "r3"}
		want, wantErr := decodeRaw(raw, src, peers)
		got := dirtyMsg()
		err := got.decode(raw, src, peers)
		if diff := sameDecode(*got, err, want, wantErr); diff != "" {
			t.Fatalf("decoding over a dirty Msg differs from a zero one: %s", diff)
		}
		// Twice over the same storage: the first decode's entries are the
		// second's stale ones.
		err = got.decode(raw, src, peers)
		if diff := sameDecode(*got, err, want, wantErr); diff != "" {
			t.Fatalf("decoding the same frame twice in place: %s", diff)
		}
	})
}

// TestHandleUpReentryKeepsTheOuterMsg: a frame that reaches the layer while
// a handler is still running — a filter below answering the handler's send
// with a frame injected up — is decoded apart, and the message the outer
// handler reads is the one it was handed.
func TestHandleUpReentryKeepsTheOuterMsg(t *testing.T) {
	w := netsim.NewWorld(1)
	node, err := w.AddNode("r1")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLayer(node.Env(), []string{"r1", "r2", "r3"})
	if err != nil {
		t.Fatal(err)
	}
	forged := (&Msg{Type: TypeAppendResp, Term: 1, From: "r3", Success: true, Match: 0}).Encode()
	var outer Msg
	injected := 0
	answer := stack.NewFunc("answer", func(m *message.Message, next stack.Sink) error {
		// Inject only from inside the outer handler, and only once.
		if l.depth == 1 && injected == 0 {
			injected++
			outer = l.in
			if err := l.HandleUp(forged); err != nil {
				return err
			}
			if diff := sameDecode(l.in, nil, outer, nil); diff != "" {
				t.Errorf("the re-entrant frame overwrote the outer handler's message: %s", diff)
			}
		}
		return next(m)
	}, nil)
	node.SetStack(stack.New(node.Env(), l, answer))
	l.Node().Start()

	// A candidate's vote request: r1 answers it with a VOTE_RESP, and the
	// filter below answers that send with the forged APPEND_RESP.
	vote := (&Msg{Type: TypeRequestVote, Term: 1, From: "r2", LastIndex: 0, LastTerm: 0}).Encode()
	vote.SetSrc("r2")
	if err := l.HandleUp(vote); err != nil {
		t.Fatal(err)
	}
	if injected != 1 || outer.Type != TypeRequestVote || outer.From != "r2" {
		t.Fatalf("the outer handler's message was %+v (%d injected), want r2's REQUEST_VOTE", outer, injected)
	}
	if l.depth != 0 {
		t.Fatalf("depth %d after the handlers returned", l.depth)
	}
}

// TestVotesCountByTheSenderTheyName: a candidate tallies a VOTE_RESP by the
// peer position its layer learned at decode, which it learns only when the
// network's source number names the peer From names. A vote whose From is
// outside the cluster counts for nothing, whatever number it arrived with;
// a vote whose number names another peer counts for the one From names.
func TestVotesCountByTheSenderTheyName(t *testing.T) {
	w := netsim.NewWorld(1)
	peers := []string{"r1", "r2", "r3", "r4", "r5"}
	var l *Layer
	for _, name := range peers {
		node := w.MustAddNode(name)
		if name != "r1" {
			continue
		}
		var err error
		if l, err = NewLayer(node.Env(), peers); err != nil {
			t.Fatal(err)
		}
		node.SetStack(stack.New(node.Env(), l))
	}
	n := l.Node()
	n.Start()
	n.startElection()
	vote := func(from string, no uint16) {
		t.Helper()
		m := (&Msg{Type: TypeVoteResp, Term: n.Term(), From: from, Granted: true}).Encode()
		m.SetSrc(from)
		m.SetSrcNo(no)
		if err := l.HandleUp(m); err != nil {
			t.Fatal(err)
		}
	}
	vote("r9", 2) // a stranger arriving as r2
	vote("r9", 0)
	if !slices.Equal(n.votes, []bool{true, false, false, false, false}) {
		t.Fatalf("after a stranger's votes: %v", n.votes)
	}
	vote("r4", 3) // From names r4, the number r3
	if !slices.Equal(n.votes, []bool{true, false, false, true, false}) || n.State() != StateCandidate {
		t.Fatalf("after r4's vote arriving as r3: %v, %v", n.votes, n.State())
	}
	vote("r3", 3)
	if n.State() != StateLeader {
		t.Fatalf("three of five votes left the node %v", n.State())
	}
}
