package conformance

import (
	"bytes"
	"testing"

	"pfi/internal/tcp"
)

// streamOp is one step of a sent/delivered history.
type streamOp struct {
	send    string // bytes the client queued, as a fresh slice
	again   bool   // the client queued the previous send's slice once more
	deliver string // bytes the server's application read
	echo    int    // the application read the next echo bytes exactly as sent
	save    bool   // capture the harness (a session's fork point)
	rewind  bool   // rewind to the capture
	cut     int    // rewind the sent log alone to this length (any offset in a run)
}

// streamRef drives a harness and the keep-everything definition side by
// side: every byte sent and every byte delivered, in two plain slices.
type streamRef struct {
	h          *harness
	sent, recv []byte
	last       []byte // the previous send's slice
	saved      *harnessSaved
	savedSent  int
	savedRecv  int
}

func (r *streamRef) apply(o streamOp) {
	if o.echo > 0 && len(r.recv) < len(r.sent) {
		o.deliver = string(r.sent[len(r.recv):min(len(r.recv)+o.echo, len(r.sent))])
	}
	switch {
	case o.again:
		r.h.sent.add(r.last)
		r.sent = append(r.sent, r.last...)
	case o.deliver != "":
		// OnData lends its argument: the harness must not rely on it
		// after returning.
		lent := []byte(o.deliver)
		r.h.delivered(lent)
		clear(lent)
		r.recv = append(r.recv, o.deliver...)
	case o.echo > 0: // nothing left to echo
	case o.save:
		sv := r.h.save()
		r.saved, r.savedSent, r.savedRecv = &sv, len(r.sent), len(r.recv)
	case o.rewind:
		if r.saved != nil {
			r.h.rewind(*r.saved)
			r.sent, r.recv = r.sent[:r.savedSent], r.recv[:r.savedRecv]
		}
	case o.cut > 0:
		// Not below what has been compared, not beyond what was sent.
		r.h.settle()
		n := max(min(len(r.recv), len(r.sent)), min(o.cut, len(r.sent)))
		sv := r.h.save()
		sv.sentLen = n
		r.h.rewind(sv)
		r.sent = r.sent[:n]
		if n < r.savedSent {
			r.saved = nil // the log is append-only between a capture and its rewind
		}
	default:
		r.last = []byte(o.send)
		r.h.sent.add(r.last)
		r.sent = append(r.sent, o.send...)
	}
}

// check holds sent_len / recv_len / recv_matches, and the log's content, to
// the reference.
func (r *streamRef) check(t *testing.T, step int) {
	t.Helper()
	want := bytes.Equal(r.recv, r.sent)
	if r.h.sent.len() != len(r.sent) || r.h.recvN != len(r.recv) || r.h.recvMatches() != want {
		t.Fatalf("after step %d: sent_len %d recv_len %d matches %v, reference says %d %d %v",
			step, r.h.sent.len(), r.h.recvN, r.h.recvMatches(), len(r.sent), len(r.recv), want)
	}
	if !r.h.sent.equalAt(0, r.sent) {
		t.Fatalf("after step %d: the sent log does not hold %q", step, r.sent)
	}
}

var recvMatchesCases = []struct {
	name string
	ops  []streamOp
	want bool // recv_matches at the end
}{
	{"in step", []streamOp{{send: "abcd"}, {deliver: "ab"}, {deliver: "cd"}, {send: "ef"}, {deliver: "ef"}}, true},
	{"nothing yet", nil, true},
	{"short delivery", []streamOp{{send: "abcdef"}, {deliver: "abcd"}}, false},
	{"byte flip mid-stream is sticky", []streamOp{{send: "abcdef"}, {deliver: "ab"}, {deliver: "cX"}, {deliver: "ef"}}, false},
	{"flip, then more clean data", []streamOp{{send: "abc"}, {deliver: "aXc"}, {send: "def"}, {deliver: "def"}}, false},
	{"delivered past what was sent", []streamOp{{send: "abc"}, {deliver: "abcde"}}, false},
	{"ahead of send, then caught up", []streamOp{{send: "ab"}, {deliver: "abcd"}, {send: "cd"}}, true},
	{"ahead across two deliveries and two sends", []streamOp{{deliver: "ab"}, {deliver: "cdef"}, {send: "abc"}, {send: "def"}}, true},
	{"ahead, caught up with other bytes", []streamOp{{send: "ab"}, {deliver: "abcd"}, {send: "cX"}}, false},
	{"ahead, half caught up", []streamOp{{deliver: "abcd"}, {send: "ab"}}, false},
	{"ahead, overtaken by send", []streamOp{{deliver: "ab"}, {send: "abcd"}}, false},
	// What a byte slice could not get wrong and a run log can.
	{"delivery spanning two runs", []streamOp{{send: "abc"}, {send: "defg"}, {deliver: "ab"}, {deliver: "cdef"}, {deliver: "g"}}, true},
	{"delivery spanning two runs, wrong past the seam", []streamOp{{send: "abc"}, {send: "defg"}, {deliver: "ab"}, {deliver: "cdXf"}, {deliver: "g"}}, false},
	{"delivery starting mid-pattern", []streamOp{{send: "abcd"}, {again: true}, {again: true}, {deliver: "ab"}, {deliver: "cdabc"}, {deliver: "dabcd"}}, true},
	{"mid-pattern, wrong in the second repeat", []streamOp{{send: "abcd"}, {again: true}, {deliver: "ab"}, {deliver: "cdaXcd"}}, false},
	{"same slice twice, then another of equal length", []streamOp{{send: "abcd"}, {again: true}, {send: "abXd"}, {deliver: "abcdabcdabXd"}}, true},
	{"same slice twice, the third taken for a repeat", []streamOp{{send: "abcd"}, {again: true}, {send: "abXd"}, {deliver: "abcdabcdabcd"}}, false},
	{"rewind inside a run, then different sends", []streamOp{{send: "abcd"}, {again: true}, {save: true}, {again: true}, {deliver: "abcdab"}, {rewind: true}, {send: "XY"}, {again: true}, {deliver: "abcdabcdXYXY"}}, true},
	{"cut mid-pattern, then different sends", []streamOp{{send: "abcd"}, {again: true}, {again: true}, {deliver: "abcda"}, {cut: 6}, {send: "XY"}, {again: true}, {deliver: "bXYXY"}}, true},
	{"cut mid-pattern, then the cut slice again", []streamOp{{send: "abcd"}, {again: true}, {cut: 6}, {again: true}, {deliver: "abcdababcd"}}, true},
	{"cut mid-pattern, delivery expects the old tail", []streamOp{{send: "abcd"}, {again: true}, {cut: 6}, {again: true}, {deliver: "abcdabcdab"}}, false},
	{"zero-length send", []streamOp{{send: "ab"}, {send: ""}, {again: true}, {send: "cd"}, {deliver: "abcd"}}, true},
	{"ahead copies what it was lent", []streamOp{{deliver: "abcd"}, {send: "abcd"}, {again: true}, {echo: 3}, {echo: 9}}, true},
}

// TestRecvMatchesTable: the harness compares the delivered stream with the
// sent one as it arrives. Every case replays a sequence of sends and
// deliveries and checks recv_len / sent_len / recv_matches after each step
// against the definition the commands had when every sent and delivered
// byte was kept: same length and same bytes.
func TestRecvMatchesTable(t *testing.T) {
	for _, tc := range recvMatchesCases {
		t.Run(tc.name, func(t *testing.T) {
			r := &streamRef{h: newHarness(tcp.XKernel())}
			r.check(t, 0)
			for i, o := range tc.ops {
				r.apply(o)
				r.check(t, i+1)
			}
			if r.h.recvMatches() != tc.want {
				t.Fatalf("recv_matches = %v, want %v", r.h.recvMatches(), tc.want)
			}
		})
	}
}

// Stream histories as bytes, for FuzzDeliveredStream: a kind, then for
// send/deliver a length and that many bytes, for echo/cut a count.
const (
	kindSend = iota
	kindAgain
	kindDeliver
	kindEcho
	kindSave
	kindRewind
	kindCut
	numKinds
)

func encodeOps(ops []streamOp) []byte {
	var b []byte
	for _, o := range ops {
		switch {
		case o.again:
			b = append(b, kindAgain)
		case o.deliver != "":
			b = append(append(b, kindDeliver, byte(len(o.deliver))), o.deliver...)
		case o.echo > 0:
			b = append(b, kindEcho, byte(o.echo))
		case o.save:
			b = append(b, kindSave)
		case o.rewind:
			b = append(b, kindRewind)
		case o.cut > 0:
			b = append(b, kindCut, byte(o.cut))
		default:
			b = append(append(b, kindSend, byte(len(o.send))), o.send...)
		}
	}
	return b
}

func decodeOps(b []byte) []streamOp {
	var ops []streamOp
	arg := func() int {
		if len(b) == 0 {
			return 0
		}
		n := int(b[0])
		b = b[1:]
		return n
	}
	str := func() string {
		n := min(arg()%32, len(b))
		s := string(b[:n])
		b = b[n:]
		return s
	}
	for len(b) > 0 {
		switch kind := arg() % numKinds; kind {
		case kindSend:
			ops = append(ops, streamOp{send: str()})
		case kindAgain:
			ops = append(ops, streamOp{again: true})
		case kindDeliver:
			if s := str(); s != "" {
				ops = append(ops, streamOp{deliver: s})
			}
		case kindEcho:
			ops = append(ops, streamOp{echo: arg()})
		case kindSave:
			ops = append(ops, streamOp{save: true})
		case kindRewind:
			ops = append(ops, streamOp{rewind: true})
		case kindCut:
			ops = append(ops, streamOp{cut: arg()})
		}
	}
	return ops
}

// FuzzDeliveredStream: any history of sends, repeats, deliveries, captures
// and rewinds leaves the run log and the delivered-stream comparison equal
// to the keep-everything reference after every step. Seeded with the table.
func FuzzDeliveredStream(f *testing.F) {
	for _, tc := range recvMatchesCases {
		f.Add(encodeOps(tc.ops))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r := &streamRef{h: newHarness(tcp.XKernel())}
		ops := decodeOps(b)
		if len(ops) > 100 {
			ops = ops[:100] // the reference check is quadratic in the history
		}
		for i, o := range ops {
			r.apply(o)
			r.check(t, i+1)
		}
	})
}

// TestSessionRewindsAcrossMismatch: the comparison state is part of what a
// session fork rewinds. The prefix ends in step; one fork corrupts the
// stream in flight (and so builds a filter engine the capture did not have),
// the next sends clean data and must not inherit the mismatch, the script
// or the bytes — each fork equals its fresh replay, in either order.
func TestSessionRewindsAcrossMismatch(t *testing.T) {
	const probe = "log probe tcp state [tcp_state] sent [sent_len] recv [recv_len] match [recv_matches]\n"
	prefix := "world tcp {SunOS 4.1.3}\ntcp_dial\ntcp_stream 2 250\nrun 1000\n" +
		"assert {[recv_matches]} \"prefix ends in step\"\n"
	corrupt := "faultload vendor send {\n" +
		"if {[msg_type cur_msg] eq \"DATA\" && [msg_len cur_msg] > 20} {\n" +
		"	msg_set_byte cur_msg 20 [expr {[msg_byte cur_msg 20] ^ 0xFF}]\n" +
		"}\n}\n" +
		"tcp_stream 1 250\nrun 2000\n" + probe +
		"assert {[recv_len] == [sent_len]} \"every byte was delivered\"\n" +
		"assert {![recv_matches]} \"the flipped byte was delivered\"\n"
	clean := "tcp_stream 1 250\nrun 2000\n" + probe +
		"assert {[recv_matches]} \"a clean fork after a corrupted one\"\n"

	sess, err := NewSession(prefix, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, suffix := range []string{clean, corrupt, clean, corrupt} {
		fresh := Run(New("rewind", prefix+suffix), Options{})
		if !fresh.OK() {
			t.Fatalf("suffix %d: fresh run did not pass: %v %+v", i, fresh.Err, fresh.Verdicts)
		}
		forked, ok := sess.Run("rewind", suffix)
		if !ok {
			t.Fatalf("suffix %d: session declined a clean candidate", i)
		}
		diffResults(t, "rewind", fresh, forked)
	}
}
