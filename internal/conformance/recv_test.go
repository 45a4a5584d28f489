package conformance

import (
	"bytes"
	"testing"

	"pfi/internal/tcp"
)

// TestRecvMatchesTable: the harness compares the delivered stream with the
// sent one as it arrives. Every case replays a sequence of sends and
// deliveries and checks recv_len / sent_len / recv_matches after each step
// against the definition the commands had when every delivered byte was
// kept: same length and same bytes.
func TestRecvMatchesTable(t *testing.T) {
	type op struct {
		send    string // bytes the client queued
		deliver string // bytes the server's application read
	}
	for _, tc := range []struct {
		name string
		ops  []op
		want bool // recv_matches at the end
	}{
		{"in step", []op{{send: "abcd"}, {deliver: "ab"}, {deliver: "cd"}, {send: "ef"}, {deliver: "ef"}}, true},
		{"nothing yet", nil, true},
		{"short delivery", []op{{send: "abcdef"}, {deliver: "abcd"}}, false},
		{"byte flip mid-stream is sticky", []op{{send: "abcdef"}, {deliver: "ab"}, {deliver: "cX"}, {deliver: "ef"}}, false},
		{"flip, then more clean data", []op{{send: "abc"}, {deliver: "aXc"}, {send: "def"}, {deliver: "def"}}, false},
		{"delivered past what was sent", []op{{send: "abc"}, {deliver: "abcde"}}, false},
		{"ahead of send, then caught up", []op{{send: "ab"}, {deliver: "abcd"}, {send: "cd"}}, true},
		{"ahead across two deliveries and two sends", []op{{deliver: "ab"}, {deliver: "cdef"}, {send: "abc"}, {send: "def"}}, true},
		{"ahead, caught up with other bytes", []op{{send: "ab"}, {deliver: "abcd"}, {send: "cX"}}, false},
		{"ahead, half caught up", []op{{deliver: "abcd"}, {send: "ab"}}, false},
		{"ahead, overtaken by send", []op{{deliver: "ab"}, {send: "abcd"}}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(tcp.XKernel())
			var recv []byte // the reference: every delivered byte, kept
			check := func(step int) {
				t.Helper()
				want := bytes.Equal(recv, h.sent)
				if h.recvN != len(recv) || h.recvMatches() != want {
					t.Fatalf("after step %d: recv_len %d matches %v, reference says %d %v",
						step, h.recvN, h.recvMatches(), len(recv), want)
				}
			}
			check(0)
			for i, o := range tc.ops {
				h.sent = append(h.sent, o.send...)
				h.delivered([]byte(o.deliver))
				recv = append(recv, o.deliver...)
				check(i + 1)
			}
			if h.recvMatches() != tc.want {
				t.Fatalf("recv_matches = %v, want %v", h.recvMatches(), tc.want)
			}
		})
	}
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
