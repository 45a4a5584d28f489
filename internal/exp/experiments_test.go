package exp_test

import (
	"testing"
	"time"

	"pfi/internal/conformance"
	"pfi/internal/simtime"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// The paper's claims, one test each. Every experiment is a shipped
// conformance scenario whose expect and assert lines state what the paper
// observed; a test replays the scenario, in the variant its claim is about,
// and fails on any verdict that did not hold. The exact numbers of every
// table are pinned by the rendered-table goldens (golden_test.go).

// replay runs the shipped scenario name under prof, its variant picked by
// prelude, and fails t unless it ran and every verdict held.
func replay(t *testing.T, name, prelude string, prof tcp.Profile) *conformance.Result {
	t.Helper()
	r, err := conformance.RunShipped(name, prelude, prof)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r.Failed() {
		t.Errorf("%s (%q, %s): %s", name, prelude, r.World, v)
	}
	return r
}

// --- Table 1: TCP retransmission intervals -----------------------------------

// SunOS, AIX, and NeXT: 12 retransmissions, exponential backoff to a 64 s
// upper bound, RST sent, connection closed.
func TestTable1BSDProfiles(t *testing.T) {
	for _, prof := range []tcp.Profile{tcp.SunOS413(), tcp.AIX323(), tcp.NeXTMach()} {
		t.Run(prof.Name, func(t *testing.T) { replay(t, "tcp_retransmission", "", prof) })
	}
}

// Solaris: 9 retransmissions from a ~330 ms floor, abrupt close with no RST,
// no stabilized upper bound.
func TestTable1Solaris(t *testing.T) { replay(t, "tcp_retransmission", "", tcp.Solaris23()) }

// --- Table 2 / Figure 4: delayed ACKs ----------------------------------------

// The adapted RTO exceeds the ACK delay — the stack learned the network got
// slower — and the backoff still ramps to the 64 s bound.
func TestTable2JacobsonStacksAdapt(t *testing.T) {
	for _, delay := range []string{"3000", "8000"} {
		replay(t, "tcp_delayed_ack", "set delay "+delay+"\n", tcp.SunOS413())
	}
}

// Solaris's RTO stays below the ACK delay ("not nearly as adaptable"), and
// its 9-timeout budget closes the connection after 6-9 retransmissions
// (the paper: "most runs had seven, one had nine").
func TestTable2SolarisDoesNotAdapt(t *testing.T) {
	for _, delay := range []string{"3000", "8000"} {
		replay(t, "tcp_delayed_ack", "set delay "+delay+"\n", tcp.Solaris23())
	}
}

// Figure 4 plots RTO value per retransmission for no delay, 3 s, and 8 s.
// Shape: each series is nondecreasing, and a longer ACK delay starts the
// series higher for the adapting stacks.
func TestFigure4Series(t *testing.T) {
	var first []time.Duration
	for _, delay := range []string{"0", "3000", "8000"} {
		r := replay(t, "tcp_delayed_ack", "set delay "+delay+"\n", tcp.SunOS413())
		t0 := r.ProbeAt("t0")
		var rtx []simtime.Time
		for _, ts := range r.Times("vendor", "retransmit", "") {
			if ts >= t0 {
				rtx = append(rtx, ts)
			}
		}
		gaps := trace.Intervals(rtx)
		if len(gaps) < 3 {
			t.Fatalf("delay %s: only %d gaps", delay, len(gaps))
		}
		for j := 1; j < len(gaps); j++ {
			if gaps[j] < gaps[j-1] {
				t.Errorf("delay %s: RTO series decreased at %d: %v", delay, j, gaps)
				break
			}
		}
		first = append(first, rtx[0].Sub(t0))
	}
	if !(first[0] < first[1] && first[1] < first[2]) {
		t.Errorf("first RTOs %v not increasing with ACK delay", first)
	}
}

// The decisive experiment: on Solaris, m1's six retransmissions use up most
// of the nine-timeout budget, leaving m2 only three; a per-segment (BSD)
// counter gives m2 a full retry budget of 12.
func TestGlobalCounterProbe(t *testing.T) {
	replay(t, "tcp_global_counter", "", tcp.Solaris23())
	replay(t, "tcp_global_counter", "", tcp.SunOS413())
}

// --- Table 3: keep-alive -------------------------------------------------------

// SunOS and AIX: first probe at ~7200 s, nine probes, then RST and close;
// only SunOS's probe carries a garbage byte.
func TestTable3BSDKeepAliveDropped(t *testing.T) {
	replay(t, "tcp_keepalive", "", tcp.SunOS413())
	r := replay(t, "tcp_keepalive", "", tcp.AIX323())
	if gaps := trace.Intervals(r.Times("vendor", "keepalive", "")); len(gaps) == 0 || gaps[0] != 75*time.Second {
		t.Errorf("AIX probe gaps %v, want a fixed 75 s", gaps)
	}
}

// Solaris violates the spec: its first probe comes at 6752 s, before the
// 7200 s minimum; its eight probes back off exponentially, and it closes
// without a reset.
func TestTable3SolarisKeepAlive(t *testing.T) {
	r := replay(t, "tcp_keepalive", "", tcp.Solaris23())
	gaps := trace.Intervals(r.Times("vendor", "keepalive", ""))
	for i := 1; i < len(gaps); i++ {
		if gaps[i] < gaps[i-1]*3/2 {
			t.Fatalf("probe gaps %v, want exponential backoff", gaps)
		}
	}
}

// Answered keep-alives continue indefinitely, one idle period apart: over
// 112 hours, ~60 probes at 6752 s on Solaris and ~56 at 7200 s on SunOS.
func TestTable3AnsweredProbesContinue(t *testing.T) {
	for _, prof := range []tcp.Profile{tcp.Solaris23(), tcp.SunOS413()} {
		replay(t, "tcp_keepalive", "set answered 1\n", prof)
	}
}

// --- Table 4: zero-window probes -------------------------------------------------

// Answered probes settle at SunOS's 60 s and Solaris's 56 s.
func TestTable4ProbeIntervals(t *testing.T) {
	for prof, want := range map[string]time.Duration{"sunos": 60 * time.Second, "solaris": 56 * time.Second} {
		p, _ := tcp.ProfileByName(prof)
		r := replay(t, "tcp_zero_window", "set window acked\n", p)
		if gaps := trace.Intervals(r.Times("vendor", "zwp", "")); len(gaps) == 0 || gaps[len(gaps)-1] != want {
			t.Errorf("%s: probe gaps end %v, want %v", prof, gaps[max(len(gaps)-3, 0):], want)
		}
	}
}

func TestTable4UnansweredProbesNeverGiveUp(t *testing.T) {
	replay(t, "tcp_zero_window", "", tcp.AIX323())
}

// "Two days later, when the ethernet was reconnected, the probes were still
// being sent": thousands of them, at 60 s intervals.
func TestTable4TwoDayUnplug(t *testing.T) {
	r := replay(t, "tcp_zero_window", "set window unplugged\n", tcp.SunOS413())
	if n := len(r.Times("vendor", "zwp", "")); n < 2000 {
		t.Errorf("probes = %d, want thousands over two days", n)
	}
}

// --- Experiment 5: reordering ----------------------------------------------------

// "The result was the same for [all four]": the out-of-order segment was
// queued, and both were acked when the gap filled.
func TestReorderAllVendorsQueue(t *testing.T) {
	for _, prof := range tcp.Profiles() {
		t.Run(prof.Name, func(t *testing.T) { replay(t, "tcp_reorder", "", prof) })
	}
}

// --- Table 5: packet interruption ----------------------------------------------

// The historical daemon that stops hearing itself announces its own death,
// stays (marked down) in the group, and keeps broadcasting bad information.
func TestTable5DropAllHeartbeatsBuggy(t *testing.T) {
	replay(t, "gmp_heartbeat_blackout", "set bugs self-death\n", tcp.Profile{})
}

// The fix the paper prescribes: code for the special case in which the
// machine that has "died" is the local machine — form a singleton.
func TestTable5DropAllHeartbeatsFixed(t *testing.T) {
	replay(t, "gmp_heartbeat_blackout", "", tcp.Profile{})
}

// "Identical behavior was observed when a gmd was suspended for 30 seconds."
func TestTable5SuspendResume(t *testing.T) {
	replay(t, "gmp_suspend", "set bugs self-death\n", tcp.Profile{})
	replay(t, "gmp_suspend", "", tcp.Profile{})
}

// "The machine which was dropping outgoing heartbeats kept getting kicked
// out of the group ... re-admitted, only to be kicked out again."
func TestTable5DropOutboundHeartbeats(t *testing.T) {
	replay(t, "gmp_outbound_heartbeats", "", tcp.Profile{})
}

// "The machine dropping the ACKs was never admitted to a group."
func TestTable5DropMembershipACKs(t *testing.T) {
	replay(t, "gmp_drop_acks", "", tcp.Profile{})
}

// "The machine which drops the COMMIT packet stayed IN_TRANSITION. Everyone
// else committed it into their view, but since it did not send heartbeats,
// it got kicked out."
func TestTable5DropCommits(t *testing.T) {
	replay(t, "gmp_drop_commits", "", tcp.Profile{})
}

// --- Table 6: network partitions --------------------------------------------------

func TestTable6PartitionCycles(t *testing.T) {
	replay(t, "gmp_partition_heal", "set cycles 2\n", tcp.Profile{})
}

func TestTable6LeaderCrownPrinceSeparation(t *testing.T) {
	replay(t, "gmp_crown_prince", "", tcp.Profile{})
}

// --- Table 7: proclaim forwarding ---------------------------------------------------

func TestTable7ProclaimLoopBuggy(t *testing.T) {
	replay(t, "gmp_proclaim", "set bugs proclaim-forward\n", tcp.Profile{})
}

// "The code was fixed so that the group leader always responds to the
// proclaim originator."
func TestTable7ProclaimFixed(t *testing.T) {
	replay(t, "gmp_proclaim", "", tcp.Profile{})
}

// --- Table 8: timer test -------------------------------------------------------------

func TestTable8TimerBuggy(t *testing.T) {
	replay(t, "gmp_timer", "set bugs timer-unset\n", tcp.Profile{})
}

func TestTable8TimerFixed(t *testing.T) {
	replay(t, "gmp_timer", "", tcp.Profile{})
}
