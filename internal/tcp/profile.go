package tcp

import (
	"fmt"
	"strings"
	"time"
)

// Profile captures the externally visible behavioural parameters that
// distinguished the four vendor TCP implementations in the paper's
// experiments. The BSD-derived stacks (SunOS 4.1.3, AIX 3.2.3, NeXT Mach)
// share one shape; Solaris 2.3 (SysV-derived) is the outlier in every
// experiment.
type Profile struct {
	// Name labels the profile in traces and tables.
	Name string

	// --- retransmission (Experiments 1 & 2) ---

	// RTOMin floors the retransmission timeout. BSD used 1 s; Solaris used
	// ~330 ms (the paper measured an average of 330 ms over 30 runs).
	RTOMin time.Duration
	// RTOMax caps the exponential backoff — the 64 s upper bound the BSD
	// stacks stabilized at.
	RTOMax time.Duration
	// MaxRetransmits drops the connection after this many retransmissions
	// of one segment (BSD: 12) or, with GlobalErrorCounter, this many
	// timeouts in total (Solaris: 9).
	MaxRetransmits int
	// GlobalErrorCounter selects Solaris's per-connection fault counter:
	// every retransmission timeout increments it, and it is only cleared
	// by an ACK that arrives for a segment that was never retransmitted.
	// BSD resets its per-segment counter whenever the segment is acked.
	GlobalErrorCounter bool
	// UseJacobson selects Jacobson RTT estimation with Karn sampling. The
	// paper concluded Solaris 2.3 "either did not use Jacobson's algorithm
	// or did not select RTT measurements in the same way".
	UseJacobson bool
	// ResetOnTimeout sends a RST when the connection is dropped after
	// retransmission exhaustion (BSD yes, Solaris no).
	ResetOnTimeout bool

	// --- keep-alive (Experiment 3) ---

	// KeepAliveIdle is the idle threshold before the first probe: 7200 s
	// per spec; Solaris violated it with 6752 s.
	KeepAliveIdle time.Duration
	// KeepAliveInterval spaces unanswered probes: BSD fixed 75 s.
	KeepAliveInterval time.Duration
	// KeepAliveBackoff makes unanswered probes back off exponentially from
	// KeepAliveInterval (Solaris) instead of the fixed BSD spacing.
	KeepAliveBackoff bool
	// KeepAliveProbes is the number of unanswered retransmitted probes
	// before the connection is dropped (BSD 8, Solaris 7).
	KeepAliveProbes int
	// KeepAliveGarbage includes one byte of garbage data in the probe for
	// compatibility with older TCPs (SunOS yes; AIX and NeXT no).
	KeepAliveGarbage bool
	// ResetOnKeepAliveFail sends a RST when keep-alive gives up (BSD did;
	// Solaris closed silently).
	ResetOnKeepAliveFail bool

	// --- zero-window probing (Experiment 4) ---

	// ZWPMax caps the zero-window probe interval: 60 s BSD, 56 s Solaris
	// (the same ~0.938 clock-skew ratio as the keep-alive threshold:
	// 56/60 ≈ 6752/7200).
	ZWPMax time.Duration

	// --- general ---

	// InitialRTO seeds the timeout before any RTT measurement exists.
	InitialRTO time.Duration
}

// The parameters every profile shares. Every connection uses RFC-1122
// §4.2.3.2 delayed acknowledgments: a bare ACK for in-order data may be
// withheld up to DelackTimeout or until a second segment arrives. The
// BSD-derived stacks used them; the paper's Experiment 1 cites "the
// receiving TCP was using delayed ACKs" as one reason senders transmit the
// next segment promptly.
const (
	// DelackTimeout bounds how long an ACK may be withheld.
	DelackTimeout = 200 * time.Millisecond
	// MSS is the maximum segment payload.
	MSS = 512
	// RecvBuf is the receive buffer (advertised window) in bytes.
	RecvBuf = 4096
)

// bsdBase is the common shape of the three BSD-derived implementations.
func bsdBase(name string, keepAliveGarbage bool) Profile {
	return Profile{
		Name:                 name,
		RTOMin:               time.Second,
		RTOMax:               64 * time.Second,
		MaxRetransmits:       12,
		UseJacobson:          true,
		ResetOnTimeout:       true,
		KeepAliveIdle:        7200 * time.Second,
		KeepAliveInterval:    75 * time.Second,
		KeepAliveProbes:      8,
		KeepAliveGarbage:     keepAliveGarbage,
		ResetOnKeepAliveFail: true,
		ZWPMax:               60 * time.Second,
		InitialRTO:           1500 * time.Millisecond,
	}
}

// SunOS413 is the native TCP of SunOS 4.1.3. Its keep-alive probe carries
// one byte of garbage data (SEG.SEQ = SND.NXT-1 plus 1 byte).
func SunOS413() Profile { return bsdBase("SunOS 4.1.3", true) }

// AIX323 is the native TCP of AIX 3.2.3 — BSD-derived, keep-alive probe
// with zero data bytes.
func AIX323() Profile { return bsdBase("AIX 3.2.3", false) }

// NeXTMach is the native TCP of NeXT Mach (Mach 2.5 based) — behaviourally
// identical to AIX 3.2.3 in every experiment.
func NeXTMach() Profile { return bsdBase("NeXT Mach", false) }

// Solaris23 is the native TCP of Solaris 2.3, the SysV-derived outlier:
// ~330 ms retransmission floor, no Jacobson adaptation, a global error
// counter that drops the connection after 9 timeouts total, no RST on
// timeout, a keep-alive threshold of 6752 s (a spec violation: the
// standard requires >= 7200 s), exponential keep-alive probe backoff, and
// a 56 s zero-window probe interval. The 6752/7200 == 56/60 ratio suggests
// a mis-calibrated clock tick, as the paper's footnote 3 observes.
func Solaris23() Profile {
	return Profile{
		Name:   "Solaris 2.3",
		RTOMin: 330 * time.Millisecond,
		// The paper never established a retransmission upper bound for
		// Solaris — every connection closed (9-timeout budget) before the
		// backoff could stabilize. The cap is modelled beyond the reach of
		// nine doublings from the floor so the same is true here.
		RTOMax:               1200 * time.Second,
		MaxRetransmits:       9,
		GlobalErrorCounter:   true,
		UseJacobson:          false,
		ResetOnTimeout:       false,
		KeepAliveIdle:        6752 * time.Second,
		KeepAliveInterval:    time.Second,
		KeepAliveBackoff:     true,
		KeepAliveProbes:      7,
		KeepAliveGarbage:     false,
		ResetOnKeepAliveFail: false,
		ZWPMax:               56 * time.Second,
		InitialRTO:           330 * time.Millisecond,
	}
}

// XKernel is the paper's own x-Kernel TCP — the instrumented endpoint the
// vendor machines talked to. Standard BSD-shaped parameters.
func XKernel() Profile { return bsdBase("x-Kernel", false) }

// Profiles returns the four vendor profiles in the paper's order.
func Profiles() []Profile {
	return []Profile{SunOS413(), AIX323(), NeXTMach(), Solaris23()}
}

// ProfileByName resolves a profile by name with forgiving matching: case
// and non-alphanumerics are ignored, and an unambiguous prefix suffices
// ("solaris", "sunos", "aix"). The empty name resolves to SunOS 4.1.3,
// the runner default everywhere. The CLIs and the fleet wire protocol
// both resolve through here, so a profile name travels between processes
// without drift.
func ProfileByName(name string) (Profile, error) {
	canon := func(s string) string {
		s = strings.ToLower(s)
		return strings.Map(func(r rune) rune {
			if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' {
				return r
			}
			return -1
		}, s)
	}
	want := canon(name)
	all := append(Profiles(), XKernel())
	for _, p := range all {
		if pc := canon(p.Name); pc == want || strings.HasPrefix(pc, want) {
			return p, nil
		}
	}
	names := make([]string, len(all))
	for i, p := range all {
		names[i] = p.Name
	}
	return Profile{}, fmt.Errorf("tcp: unknown profile %q (have %s)", name, strings.Join(names, ", "))
}
