package exp

import (
	"fmt"
	"time"

	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// dropAllAfterScript is the paper's Experiment 1 receive filter: allow
// thirty packets through, then drop (and log) every incoming packet.
const dropAllAfterScript = `
	if {![info exists count]} { set count 0 }
	incr count
	if {$count > 30} {
		msg_log cur_msg "dropped"
		xDrop cur_msg
	}
`

// RetransmissionResult is one row of Table 1.
type RetransmissionResult struct {
	Vendor          string
	Retransmissions int
	FirstGap        time.Duration   // gap from last transmission to first retransmit
	Gaps            []time.Duration // successive retransmission gaps
	Exponential     bool
	PlateauReached  bool
	Plateau         time.Duration
	ResetSent       bool
	ConnClosed      bool
	CloseReason     string
}

// RunTCPRetransmission reproduces Experiment 1 (Table 1): after thirty
// packets, the x-Kernel receive filter drops everything; the vendor stack's
// retransmission schedule and teardown behaviour are recorded.
func RunTCPRetransmission(prof tcp.Profile) (RetransmissionResult, error) {
	res := RetransmissionResult{Vendor: prof.Name}
	r, err := NewTCPRig(prof)
	if err != nil {
		return res, err
	}
	c, err := r.Dial(nil)
	if err != nil {
		return res, err
	}
	if err := r.XK.PFI.SetReceiveScript(dropAllAfterScript); err != nil {
		return res, err
	}
	c.OnClose(func(reason string) {
		res.ConnClosed = true
		res.CloseReason = reason
	})
	// 30 warm-up segments pass the filter; the 31st enters the blackout.
	if err := r.StreamSegments(c, 31, time.Second); err != nil {
		return res, err
	}
	r.W.RunFor(30 * time.Minute)

	rtx := r.Log.Times("vendor", "retransmit", "DATA")
	res.Retransmissions = len(rtx)
	report := trace.AnalyzeBackoff(rtx, 0.25)
	res.FirstGap = report.First
	res.Gaps = report.Gaps
	res.Exponential = report.Exponential
	res.PlateauReached = report.PlateauReached
	res.Plateau = report.Plateau
	res.ResetSent = len(r.Log.Filter("vendor", "reset", "")) > 0
	return res, nil
}

// DelayedACKResult is one row of Table 2 plus one Figure 4 series.
type DelayedACKResult struct {
	Vendor          string
	ACKDelay        time.Duration
	FirstRTO        time.Duration   // gap before the first post-blackout retransmission
	Gaps            []time.Duration // Figure 4 series: successive RTO values
	Retransmissions int
	PlateauReached  bool
	Plateau         time.Duration
	ConnClosed      bool
}

// RunTCPDelayedACK reproduces Experiment 2 (Table 2, Figure 4): the
// x-Kernel send filter delays thirty ACKs by delay, then the receive filter
// black-holes everything; the vendor's adapted RTO is observed. delay = 0
// regenerates the no-delay series of Figure 4.
func RunTCPDelayedACK(prof tcp.Profile, delay time.Duration) (DelayedACKResult, error) {
	res := DelayedACKResult{Vendor: prof.Name, ACKDelay: delay}
	r, err := NewTCPRig(prof)
	if err != nil {
		return res, err
	}
	c, err := r.Dial(nil)
	if err != nil {
		return res, err
	}
	// Send filter: delay every outgoing ACK by the configured amount.
	if err := r.XK.PFI.SetSendScript(fmt.Sprintf(`
		if {[msg_type cur_msg] eq "ACK"} {
			xDelay cur_msg %d
		}
	`, delay.Milliseconds())); err != nil {
		return res, err
	}
	if err := r.XK.PFI.SetReceiveScript(`
		if {[info exists blackout] && $blackout} {
			msg_log cur_msg "dropped"
			xDrop cur_msg
		}
	`); err != nil {
		return res, err
	}
	c.OnClose(func(string) { res.ConnClosed = true })

	// Stream ~30 segments continuously: the window keeps several in
	// flight, which is the pattern the paper's delayed-ACK traffic had.
	if err := c.Send(make([]byte, 30*tcp.MSS)); err != nil {
		return res, err
	}
	// Drain: run until every warm-up segment is acknowledged (the delayed
	// ACKs keep trickling in; nothing is dropped yet).
	for i := 0; i < 600 && c.UnackedSegments() > 0 && c.State() == tcp.StateEstablished; i++ {
		r.W.RunFor(time.Second)
	}
	if c.State() != tcp.StateEstablished {
		return res, fmt.Errorf("exp: connection died during the delayed-ACK warm-up")
	}
	// The driver now instructs the receive filter to begin the blackout —
	// the paper's "driver and PFI layers communicate during the test".
	r.XK.PFI.ReceiveFilter().Interp().SetGlobal("blackout", "1")

	// The measured segment: sent exactly at blackout, never acknowledged.
	blackoutStart := r.W.Now()
	if err := c.Send(make([]byte, tcp.MSS)); err != nil {
		return res, err
	}
	r.W.RunFor(90 * time.Minute)

	// Analyze only post-blackout retransmissions of the final segment.
	var rtx []trace.Entry
	for _, e := range r.Log.Filter("vendor", "retransmit", "DATA") {
		if e.At >= blackoutStart {
			rtx = append(rtx, e)
		}
	}
	report := trace.AnalyzeBackoff(entryTimes(rtx), 0.25)
	res.Retransmissions = len(rtx)
	res.FirstRTO = report.First
	res.Gaps = report.Gaps
	res.PlateauReached = report.PlateauReached
	res.Plateau = report.Plateau
	// The first gap is measured from the last original transmission; when
	// the blackout begins mid-flight the first retransmission gap is the
	// adapted RTO.
	if len(rtx) > 0 {
		res.FirstRTO = time.Duration(rtx[0].At.Sub(blackoutStart))
	}
	return res, nil
}

// GlobalCounterResult captures the Solaris global-error-counter probe.
type GlobalCounterResult struct {
	Vendor       string
	M1Retransmit int // retransmissions of m1 before its 35 s delayed ACK
	M2Transmit   int // retransmissions of m2 before the connection dropped
	ConnClosed   bool
}

// RunTCPGlobalCounter reproduces the Experiment 2 variation that exposed
// Solaris's per-connection fault counter: after thirty clean packets, m1's
// ACK is delayed 35 s and everything after m1 is dropped. On Solaris, m1's
// six retransmissions plus m2's three exhaust the nine-timeout budget; a
// per-segment (BSD) counter instead allows m2 its full retry allowance.
func RunTCPGlobalCounter(prof tcp.Profile) (GlobalCounterResult, error) {
	res := GlobalCounterResult{Vendor: prof.Name}
	r, err := NewTCPRig(prof)
	if err != nil {
		return res, err
	}
	c, err := r.Dial(nil)
	if err != nil {
		return res, err
	}
	// Receive filter: pass 30 packets, pass the 31st (m1) exactly once,
	// drop everything afterwards.
	if err := r.XK.PFI.SetReceiveScript(`
		if {![info exists count]} { set count 0 }
		incr count
		if {$count > 31} {
			msg_log cur_msg "dropped"
			xDrop cur_msg
		}
	`); err != nil {
		return res, err
	}
	// Send filter: delay the ACK of m1 (the 31st data packet) by 35 s.
	if err := r.XK.PFI.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK"} {
			if {![info exists acks]} { set acks 0 }
			incr acks
			if {$acks == 31} { xDelay cur_msg 35000 }
		}
	`); err != nil {
		return res, err
	}
	c.OnClose(func(string) { res.ConnClosed = true })

	if err := r.StreamSegments(c, 30, time.Second); err != nil {
		return res, err
	}
	// m1: its ACK takes ~35 s; count its retransmissions in that window.
	m1Start := r.W.Now()
	if err := r.StreamSegments(c, 1, 0); err != nil {
		return res, err
	}
	r.W.RunFor(36 * time.Second)
	for _, e := range r.Log.Filter("vendor", "retransmit", "DATA") {
		if e.At >= m1Start {
			res.M1Retransmit++
		}
	}
	// m2: dropped at the receiver; count retransmissions until close.
	m2Start := r.W.Now()
	if err := r.StreamSegments(c, 1, 0); err != nil {
		return res, err
	}
	r.W.RunFor(time.Hour)
	for _, e := range r.Log.Filter("vendor", "retransmit", "DATA") {
		if e.At >= m2Start {
			res.M2Transmit++
		}
	}
	return res, nil
}

// KeepAliveResult is one row of Table 3.
type KeepAliveResult struct {
	Vendor         string
	ProbesDropped  bool
	FirstProbeAt   time.Duration
	ProbeCount     int
	Gaps           []time.Duration
	FixedInterval  bool // probes spaced at a fixed retry interval (BSD 75 s)
	Backoff        bool // probes backed off exponentially (Solaris)
	ResetSent      bool
	ConnClosed     bool
	GarbageByte    bool          // probe carries one byte of garbage data (SunOS)
	SteadyInterval time.Duration // probe spacing when answered
}

// RunTCPKeepAlive reproduces Experiment 3 (Table 3). With dropProbes the
// x-Kernel filter black-holes the probes (connection eventually dropped);
// without, the probes are answered and the experiment measures the
// steady-state probing interval over runFor.
func RunTCPKeepAlive(prof tcp.Profile, dropProbes bool, runFor time.Duration) (KeepAliveResult, error) {
	res := KeepAliveResult{Vendor: prof.Name, ProbesDropped: dropProbes}
	r, err := NewTCPRig(prof)
	if err != nil {
		return res, err
	}
	c, err := r.Dial(nil)
	if err != nil {
		return res, err
	}
	c.SetKeepAlive(true)
	c.OnClose(func(string) { res.ConnClosed = true })
	if dropProbes {
		if err := r.XK.PFI.SetReceiveScript(`
			msg_log cur_msg "dropped"
			xDrop cur_msg
		`); err != nil {
			return res, err
		}
	}
	if runFor <= 0 {
		runFor = 4 * 3600 * time.Second
	}
	r.W.RunFor(runFor)

	kas := r.Log.Filter("vendor", "keepalive", "")
	res.ProbeCount = len(kas)
	if len(kas) > 0 {
		res.FirstProbeAt = time.Duration(kas[0].At)
		res.GarbageByte = containsField(kas[0].Note, "len=1")
	}
	res.Gaps = trace.Intervals(entryTimes(kas))
	if len(res.Gaps) > 1 {
		fixed := true
		backoff := true
		for i, g := range res.Gaps {
			if g != res.Gaps[0] {
				fixed = false
			}
			if i > 0 && g < res.Gaps[i-1]*3/2 {
				backoff = false
			}
		}
		res.FixedInterval = fixed
		res.Backoff = backoff
	}
	if !dropProbes && len(res.Gaps) > 0 {
		res.SteadyInterval = res.Gaps[len(res.Gaps)-1]
	}
	res.ResetSent = len(r.Log.Filter("vendor", "reset", "")) > 0
	return res, nil
}

// ZeroWindowVariant selects the Experiment 4 variation.
type ZeroWindowVariant int

const (
	// ZWAcked: probes are answered; measure the probing interval.
	ZWAcked ZeroWindowVariant = iota + 1
	// ZWDropped: probes are black-holed for 90 minutes.
	ZWDropped
	// ZWUnplugged: the Ethernet is unplugged for two days, then replugged.
	ZWUnplugged
)

// ZeroWindowResult is one row of Table 4.
type ZeroWindowResult struct {
	Vendor         string
	Variant        ZeroWindowVariant
	ProbeCount     int
	SteadyInterval time.Duration
	StillProbing   bool // probes continue at the end of the observation
	ConnOpen       bool
}

// RunTCPZeroWindow reproduces Experiment 4 (Table 4): the x-Kernel driver
// never frees its receive buffer, closing the window; the vendor stack's
// zero-window probing is observed under three conditions.
func RunTCPZeroWindow(prof tcp.Profile, variant ZeroWindowVariant) (ZeroWindowResult, error) {
	res := ZeroWindowResult{Vendor: prof.Name, Variant: variant}
	r, err := NewTCPRig(prof)
	if err != nil {
		return res, err
	}
	var server *tcp.Conn
	c, err := r.Dial(func(sc *tcp.Conn) {
		server = sc
		sc.SetAutoConsume(false) // the driver "did not reset the receive buffer space"
	})
	if err != nil {
		return res, err
	}
	if server == nil {
		return res, fmt.Errorf("exp: no server connection")
	}
	// Overfill the receiver's 4096-byte buffer.
	if err := c.Send(make([]byte, 6*1024)); err != nil {
		return res, err
	}
	r.W.RunFor(5 * time.Minute) // window closes, probing reaches steady state

	switch variant {
	case ZWAcked:
		r.W.RunFor(90 * time.Minute)
	case ZWDropped:
		if err := r.XK.PFI.SetReceiveScript(`xDrop cur_msg`); err != nil {
			return res, err
		}
		r.W.RunFor(90 * time.Minute)
	case ZWUnplugged:
		r.XK.Node.Unplug()
		r.W.RunFor(48 * 3600 * time.Second)
		r.XK.Node.Replug()
		r.W.RunFor(10 * time.Minute)
	default:
		return res, fmt.Errorf("exp: unknown zero-window variant %d", variant)
	}

	zwps := r.Log.Filter("vendor", "zwp", "")
	res.ProbeCount = len(zwps)
	gaps := trace.Intervals(entryTimes(zwps))
	if len(gaps) > 0 {
		res.SteadyInterval = gaps[len(gaps)-1]
	}
	if len(zwps) > 0 {
		last := time.Duration(r.W.Now().Sub(zwps[len(zwps)-1].At))
		res.StillProbing = last <= 2*prof.ZWPMax
	}
	res.ConnOpen = c.State() == tcp.StateEstablished
	return res, nil
}

// ReorderResult captures Experiment 5.
type ReorderResult struct {
	Vendor         string
	SecondQueued   bool // the out-of-order segment was queued, not dropped
	BothDelivered  bool
	DeliveredOrder bool // payload arrived in sequence order
}

// RunTCPReorder reproduces Experiment 5: the send filter delays the first
// of two segments by three seconds (so the second arrives first) and drops
// all retransmissions; a queueing receiver acks both once the gap fills.
func RunTCPReorder(prof tcp.Profile) (ReorderResult, error) {
	res := ReorderResult{Vendor: prof.Name}
	r, err := NewTCPRig(prof)
	if err != nil {
		return res, err
	}
	var received []byte
	c, err := r.Dial(func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { received = append(received, d...) })
	})
	if err != nil {
		return res, err
	}
	if err := r.Vendor.PFI.SetSendScript(`
		if {[msg_type cur_msg] eq "DATA"} {
			set seq [msg_field cur_msg seq]
			if {[info exists seen_$seq]} {
				xDrop cur_msg
			} else {
				set seen_$seq 1
				if {![info exists delayed]} {
					set delayed 1
					xDelay cur_msg 3000
				}
			}
		}
	`); err != nil {
		return res, err
	}
	mss := tcp.MSS
	payload := make([]byte, 2*mss)
	for i := range payload {
		if i < mss {
			payload[i] = 'A'
		} else {
			payload[i] = 'B'
		}
	}
	if err := c.Send(payload); err != nil {
		return res, err
	}
	// Before the delayed first segment lands, nothing may be delivered —
	// the second segment sits in the receiver's out-of-order queue.
	r.W.RunFor(2 * time.Second)
	res.SecondQueued = len(received) == 0
	r.W.RunFor(time.Minute)
	res.BothDelivered = len(received) == len(payload)
	res.DeliveredOrder = res.BothDelivered && received[0] == 'A' && received[len(received)-1] == 'B'
	return res, nil
}

func containsField(note, want string) bool {
	for i := 0; i+len(want) <= len(note); i++ {
		if note[i:i+len(want)] == want {
			return true
		}
	}
	return false
}
