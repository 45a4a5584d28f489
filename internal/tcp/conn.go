package tcp

import (
	"fmt"
	"time"

	"pfi/internal/simtime"
)

// State is a TCP connection state (RFC-793 §3.2).
type State int

// Connection states.
const (
	StateClosed State = iota + 1
	StateListen
	StateSynSent
	StateSynRcvd
	StateEstablished
	StateFinWait1
	StateFinWait2
	StateCloseWait
	StateClosing
	StateLastAck
	StateTimeWait
)

var stateNames = map[State]string{
	StateClosed:      "CLOSED",
	StateListen:      "LISTEN",
	StateSynSent:     "SYN-SENT",
	StateSynRcvd:     "SYN-RCVD",
	StateEstablished: "ESTABLISHED",
	StateFinWait1:    "FIN-WAIT-1",
	StateFinWait2:    "FIN-WAIT-2",
	StateCloseWait:   "CLOSE-WAIT",
	StateClosing:     "CLOSING",
	StateLastAck:     "LAST-ACK",
	StateTimeWait:    "TIME-WAIT",
}

// String implements fmt.Stringer.
func (s State) String() string {
	if n, ok := stateNames[s]; ok {
		return n
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// timeWaitDur is 2*MSL for the TIME-WAIT hold.
const timeWaitDur = 60 * time.Second

// sentSeg is one transmitted, not-yet-acknowledged segment. It holds the
// segment itself: a retransmission refreshes seg's ACK and window in place.
type sentSeg struct {
	seg         Segment
	end         uint32 // Seq + SeqSpace
	firstSentAt simtime.Time
	retransmits int
}

// Conn is one TCP connection endpoint. All methods must be called from the
// simulation's event loop (single-threaded by design).
type Conn struct {
	layer *Layer
	prof  Profile
	est   *rtoEstimator

	state      State
	localPort  uint16
	remoteNode string
	remotePort uint16

	// Send sequence space (RFC-793 names).
	iss    uint32
	sndUna uint32
	sndNxt uint32
	sndWnd int

	// sendQ[sendHead:] is the data accepted from the app and not yet
	// segmented — unsent bytes in all — as the slices Send was handed. They
	// are immutable (Send's contract), so pump hands out sub-slices of them
	// as segment payloads and snapshots share them.
	sendQ    [][]byte
	sendHead int
	unsent   int
	// unacked holds the segments in flight by value, oldest first; an ACK
	// moves the rest down, so one array serves the whole stream.
	unacked []sentSeg

	rtxTimer simtime.Timer
	// rtxCount counts consecutive timeouts of the oldest segment (the BSD
	// per-segment retry counter).
	rtxCount int
	// globalErr is the Solaris per-connection fault counter: incremented on
	// every timeout, cleared only by a "clean" ACK (one that newly
	// acknowledges at least one never-retransmitted segment).
	globalErr int
	// backoff is the current retransmission backoff exponent; per Karn's
	// algorithm it persists across segments until a valid RTT sample.
	backoff int

	// Round-trip timing (one segment at a time; Karn's rule).
	timingValid  bool
	timedEnd     uint32
	timedAt      simtime.Time
	timedRetrans bool

	// Receive sequence space.
	irs         uint32
	rcvNxt      uint32
	recvQ       []byte            // accepted, not yet consumed by the app
	oooQ        map[uint32][]byte // out-of-order segments keyed by seq
	oooFree     [][]byte          // drained oooQ buffers, for the next gap
	autoConsume bool

	// Keep-alive.
	keepAlive bool
	kaTimer   simtime.Timer
	kaProbing bool
	kaRetrans int

	// Zero-window probing.
	zwpTimer simtime.Timer
	zwpCount int
	zwpEver  bool

	// Delayed acknowledgment (RFC-1122 SHOULD).
	delackTimer   simtime.Timer
	delackPending int

	timeWaitTimer simtime.Timer

	// Callbacks (any may be nil).
	onData  func(data []byte)
	onClose func(reason string)
}

// newConn builds a connection in the given initial state.
func (l *Layer) newConn(state State, localPort uint16, remoteNode string, remotePort uint16) *Conn {
	c := &Conn{
		layer:       l,
		prof:        l.prof,
		est:         newRTOEstimator(l.prof),
		state:       state,
		localPort:   localPort,
		remoteNode:  remoteNode,
		remotePort:  remotePort,
		oooQ:        make(map[uint32][]byte),
		autoConsume: true,
	}
	c.rtxTimer.Init(l.env.Sched, c.onRtxTimeout)
	c.kaTimer.Init(l.env.Sched, c.onKeepAliveTimer)
	c.zwpTimer.Init(l.env.Sched, c.onZWPTimer)
	c.delackTimer.Init(l.env.Sched, c.onDelackTimeout)
	c.timeWaitTimer.Init(l.env.Sched, func() { c.finish("connection closed") })
	c.iss = l.nextISS()
	c.sndUna = c.iss
	c.sndNxt = c.iss
	c.sndWnd = MSS // conservative until the peer advertises
	return c
}

// --- public API -----------------------------------------------------------

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// UnackedSegments reports in-flight segments awaiting acknowledgment.
func (c *Conn) UnackedSegments() int { return len(c.unacked) }

// OnData registers the inbound-data callback. With auto-consume enabled
// (the default) it fires as data arrives in order. data is lent for the
// duration of the call — it aliases the arriving message, which the wire
// reuses once the hop is over, or a buffer of the out-of-order queue, which
// the next gap reuses — so fn copies what it keeps and does not write to it.
func (c *Conn) OnData(fn func(data []byte)) { c.onData = fn }

// OnClose registers the teardown callback with a human-readable reason.
func (c *Conn) OnClose(fn func(reason string)) { c.onClose = fn }

// SetKeepAlive turns keep-alive probing on or off (off per spec default).
func (c *Conn) SetKeepAlive(on bool) {
	c.keepAlive = on
	if on {
		c.armKeepAliveIdle()
	} else {
		c.kaTimer.Stop()
		c.kaProbing = false
	}
}

// SetAutoConsume controls receive-buffer draining. Disabling it emulates
// the paper's zero-window experiment setup, where the driver "did not
// reset the receive buffer space": accepted data accumulates until the
// advertised window reaches zero.
func (c *Conn) SetAutoConsume(on bool) { c.autoConsume = on }

// recvWindow is the space the connection advertises.
func (c *Conn) recvWindow() int {
	w := RecvBuf - len(c.recvQ)
	if w < 0 {
		return 0
	}
	if w > 0xFFFF {
		return 0xFFFF
	}
	return w
}

// Send queues application data for transmission. It keeps data itself, not
// a copy: the caller must not modify data afterwards, and may send the same
// slice again.
func (c *Conn) Send(data []byte) error {
	switch c.state {
	case StateEstablished, StateCloseWait, StateSynSent, StateSynRcvd:
	default:
		return fmt.Errorf("tcp: send in state %v", c.state)
	}
	// pump consumes chunks by advancing sendHead, so the queue keeps its
	// capacity. The consumed front is reclaimed once it is at least as long
	// as the backlog: each entry then moves at most once more, however many
	// Sends a stalled window queues up behind it.
	if backlog := len(c.sendQ) - c.sendHead; c.sendHead >= backlog {
		copy(c.sendQ, c.sendQ[c.sendHead:])
		clear(c.sendQ[backlog:])
		c.sendQ, c.sendHead = c.sendQ[:backlog], 0
	}
	if len(data) > 0 {
		c.sendQ = append(c.sendQ, data)
		c.unsent += len(data)
	}
	c.pump()
	return nil
}

// take removes the next n unsent bytes from the queue. Within one chunk
// that is a sub-slice of it; a segment that spans chunks (Sends smaller
// than the MSS) is gathered into a buffer of its own.
func (c *Conn) take(n int) []byte {
	c.unsent -= n
	if head := c.sendQ[c.sendHead]; len(head) >= n {
		c.advance(n)
		return head[:n:n]
	}
	p := make([]byte, 0, n)
	for len(p) < n {
		head := c.sendQ[c.sendHead]
		k := min(n-len(p), len(head))
		p = append(p, head[:k]...)
		c.advance(k)
	}
	return p
}

// advance drops the first k bytes of the head chunk, and the chunk with its
// last byte.
func (c *Conn) advance(k int) {
	head := &c.sendQ[c.sendHead]
	if *head = (*head)[k:]; len(*head) == 0 {
		*head = nil
		c.sendHead++
	}
}

// Close initiates an orderly shutdown (FIN).
func (c *Conn) Close() error {
	switch c.state {
	case StateEstablished:
		c.state = StateFinWait1
	case StateCloseWait:
		c.state = StateLastAck
	case StateSynSent, StateSynRcvd:
		c.drop("closed before establishment", false)
		return nil
	case StateClosed:
		return nil
	default:
		return fmt.Errorf("tcp: close in state %v", c.state)
	}
	c.sendControl(FlagFIN|FlagACK, true)
	return nil
}

// --- plumbing ---------------------------------------------------------------

func (c *Conn) sched() *simtime.Scheduler { return c.layer.env.Sched }

func (c *Conn) now() simtime.Time { return c.sched().Now() }

// transmit encodes and ships a segment toward the peer. Segments travel by
// value, and trackSent keeps them by value for retransmission.
func (c *Conn) transmit(seg Segment) {
	c.layer.transmit(c.remoteNode, seg)
}

func (c *Conn) baseSegment(flags uint8) Segment {
	return Segment{
		SrcPort: c.localPort,
		DstPort: c.remotePort,
		Seq:     c.sndNxt,
		Ack:     c.rcvNxt,
		Flags:   flags,
		Window:  uint16(c.recvWindow()),
	}
}

// sendControl transmits a flags-only segment that occupies sequence space
// (SYN/FIN); if track, it joins the retransmission queue.
func (c *Conn) sendControl(flags uint8, track bool) {
	seg := c.baseSegment(flags)
	space := seg.SeqSpace()
	c.sndNxt += space
	if track && space > 0 {
		c.trackSent(seg)
	}
	c.transmit(seg)
}

// sendACK transmits a bare acknowledgment (does not occupy seq space and
// is never retransmitted — which is why zero-window probing must exist).
// Any withheld delayed ACK is satisfied by it.
func (c *Conn) sendACK() {
	c.delackPending = 0
	c.delackTimer.Stop()
	c.transmit(c.baseSegment(FlagACK))
}

// ackInOrderData acknowledges freshly accepted in-order data, withholding
// the ACK per the delayed-ACK policy: at most one ACK per two segments, and
// never delayed past DelackTimeout.
func (c *Conn) ackInOrderData() {
	c.delackPending++
	if c.delackPending >= 2 {
		c.sendACK()
		return
	}
	if !c.delackTimer.Pending() {
		c.delackTimer.Arm(DelackTimeout, "tcp-delack")
	}
}

func (c *Conn) onDelackTimeout() {
	if c.state == StateEstablished || c.state == StateCloseWait {
		c.sendACK()
	}
}

func (c *Conn) trackSent(seg Segment) {
	end := seg.Seq + seg.SeqSpace()
	c.unacked = append(c.unacked, sentSeg{seg: seg, end: end, firstSentAt: c.now()})
	if !c.timingValid {
		c.timingValid = true
		c.timedEnd = end
		c.timedAt = c.now()
		c.timedRetrans = false
	}
	c.armRtx()
}

// pump transmits queued data within the send window.
func (c *Conn) pump() {
	if c.state != StateEstablished && c.state != StateCloseWait {
		return
	}
	for c.unsent > 0 {
		inFlight := int(c.sndNxt - c.sndUna)
		room := c.sndWnd - inFlight
		if room <= 0 {
			if c.sndWnd == 0 {
				c.startZWP()
			}
			return
		}
		n := MSS
		if n > room {
			n = room
		}
		if n > c.unsent {
			n = c.unsent
		}
		seg := c.baseSegment(FlagACK | FlagPSH)
		seg.Payload = c.take(n)
		c.sndNxt += uint32(n)
		c.trackSent(seg)
		c.transmit(seg)
	}
}

// --- retransmission -----------------------------------------------------------

func (c *Conn) armRtx() {
	d := c.est.backedOff(c.backoff)
	if c.rtxTimer.Pending() {
		return // timer already running for the oldest segment
	}
	c.rtxTimer.Arm(d, "tcp-rtx")
}

func (c *Conn) rearmRtx() {
	c.rtxTimer.Stop()
	if len(c.unacked) == 0 {
		return
	}
	c.rtxTimer.Arm(c.est.backedOff(c.backoff), "tcp-rtx")
}

func (c *Conn) onRtxTimeout() {
	if len(c.unacked) == 0 || c.state == StateClosed {
		return
	}
	// Give up?
	if c.prof.GlobalErrorCounter {
		if c.globalErr >= c.prof.MaxRetransmits {
			c.drop("retransmission limit (global error counter)", c.prof.ResetOnTimeout)
			return
		}
	} else if c.rtxCount >= c.prof.MaxRetransmits {
		c.drop("retransmission limit", c.prof.ResetOnTimeout)
		return
	}
	oldest := &c.unacked[0]
	oldest.retransmits++
	c.rtxCount++
	c.globalErr++
	c.backoff++
	if c.timingValid && seqLEQ(c.timedEnd, oldest.end) {
		// Karn: the timed segment was retransmitted; its sample is
		// ambiguous and must be discarded.
		c.timedRetrans = true
	}
	// Refresh ack/window fields on the retransmission.
	oldest.seg.Ack = c.rcvNxt
	oldest.seg.Window = uint16(c.recvWindow())
	c.layer.logEvent(c, "retransmit", &oldest.seg)
	c.transmit(oldest.seg)
	c.rtxTimer.Arm(c.est.backedOff(c.backoff), "tcp-rtx")
}

// --- segment arrival ------------------------------------------------------------

// handleSegment is the connection's input function.
func (c *Conn) handleSegment(seg *Segment) {
	if c.state == StateClosed {
		return
	}
	if seg.Has(FlagRST) {
		if c.state == StateSynSent && (!seg.Has(FlagACK) || seg.Ack != c.iss+1) {
			return // RST not for our SYN
		}
		c.drop("connection reset by peer", false)
		return
	}

	switch c.state {
	case StateSynSent:
		c.handleSynSent(seg)
		return
	case StateSynRcvd:
		if seg.Has(FlagACK) && seg.Ack == c.iss+1 {
			c.establish(seg)
			// Fall through to normal processing for any piggybacked data.
		} else if seg.Has(FlagSYN) {
			// Duplicate SYN: repeat the SYN-ACK.
			c.retransmitHandshake()
			return
		} else {
			return
		}
	case StateListen, StateClosed:
		return
	}

	// ESTABLISHED and later states.
	if seg.Has(FlagACK) {
		c.processAck(seg)
		if c.state == StateClosed {
			return
		}
	}
	if seg.Len() > 0 || seg.Has(FlagFIN) {
		c.processPayload(seg)
	} else if seg.Len() == 0 && seqLess(seg.Seq, c.rcvNxt) {
		// An old (below-window) empty segment — a keep-alive probe with no
		// data, or a retransmitted SYN-ACK whose handshake ACK was lost —
		// must elicit an ACK.
		c.sendACK()
	}
	// Any traffic from the peer proves liveness: keep-alive goes back to
	// the idle phase.
	c.keepAliveActivity()
}

func (c *Conn) handleSynSent(seg *Segment) {
	if !seg.Has(FlagSYN) {
		return
	}
	if seg.Has(FlagACK) && seg.Ack != c.iss+1 {
		return // bogus
	}
	c.irs = seg.Seq
	c.rcvNxt = seg.Seq + 1
	if seg.Has(FlagACK) {
		c.ackHandshake(seg.Ack)
		c.state = StateEstablished
		c.sndWnd = int(seg.Window)
		c.sendACK()
		c.layer.logEvent(c, "established", seg)
		c.pump()
		if c.keepAlive {
			c.armKeepAliveIdle()
		}
		return
	}
	// Simultaneous open: SYN without ACK.
	c.state = StateSynRcvd
	c.sendControl(FlagSYN|FlagACK, false)
}

// ackHandshake consumes the SYN's sequence slot from the rtx queue.
func (c *Conn) ackHandshake(ack uint32) {
	c.sndUna = ack
	c.dropAcked(ack)
	c.rtxCount = 0
	c.backoff = 0
	c.rearmRtx()
}

func (c *Conn) establish(seg *Segment) {
	c.state = StateEstablished
	c.sndWnd = int(seg.Window)
	c.ackHandshake(seg.Ack)
	c.layer.logEvent(c, "established", seg)
	if c.layer.acceptFns[c.localPort] != nil {
		c.layer.acceptFns[c.localPort](c)
	}
	c.pump()
	if c.keepAlive {
		c.armKeepAliveIdle()
	}
}

func (c *Conn) retransmitHandshake() {
	seg := c.baseSegment(FlagSYN | FlagACK)
	seg.Seq = c.iss
	c.transmit(seg)
}

// dropAcked removes fully acknowledged segments, returning how many were
// removed and whether any removed segment was never retransmitted.
func (c *Conn) dropAcked(ack uint32) (removed int, anyClean bool) {
	i := 0
	for i < len(c.unacked) && seqLEQ(c.unacked[i].end, ack) {
		if c.unacked[i].retransmits == 0 {
			anyClean = true
		}
		i++
	}
	if i > 0 {
		n := copy(c.unacked, c.unacked[i:])
		clear(c.unacked[n:]) // the payloads go with their segments
		c.unacked = c.unacked[:n]
	}
	return i, anyClean
}

func (c *Conn) processAck(seg *Segment) {
	if seqLess(c.sndUna, seg.Ack) && seqLEQ(seg.Ack, c.sndNxt) {
		// New data acknowledged. (FIN status must be read before the acked
		// segments — including the FIN — leave the queue.)
		ackedFin := c.finOutstanding() && seg.Ack == c.sndNxt
		removed, anyClean := c.dropAcked(seg.Ack)
		c.sndUna = seg.Ack

		// Round-trip sampling.
		if c.timingValid && seqLEQ(c.timedEnd, seg.Ack) {
			rtt := time.Duration(c.now().Sub(c.timedAt))
			if c.prof.UseJacobson {
				if !c.timedRetrans { // Karn's rule
					c.est.sample(rtt)
					c.backoff = 0
				}
			} else {
				// Solaris-style crude sampling: no Karn exclusion, no
				// smoothing (see rtoEstimator).
				c.est.sampleCrude(rtt)
				c.backoff = 0
			}
			c.timingValid = false
		}

		// Retry accounting.
		c.rtxCount = 0
		if !c.prof.UseJacobson {
			c.backoff = 0
		}
		if anyClean {
			c.globalErr = 0
		}
		_ = removed
		c.rearmRtx()

		if ackedFin {
			c.finAcked()
		}
	}
	c.sndWnd = int(seg.Window)
	if c.sndWnd > 0 {
		c.stopZWP()
		c.pump()
	} else if c.unsent > 0 || c.zwpEver {
		c.startZWP()
	}
}

func (c *Conn) finOutstanding() bool {
	for i := range c.unacked {
		if c.unacked[i].seg.Has(FlagFIN) {
			return true
		}
	}
	return false
}

func (c *Conn) finAcked() {
	switch c.state {
	case StateFinWait1:
		c.state = StateFinWait2
	case StateClosing:
		c.enterTimeWait()
	case StateLastAck:
		c.finish("connection closed")
	}
}

func (c *Conn) processPayload(seg *Segment) {
	switch {
	case seg.Seq == c.rcvNxt:
		c.acceptInOrder(seg)
	case seqLess(c.rcvNxt, seg.Seq):
		// Future segment: queue it (RFC-1122 says a TCP SHOULD queue
		// out-of-order segments; all four vendor stacks did) and ACK to
		// show the gap.
		if len(c.oooQ) < 64 && seg.Len() > 0 {
			var buf []byte // a drained buffer, if there is one
			if n := len(c.oooFree); n > 0 {
				buf, c.oooFree = c.oooFree[n-1], c.oooFree[:n-1]
			}
			c.oooQ[seg.Seq] = append(buf, seg.Payload...)
		}
		c.sendACK()
	default:
		// Old or duplicate data (retransmission overlap, keep-alive with
		// garbage byte): already received, re-ACK it.
		c.sendACK()
	}
}

func (c *Conn) acceptInOrder(seg *Segment) {
	data := seg.Payload
	space := RecvBuf - len(c.recvQ)
	if len(data) > space {
		data = data[:space] // receiver trims what it has no room for
	}
	if len(data) > 0 {
		c.rcvNxt += uint32(len(data))
		if !c.autoConsume {
			c.recvQ = append(c.recvQ, data...)
		}
		if c.onData != nil {
			c.onData(data) // lent: data is the arriving message's bytes
		}
	}
	// Drain any queued out-of-order segments that are now in order. Each
	// buffer goes back for the next gap, which cannot open before the
	// OnData below has returned: segments arrive as scheduler events.
	for {
		next, ok := c.oooQ[c.rcvNxt]
		if !ok {
			break
		}
		delete(c.oooQ, c.rcvNxt)
		c.oooFree = append(c.oooFree, next[:0])
		space := RecvBuf - len(c.recvQ)
		if len(next) > space {
			next = next[:space]
		}
		if len(next) == 0 {
			break
		}
		c.rcvNxt += uint32(len(next))
		if !c.autoConsume {
			c.recvQ = append(c.recvQ, next...)
		}
		if c.onData != nil {
			c.onData(next)
		}
	}
	if seg.Has(FlagFIN) && seg.Seq+uint32(seg.Len()) == c.rcvNxt {
		c.rcvNxt++
		c.handleFIN()
		c.sendACK() // FIN is acknowledged immediately
		return
	}
	c.ackInOrderData()
}

func (c *Conn) handleFIN() {
	switch c.state {
	case StateEstablished:
		c.state = StateCloseWait
	case StateFinWait1:
		// Our FIN not yet acked: simultaneous close.
		c.state = StateClosing
	case StateFinWait2:
		c.enterTimeWait()
	}
}

func (c *Conn) enterTimeWait() {
	c.state = StateTimeWait
	c.cancelTimers()
	c.timeWaitTimer.Arm(timeWaitDur, "tcp-timewait")
}

// --- keep-alive -------------------------------------------------------------------

func (c *Conn) armKeepAliveIdle() {
	if !c.keepAlive || c.state != StateEstablished {
		return
	}
	c.kaProbing = false
	c.kaRetrans = 0
	c.kaTimer.Arm(c.prof.KeepAliveIdle, "tcp-keepalive-idle")
}

func (c *Conn) keepAliveActivity() {
	if c.keepAlive && c.state == StateEstablished {
		c.armKeepAliveIdle()
	}
}

func (c *Conn) onKeepAliveTimer() {
	if !c.keepAlive || c.state != StateEstablished {
		return
	}
	if c.kaProbing {
		c.kaRetrans++
		if c.kaRetrans > c.prof.KeepAliveProbes {
			c.drop("keep-alive timeout", c.prof.ResetOnKeepAliveFail)
			return
		}
	} else {
		c.kaProbing = true
		c.kaRetrans = 0
	}
	c.sendKeepAliveProbe()
	interval := c.prof.KeepAliveInterval
	if c.prof.KeepAliveBackoff {
		for i := 0; i < c.kaRetrans; i++ {
			interval *= 2
			if interval > c.prof.RTOMax {
				interval = c.prof.RTOMax
				break
			}
		}
	}
	c.kaTimer.Arm(interval, "tcp-keepalive-probe")
}

// sendKeepAliveProbe emits the probe in the profile's format:
// SEG.SEQ = SND.NXT-1, with one byte of garbage data on SunOS.
func (c *Conn) sendKeepAliveProbe() {
	seg := c.baseSegment(FlagACK)
	seg.Seq = c.sndNxt - 1
	if c.prof.KeepAliveGarbage {
		seg.Payload = []byte{0}
	}
	c.layer.logEvent(c, "keepalive", &seg)
	c.transmit(seg)
}

// --- zero-window probing -----------------------------------------------------------

func (c *Conn) startZWP() {
	if c.zwpTimer.Pending() {
		return
	}
	c.zwpEver = true
	c.zwpCount = 0
	c.zwpTimer.Arm(c.zwpInterval(), "tcp-zwp")
}

func (c *Conn) stopZWP() {
	c.zwpTimer.Stop()
	c.zwpEver = false
	c.zwpCount = 0
}

func (c *Conn) zwpInterval() time.Duration {
	d := c.est.rto()
	for i := 0; i < c.zwpCount; i++ {
		d *= 2
		if d >= c.prof.ZWPMax {
			return c.prof.ZWPMax
		}
	}
	if d > c.prof.ZWPMax {
		return c.prof.ZWPMax
	}
	return d
}

// onZWPTimer sends a window probe. Probing continues indefinitely whether
// or not the probes are acknowledged — the behaviour the paper confirmed
// with the two-day unplugged-Ethernet test on all four stacks.
func (c *Conn) onZWPTimer() {
	if c.state != StateEstablished || c.sndWnd > 0 {
		return
	}
	if c.unsent == 0 && len(c.unacked) == 0 {
		return
	}
	seg := c.baseSegment(FlagACK)
	if c.unsent > 0 {
		seg.Payload = []byte{c.sendQ[c.sendHead][0]} // probe carries one byte past the window
	}
	c.layer.logEvent(c, "zwp", &seg)
	c.transmit(seg)
	c.zwpCount++
	c.zwpTimer.Arm(c.zwpInterval(), "tcp-zwp")
}

// --- teardown ----------------------------------------------------------------------

func (c *Conn) cancelTimers() {
	for _, t := range [...]*simtime.Timer{&c.rtxTimer, &c.kaTimer, &c.zwpTimer, &c.timeWaitTimer, &c.delackTimer} {
		t.Stop()
	}
}

// drop terminates abnormally, optionally notifying the peer with a RST.
func (c *Conn) drop(reason string, sendRST bool) {
	if c.state == StateClosed {
		return
	}
	if sendRST {
		seg := c.baseSegment(FlagRST | FlagACK)
		c.layer.logEvent(c, "reset", &seg)
		c.transmit(seg)
	}
	c.finish(reason)
}

// finish moves to CLOSED and releases resources.
func (c *Conn) finish(reason string) {
	if c.state == StateClosed {
		return
	}
	c.cancelTimers()
	c.state = StateClosed
	c.layer.forget(c)
	c.layer.logEventNote(c, "closed", reason)
	if c.onClose != nil {
		c.onClose(reason)
	}
}
