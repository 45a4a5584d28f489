package tcp_test

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/stack"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// endpoint is one machine: a TCP layer with a PFI layer spliced below it,
// attached to a netsim node.
type endpoint struct {
	node *netsim.Node
	tcp  *tcp.Layer
	pfi  *core.Layer
	log  *trace.Log
}

// pair is the standard two-machine rig (like the paper's vendor machine
// talking to the x-Kernel machine).
type pair struct {
	w    *netsim.World
	a, b *endpoint
}

// newEndpoint builds a node whose stack is TCP over PFI, with any taps
// between the two.
func newEndpoint(t *testing.T, w *netsim.World, name string, prof tcp.Profile, taps ...stack.Layer) *endpoint {
	t.Helper()
	node := w.MustAddNode(name)
	log := trace.NewLog()
	tl := tcp.NewLayer(node.Env(), prof, tcp.WithTrace(log))
	pl := core.NewLayer(node.Env(), core.WithStub(tcp.PFIStub{}), core.WithTrace(log))
	node.SetStack(stack.New(node.Env(), append(append([]stack.Layer{tl}, taps...), pl)...))
	return &endpoint{node: node, tcp: tl, pfi: pl, log: log}
}

func newPair(t *testing.T, profA, profB tcp.Profile, tapsB ...stack.Layer) *pair {
	t.Helper()
	w := netsim.NewWorld(7)
	p := &pair{w: w}
	p.a = newEndpoint(t, w, "a", profA)
	p.b = newEndpoint(t, w, "b", profB, tapsB...)
	if err := w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return p
}

// dial opens a connection from a to b:port and runs until established.
func (p *pair) dial(t *testing.T, port uint16, accept func(*tcp.Conn)) *tcp.Conn {
	t.Helper()
	if accept == nil {
		accept = func(*tcp.Conn) {}
	}
	if err := p.b.tcp.Listen(port, accept); err != nil {
		t.Fatal(err)
	}
	c, err := p.a.tcp.Connect("b", port)
	if err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(time.Second)
	if c.State() != tcp.StateEstablished {
		t.Fatalf("client state %v after handshake, want ESTABLISHED", c.State())
	}
	return c
}

func TestHandshake(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var serverConn *tcp.Conn
	c := p.dial(t, 80, func(sc *tcp.Conn) { serverConn = sc })
	if serverConn == nil {
		t.Fatal("accept callback never ran")
	}
	if serverConn.State() != tcp.StateEstablished || c.State() != tcp.StateEstablished {
		t.Fatalf("states %v, %v", c.State(), serverConn.State())
	}
}

func TestDataTransfer(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got.Write(d) })
	})
	want := strings.Repeat("hello, tcp! ", 100) // several segments
	if err := c.Send([]byte(want)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(10 * time.Second)
	if got.String() != want {
		t.Fatalf("received %d bytes, want %d, content match=%v",
			got.Len(), len(want), got.String() == want)
	}
}

func TestBidirectionalTransfer(t *testing.T) {
	p := newPair(t, tcp.AIX323(), tcp.NeXTMach())
	var aGot, bGot bytes.Buffer
	var server *tcp.Conn
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		server = sc
		sc.OnData(func(d []byte) { bGot.Write(d) })
	})
	c.OnData(func(d []byte) { aGot.Write(d) })
	if err := c.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(time.Second)
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(time.Second)
	if bGot.String() != "ping" || aGot.String() != "pong" {
		t.Fatalf("b got %q, a got %q", bGot.String(), aGot.String())
	}
}

func TestRetransmissionRecoversFromLoss(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got.Write(d) })
	})
	// Drop the first two DATA segments at the sender's wire.
	if err := p.a.pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "DATA"} {
			if {![info exists ndropped]} { set ndropped 0 }
			if {$ndropped < 2} { incr ndropped; xDrop cur_msg }
		}
	`); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("x", 2000)
	if err := c.Send([]byte(want)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(60 * time.Second)
	if got.String() != want {
		t.Fatalf("received %d/%d bytes after loss", got.Len(), len(want))
	}
	if len(p.a.log.Filter("a", "retransmit", "")) == 0 {
		t.Fatal("no retransmissions logged")
	}
}

func TestBSDRetransmissionScheduleAndReset(t *testing.T) {
	// Experiment 1's shape for the BSD stacks: 12 retransmissions with
	// exponential backoff to a 64 s plateau, then a RST.
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var closed string
	c := p.dial(t, 80, nil)
	c.OnClose(func(reason string) { closed = reason })
	// b drops everything from now on (receive filter drop-all).
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(20 * 64 * time.Second)
	if c.State() != tcp.StateClosed {
		t.Fatalf("connection still %v", c.State())
	}
	if !strings.Contains(closed, "retransmission") {
		t.Fatalf("close reason %q", closed)
	}
	rtx := p.a.log.Times("a", "retransmit", "DATA")
	if len(rtx) != 12 {
		t.Fatalf("retransmissions = %d, want 12", len(rtx))
	}
	r := trace.AnalyzeBackoff(append(p.a.log.Times("a", "retransmit", "DATA")[:0:0],
		rtx...), 0.25)
	if !r.PlateauReached || r.Plateau < 50*time.Second || r.Plateau > 70*time.Second {
		t.Fatalf("plateau %v reached=%v, want ~64 s", r.Plateau, r.PlateauReached)
	}
	// A reset must have been sent.
	if len(p.a.log.Filter("a", "reset", "")) != 1 {
		t.Fatal("no RST on timeout")
	}
}

func TestSolarisScheduleGlobalCounterNoReset(t *testing.T) {
	// Experiment 1's Solaris shape: 9 retransmissions from a ~330 ms
	// floor, abrupt close, no RST.
	p := newPair(t, tcp.Solaris23(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(30 * 64 * time.Second)
	if c.State() != tcp.StateClosed {
		t.Fatalf("connection still %v", c.State())
	}
	rtx := p.a.log.Times("a", "retransmit", "DATA")
	if len(rtx) != 9 {
		t.Fatalf("retransmissions = %d, want 9", len(rtx))
	}
	if len(p.a.log.Filter("a", "reset", "")) != 0 {
		t.Fatal("Solaris sent a RST on timeout; the paper observed none")
	}
	// First retransmission near the 330 ms floor.
	gaps := trace.Intervals(rtx)
	if len(gaps) > 0 && (gaps[0] < 300*time.Millisecond || gaps[0] > 900*time.Millisecond) {
		t.Fatalf("first backoff gap %v, want near 330-660 ms", gaps[0])
	}
}

func TestOutOfOrderQueueing(t *testing.T) {
	// Experiment 5: delay the first segment so the second arrives first;
	// the receiver must queue it and ack both once the gap fills.
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got.Write(d) })
	})
	// Delay the first transmission of the first segment; drop every
	// retransmission so only the delayed original fills the gap (the
	// paper's "any retransmissions of the second segment were dropped",
	// applied to both segments for a clean wire).
	if err := p.a.pfi.SetSendScript(`
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
		t.Fatal(err)
	}
	first := strings.Repeat("A", 512)
	second := strings.Repeat("B", 512)
	if err := c.Send([]byte(first + second)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(2 * time.Second)
	if got.Len() != 0 {
		t.Fatalf("receiver delivered %d bytes before the gap filled", got.Len())
	}
	p.w.RunFor(30 * time.Second)
	if got.String() != first+second {
		t.Fatalf("delivered %d bytes, in-order=%v", got.Len(), got.String() == first+second)
	}
}

func TestKeepAliveBSDFormatAndDropSchedule(t *testing.T) {
	// Experiment 3: SunOS probes at ~7200 s; when probes are dropped they
	// retransmit 8 times at 75 s, then RST. SunOS probes carry 1 garbage
	// byte at SEG.SEQ = SND.NXT-1.
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	var closed string
	c.OnClose(func(r string) { closed = r })
	c.SetKeepAlive(true)
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(4 * 3600 * time.Second)
	kas := p.a.log.Times("a", "keepalive", "")
	if len(kas) != 9 { // initial + 8 retransmissions
		t.Fatalf("keepalive probes = %d, want 9", len(kas))
	}
	if first := time.Duration(kas[0]); first < 7200*time.Second || first > 7260*time.Second {
		t.Fatalf("first keepalive at %v, want ~7200 s", first)
	}
	gaps := trace.Intervals(kas)
	for _, g := range gaps {
		if g != 75*time.Second {
			t.Fatalf("probe gap %v, want fixed 75 s", g)
		}
	}
	if closed == "" || !strings.Contains(closed, "keep-alive") {
		t.Fatalf("close reason %q", closed)
	}
	if len(p.a.log.Filter("a", "reset", "")) != 1 {
		t.Fatal("no RST after keep-alive failure")
	}
	// Probe format: one garbage byte.
	entries := p.a.log.Filter("a", "keepalive", "")
	if !strings.Contains(entries[0].Note, "len=1") {
		t.Fatalf("SunOS keepalive note %q, want len=1 garbage byte", entries[0].Note)
	}
}

func TestKeepAliveAnsweredKeepsConnection(t *testing.T) {
	// Variation: probes ACKed; connection stays up and probes continue at
	// the idle interval indefinitely.
	p := newPair(t, tcp.AIX323(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	c.SetKeepAlive(true)
	p.w.RunFor(8 * 7200 * time.Second) // 16 hours
	if c.State() != tcp.StateEstablished {
		t.Fatalf("connection %v, want still ESTABLISHED", c.State())
	}
	kas := p.a.log.Times("a", "keepalive", "")
	if len(kas) < 7 {
		t.Fatalf("keepalives sent = %d, want ~8 over 16 h", len(kas))
	}
	gaps := trace.Intervals(kas)
	for _, g := range gaps {
		if g < 7200*time.Second || g > 7300*time.Second {
			t.Fatalf("answered keepalive gap %v, want ~7200 s", g)
		}
	}
	// AIX probes carry no garbage byte.
	entries := p.a.log.Filter("a", "keepalive", "")
	if !strings.Contains(entries[0].Note, "len=0") {
		t.Fatalf("AIX keepalive note %q, want len=0", entries[0].Note)
	}
}

func TestKeepAliveSolarisViolatesSpecThreshold(t *testing.T) {
	p := newPair(t, tcp.Solaris23(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	c.SetKeepAlive(true)
	p.w.RunFor(7100 * time.Second)
	kas := p.a.log.Times("a", "keepalive", "")
	if len(kas) != 1 {
		t.Fatalf("keepalives by 7100 s = %d, want 1 (Solaris fires at 6752 s, violating the 7200 s spec minimum)", len(kas))
	}
	if at := time.Duration(kas[0]); at < 6752*time.Second || at > 6800*time.Second {
		t.Fatalf("first Solaris keepalive at %v, want ~6752 s", at)
	}
}

func TestZeroWindowProbing(t *testing.T) {
	// Experiment 4: the receiver never consumes, so the window closes; the
	// sender probes at the profile's capped interval; probes elicit ACKs
	// and data flow resumes when the app finally consumes.
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var server *tcp.Conn
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		server = sc
		sc.SetAutoConsume(false)
	})
	payload := strings.Repeat("z", 6000) // exceeds the 4096-byte buffer
	if err := c.Send([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(600 * time.Second)
	if server.RecvBuffered() != 4096 {
		t.Fatalf("receiver buffered %d, want full 4096", server.RecvBuffered())
	}
	zwps := p.a.log.Times("a", "zwp", "")
	if len(zwps) < 5 {
		t.Fatalf("zero-window probes = %d, want a steady stream", len(zwps))
	}
	gaps := trace.Intervals(zwps)
	if last := gaps[len(gaps)-1]; last != 60*time.Second {
		t.Fatalf("steady-state probe gap %v, want 60 s cap", last)
	}
	// Now the app consumes; the window reopens and the rest arrives.
	server.Consume(4096)
	p.w.RunFor(120 * time.Second)
	if server.RecvBuffered() != len(payload)-4096 {
		t.Fatalf("after consume, buffered %d, want %d", server.RecvBuffered(), len(payload)-4096)
	}
}

func TestZeroWindowProbesForeverWhenUnanswered(t *testing.T) {
	// Experiment 4 variation: drop everything once the window closes; all
	// stacks kept probing "indefinitely" (confirmed by a two-day unplug).
	p := newPair(t, tcp.Solaris23(), tcp.XKernel())
	var server *tcp.Conn
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		server = sc
		sc.SetAutoConsume(false)
	})
	if err := c.Send([]byte(strings.Repeat("z", 6000))); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(300 * time.Second) // window now surely zero
	_ = server
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	before := len(p.a.log.Times("a", "zwp", ""))
	p.w.RunFor(48 * 3600 * time.Second) // two days
	zwps := p.a.log.Times("a", "zwp", "")
	if len(zwps)-before < 2000 { // ~3086 at 56 s intervals
		t.Fatalf("probes during 2-day blackout = %d, want thousands", len(zwps)-before)
	}
	if c.State() != tcp.StateEstablished {
		t.Fatalf("prober gave up: state %v", c.State())
	}
	gaps := trace.Intervals(zwps[before:])
	if last := gaps[len(gaps)-1]; last != 56*time.Second {
		t.Fatalf("Solaris probe gap %v, want 56 s cap", last)
	}
}

func TestOrderlyClose(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var server *tcp.Conn
	var serverClosed, clientClosed string
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		server = sc
		sc.OnClose(func(r string) { serverClosed = r })
	})
	c.OnClose(func(r string) { clientClosed = r })
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(time.Second)
	if server.State() != tcp.StateCloseWait {
		t.Fatalf("server %v, want CLOSE-WAIT", server.State())
	}
	if err := server.Close(); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(2 * time.Second)
	if serverClosed == "" {
		t.Fatal("server never closed")
	}
	p.w.RunFor(120 * time.Second) // TIME-WAIT expiry
	if c.State() != tcp.StateClosed || clientClosed == "" {
		t.Fatalf("client %v closed=%q after TIME-WAIT", c.State(), clientClosed)
	}
}

func TestRSTToClosedPort(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	c, err := p.a.tcp.Connect("b", 9999) // nobody listening
	if err != nil {
		t.Fatal(err)
	}
	var closed string
	c.OnClose(func(r string) { closed = r })
	p.w.RunFor(time.Second)
	if c.State() != tcp.StateClosed || !strings.Contains(closed, "reset") {
		t.Fatalf("state %v closed %q, want reset by peer", c.State(), closed)
	}
}

// TestAbortSendsRST: a connection that gives up on its retransmissions
// aborts with a RST, and the peer, whose half of the connection is still
// open, closes on it.
func TestAbortSendsRST(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var server *tcp.Conn
	var serverClosed string
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		server = sc
		sc.OnClose(func(r string) { serverClosed = r })
	})
	// b hears nothing but the RST from now on.
	if err := p.b.pfi.SetReceiveScript(`if {[msg_type cur_msg] ne "RST"} { xDrop cur_msg }`); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(20 * 64 * time.Second)
	if c.State() != tcp.StateClosed {
		t.Fatalf("client still %v", c.State())
	}
	if server.State() != tcp.StateClosed || !strings.Contains(serverClosed, "reset") {
		t.Fatalf("server %v closed %q", server.State(), serverClosed)
	}
}

func TestDuplicateSegmentsIgnoredByReceiver(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got.Write(d) })
	})
	if err := p.a.pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "DATA"} { xDuplicate cur_msg 2 5 }
	`); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("q", 1500)
	if err := c.Send([]byte(want)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(30 * time.Second)
	if got.String() != want {
		t.Fatalf("duplicates corrupted the stream: got %d bytes (want %d)", got.Len(), len(want))
	}
}

func TestCorruptedSegmentDoesNotCrashReceiver(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got.Write(d) })
	})
	// Flip the sequence number of one DATA segment (byzantine corruption).
	if err := p.a.pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "DATA" && ![info exists hit]} {
			set hit 1
			msg_set_byte cur_msg 4 255
		}
	`); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("r", 1024)
	if err := c.Send([]byte(want)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(120 * time.Second)
	if got.String() != want {
		t.Fatalf("stream not recovered after corruption: %d/%d bytes", got.Len(), len(want))
	}
}

func TestSpuriousACKInjectionHarmless(t *testing.T) {
	// The paper's example of stateless generation: a spurious ACK needs no
	// protocol-state update and must not disturb the connection.
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got.Write(d) })
	})
	if err := p.a.pfi.SetReceiveScript(`
		if {[msg_type cur_msg] eq "ACK"} {
			xInject ACK [list srcport [msg_field cur_msg srcport] dstport [msg_field cur_msg dstport] seq [msg_field cur_msg seq] ack [msg_field cur_msg ack] win [msg_field cur_msg win]] up
		}
	`); err != nil {
		t.Fatal(err)
	}
	want := strings.Repeat("s", 2048)
	if err := c.Send([]byte(want)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(30 * time.Second)
	if got.String() != want {
		t.Fatalf("spurious ACKs disturbed transfer: %d/%d", got.Len(), len(want))
	}
}

func TestConnectTimeoutWhenPeerSilent(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	// No listener and all receive traffic dropped at b, so not even a RST
	// comes back: the SYN must retransmit and eventually give up.
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	c, err := p.a.tcp.Connect("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	var closed string
	c.OnClose(func(r string) { closed = r })
	p.w.RunFor(4000 * time.Second)
	if c.State() != tcp.StateClosed || closed == "" {
		t.Fatalf("SYN retries never gave up: %v %q", c.State(), closed)
	}
}

func TestSendOnClosedConnectionFails(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(time.Second)
	if err := c.Send([]byte("late")); err == nil {
		t.Fatal("Send on closed connection succeeded")
	}
}

func TestListenTwiceFails(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	if err := p.b.tcp.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.b.tcp.Listen(80, nil); err == nil {
		t.Fatal("double listen succeeded")
	}
}

func TestJacobsonAdaptsToACKDelay(t *testing.T) {
	// Experiment 2's core claim: with a 3 s ACK delay, a Jacobson stack's
	// first retransmission after the blackout begins happens well beyond
	// 3 s, because the RTO adapted.
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	if err := p.b.pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK"} { xDelay cur_msg 3000 }
	`); err != nil {
		t.Fatal(err)
	}
	// Stream segments one at a time so every ACK matters.
	for i := 0; i < 30; i++ {
		if err := c.Send([]byte(strings.Repeat("d", 512))); err != nil {
			t.Fatal(err)
		}
		p.w.RunFor(4 * time.Second)
	}
	// Blackout.
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte(strings.Repeat("e", 512))); err != nil {
		t.Fatal(err)
	}
	sendAt := p.w.Now()
	p.w.RunFor(300 * time.Second)
	rtx := p.a.log.Times("a", "retransmit", "DATA")
	var firstAfter time.Duration
	for _, at := range rtx {
		if at > sendAt {
			firstAfter = at.Sub(sendAt)
			break
		}
	}
	if firstAfter < 3*time.Second {
		t.Fatalf("Jacobson stack retransmitted after %v, want > 3 s (adapted RTO)", firstAfter)
	}
}

func TestSolarisDoesNotAdaptToACKDelay(t *testing.T) {
	p := newPair(t, tcp.Solaris23(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	if err := p.b.pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK"} { xDelay cur_msg 3000 }
	`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := c.Send([]byte(strings.Repeat("d", 512))); err != nil {
			t.Fatal(err)
		}
		p.w.RunFor(4 * time.Second)
	}
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	if err := c.Send([]byte(strings.Repeat("e", 512))); err != nil {
		t.Fatal(err)
	}
	sendAt := p.w.Now()
	p.w.RunFor(300 * time.Second)
	rtx := p.a.log.Times("a", "retransmit", "DATA")
	var firstAfter time.Duration
	for _, at := range rtx {
		if at > sendAt {
			firstAfter = at.Sub(sendAt)
			break
		}
	}
	if firstAfter == 0 || firstAfter > 3*time.Second {
		t.Fatalf("Solaris first retransmission after %v, want under 3 s (unadapted RTO)", firstAfter)
	}
}

func TestAccessorsAndPipelining(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	if err := p.b.tcp.Listen(80, nil); err != nil {
		t.Fatal(err)
	}
	c, err := p.a.tcp.Connect("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(time.Second)
	if c.State() != tcp.StateEstablished {
		t.Fatalf("state %v after the handshake", c.State())
	}
	if p.a.tcp.Name() != "tcp" {
		t.Errorf("layer name %q", p.a.tcp.Name())
	}
	if (tcp.PFIStub{}).Protocol() != "tcp" {
		t.Error("stub protocol")
	}

	// The paper's Table 1 commentary: with window available, the sender
	// transmits the NEXT segment in sequence space soon after the first —
	// both in flight at once ("eliciting an ACK for both segments").
	if err := p.b.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	if err := c.Send(make([]byte, 2*512)); err != nil { // two MSS segments
		t.Fatal(err)
	}
	if got := c.UnackedSegments(); got != 2 {
		t.Fatalf("in-flight segments = %d, want both pipelined immediately", got)
	}
	// Only the OLDEST is retransmitted.
	p.w.RunFor(10 * time.Second)
	rtx := p.a.log.Filter("a", "retransmit", "DATA")
	if len(rtx) == 0 {
		t.Fatal("no retransmissions")
	}
	firstSeq := rtx[0].Seq
	for _, e := range rtx {
		if e.Seq != firstSeq {
			t.Fatalf("retransmitted seq %d, want only the oldest %d", e.Seq, firstSeq)
		}
	}
}

func TestHandleDownRejected(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	if err := p.a.tcp.HandleDown(nil); err == nil {
		t.Fatal("raw HandleDown accepted")
	}
}

func TestSetKeepAliveOffCancelsProbing(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	c := p.dial(t, 80, nil)
	c.SetKeepAlive(true)
	c.SetKeepAlive(false)
	p.w.RunFor(3 * 7200 * time.Second)
	if kas := p.a.log.Times("a", "keepalive", ""); len(kas) != 0 {
		t.Fatalf("keepalive disabled but %d probes sent", len(kas))
	}
}

func TestCloseFromSynSentAborts(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	// Nothing listening and inbound RSTs suppressed: stuck in SYN-SENT.
	if err := p.a.pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		t.Fatal(err)
	}
	c, err := p.a.tcp.Connect("b", 4242)
	if err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(100 * time.Millisecond)
	if c.State() != tcp.StateSynSent {
		t.Fatalf("state %v", c.State())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.State() != tcp.StateClosed {
		t.Fatalf("close from SYN-SENT left state %v", c.State())
	}
	// Closing again is a no-op.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSynAckRetransmittedWhenHandshakeACKLost(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	// Drop the client's final handshake ACK (first bare ACK from a).
	if err := p.a.pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK" && ![info exists dropped]} {
			set dropped 1
			xDrop cur_msg
		}
	`); err != nil {
		t.Fatal(err)
	}
	var server *tcp.Conn
	if err := p.b.tcp.Listen(80, func(sc *tcp.Conn) { server = sc }); err != nil {
		t.Fatal(err)
	}
	c, err := p.a.tcp.Connect("b", 80)
	if err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(time.Minute)
	// The server retransmits its SYN-ACK; a duplicate SYN-ACK reaching the
	// established client elicits a fresh ACK, completing the handshake.
	if server == nil || server.State() != tcp.StateEstablished {
		st := tcp.StateClosed
		if server != nil {
			st = server.State()
		}
		t.Fatalf("server state %v after lost handshake ACK", st)
	}
	if c.State() != tcp.StateEstablished {
		t.Fatalf("client state %v", c.State())
	}
}

func TestDelayedACKCoalesces(t *testing.T) {
	// The vendor profiles use RFC-1122 delayed ACKs: a single in-order
	// segment is acked only after the 200 ms delack timer, and a pair of
	// segments elicits one immediate ACK — so two segments produce fewer
	// ACKs than two.
	p := newPair(t, tcp.XKernel(), tcp.SunOS413()) // SunOS receives
	c := p.dial(t, 80, nil)
	// Observe ACKs on the wire with the vendor-side PFI send filter.
	if err := p.b.pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "ACK"} {
			if {![info exists acks]} { set acks 0 }
			incr acks
			peer_set ack_count $acks
		}
	`); err != nil {
		t.Fatal(err)
	}
	// One lone segment: the ACK must wait for the delack timeout.
	before := p.w.Now()
	if err := c.Send(make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(50 * time.Millisecond)
	if v, _ := p.b.pfi.ReceiveFilter().Interp().Global("ack_count"); v != "" {
		t.Fatalf("ACK sent after %v, want it withheld ~200 ms", p.w.Now().Sub(before))
	}
	p.w.RunFor(300 * time.Millisecond)
	if v, _ := p.b.pfi.ReceiveFilter().Interp().Global("ack_count"); v != "1" {
		t.Fatalf("ack_count after delack timeout = %q, want 1", v)
	}
	// Two back-to-back segments: the second forces an immediate ACK.
	if err := c.Send(make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	p.w.RunFor(20 * time.Millisecond)
	if v, _ := p.b.pfi.ReceiveFilter().Interp().Global("ack_count"); v != "2" {
		t.Fatalf("ack_count after segment pair = %q, want 2 (one coalesced ACK)", v)
	}
}

// Property: a TCP stream over a lossy, reordering network still delivers
// the exact byte sequence, in order — the protocol's core guarantee under
// the netsim's random faults.
func TestPropertyStreamIntegrityUnderLoss(t *testing.T) {
	seeds := []int64{1, 7, 42}
	for _, seed := range seeds {
		w := netsim.NewWorld(seed)
		a := newEndpoint(t, w, "a", tcp.SunOS413())
		b := newEndpoint(t, w, "b", tcp.XKernel())
		if err := w.Connect("a", "b", netsim.LinkConfig{
			Latency: time.Millisecond, Jitter: 4 * time.Millisecond, Loss: 0.15,
		}); err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := b.tcp.Listen(80, func(sc *tcp.Conn) {
			sc.OnData(func(d []byte) { got.Write(d) })
		}); err != nil {
			t.Fatal(err)
		}
		c, err := a.tcp.Connect("b", 80)
		if err != nil {
			t.Fatal(err)
		}
		w.RunFor(30 * time.Second) // lossy handshake may need retries
		if c.State() != tcp.StateEstablished {
			t.Fatalf("seed %d: handshake failed", seed)
		}
		want := make([]byte, 8000)
		rng := w.Rand()
		for i := range want {
			want[i] = byte(rng.Intn(256))
		}
		if err := c.Send(want); err != nil {
			t.Fatal(err)
		}
		w.RunFor(10 * time.Minute)
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("seed %d: stream corrupted: got %d bytes, want %d (equal=%v)",
				seed, got.Len(), len(want), bytes.Equal(got.Bytes(), want))
		}
	}
}

// TestSendQueueSegmentsAcrossChunks: the send queue keeps the slices Send
// was handed, as they are. Sends of every size relative to the MSS — a fresh
// slice each, queued faster than the window drains, and one slice sent twice
// in a row — still leave as one byte stream: segments are cut across slice
// boundaries, and a repeated slice is repeated bytes.
func TestSendQueueSegmentsAcrossChunks(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got.Write(d) })
	})
	mss := tcp.MSS
	var want []byte
	for round, next := 0, byte(0); round < 40; round++ {
		for _, n := range []int{1, mss - 1, mss, mss + 1, 0, 100, 3 * mss, 37} {
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = next
				next++
			}
			for sends := 1 + round%2; sends > 0; sends-- { // odd rounds send every slice twice
				want = append(want, buf...)
				if err := c.Send(buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		p.w.RunFor(time.Millisecond) // far less than the backlog needs
	}
	p.w.RunFor(2 * time.Minute)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("delivered %d bytes, sent %d, equal=%v", got.Len(), len(want), bytes.Equal(got.Bytes(), want))
	}
	if c.UnackedSegments() != 0 {
		t.Fatalf("%d segments still unacknowledged", c.UnackedSegments())
	}
}

// TestStreamBytesAreHandedOver pins the ownership rule at both ends of the
// stack: Send queues the caller's slice and pump cuts segments out of it
// (the first segment's payload is the front of that slice, not a copy), and
// OnData is lent the arriving message's own bytes. The one copy in between
// is Segment.Encode's.
func TestStreamBytesAreHandedOver(t *testing.T) {
	var arrived *message.Message
	tap := stack.NewFunc("tap", nil, func(m *message.Message, next stack.Sink) error {
		arrived = m
		return next(m)
	})
	p := newPair(t, tcp.SunOS413(), tcp.XKernel(), tap)
	var got bytes.Buffer
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) {
			if wire := arrived.Bytes()[tcp.HeaderLen:]; &d[0] != &wire[0] || len(d) != len(wire) {
				t.Errorf("OnData got %d bytes that are not the message's own %d", len(d), len(wire))
			}
			got.Write(d)
		})
	})
	mss := tcp.MSS
	data := bytes.Repeat([]byte("0123456789"), mss/5) // two segments
	if err := c.Send(data); err != nil {
		t.Fatal(err)
	}
	if first := c.OldestUnackedPayload(); len(first) != mss || &first[0] != &data[0] {
		t.Fatalf("the first segment's payload (%d bytes) is not the front of the slice given to Send", len(first))
	}
	p.w.RunFor(10 * time.Second)
	if !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("delivered %d bytes, sent %d, equal=false", got.Len(), len(data))
	}
}

// TestOnDataLendsForTheCall: the slice OnData hands over is the arriving
// message's bytes, and the wire takes the message back once the hop is
// over. A consumer that keeps the slice instead of copying it reads, after
// the next segment, that segment's bytes in a normal build — the world
// built it in the same message — and 0xDB poison under the race detector,
// never the data it was lent.
func TestOnDataLendsForTheCall(t *testing.T) {
	p := newPair(t, tcp.SunOS413(), tcp.XKernel())
	var kept []byte
	c := p.dial(t, 80, func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) {
			if kept == nil {
				kept = d
			}
		})
	})
	mss := tcp.MSS
	first, second := bytes.Repeat([]byte("A"), mss), bytes.Repeat([]byte("B"), mss)
	for _, seg := range [][]byte{first, second} {
		if err := c.Send(seg); err != nil {
			t.Fatal(err)
		}
		p.w.RunFor(time.Second)
	}
	if len(kept) != mss {
		t.Fatalf("lent %d bytes, want %d", len(kept), mss)
	}
	if poison := bytes.Repeat([]byte{0xDB}, mss); !bytes.Equal(kept, second) && !bytes.Equal(kept, poison) {
		t.Fatalf("a kept slice reads %q…, neither the next segment nor the poison", kept[:8])
	}
}
