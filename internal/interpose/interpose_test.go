package interpose_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/interpose"
)

// echoServer starts a UDP echo server on localhost and returns its address
// and a stop function.
func echoServer(t *testing.T) (string, func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	go echo(conn)
	return conn.LocalAddr().String(), func() { conn.Close() }
}

// echo answers every datagram conn receives until conn is closed.
func echo(conn *net.UDPConn) {
	buf := make([]byte, 64*1024)
	for {
		n, addr, err := conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		if _, err := conn.WriteToUDP(buf[:n], addr); err != nil {
			return
		}
	}
}

// dialProxy returns a client socket pointed at the proxy.
func dialProxy(t *testing.T, p *interpose.Proxy) *net.UDPConn {
	t.Helper()
	c, err := net.DialUDP("udp", nil, p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// sendRecv sends payload through the client and waits up to timeout for a
// reply, returning it ("" if none arrived).
func sendRecv(t *testing.T, c *net.UDPConn, payload string, timeout time.Duration) string {
	t.Helper()
	if _, err := c.Write([]byte(payload)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetReadDeadline(time.Now().Add(timeout)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64*1024)
	n, err := c.Read(buf)
	if err != nil {
		return ""
	}
	return string(buf[:n])
}

func newProxy(t *testing.T, upstream string) *interpose.Proxy {
	t.Helper()
	p, err := interpose.New(interpose.Config{
		Listen:   "127.0.0.1:0",
		Upstream: upstream,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

func TestPassThrough(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	c := dialProxy(t, p)
	if got := sendRecv(t, c, "ping", 2*time.Second); got != "ping" {
		t.Fatalf("echo through proxy = %q, want ping", got)
	}
}

func TestDropScriptOnLiveTraffic(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	// Drop every datagram heading to the upstream.
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetReceiveScript(`xDrop cur_msg`); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	if got := sendRecv(t, c, "into the void", 300*time.Millisecond); got != "" {
		t.Fatalf("black-holed datagram echoed: %q", got)
	}
	var stats core.Stats
	if err := p.Do(func(l *core.Layer) { stats = l.ReceiveFilter().Stats() }); err != nil {
		t.Fatal(err)
	}
	if stats.Dropped != 1 {
		t.Fatalf("stats %+v, want 1 dropped", stats)
	}
	// Clear the script: traffic flows again.
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetReceiveScript(""); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if got := sendRecv(t, c, "back online", 2*time.Second); got != "back online" {
		t.Fatalf("after clearing script: %q", got)
	}
}

func TestDelayScriptUsesWallClock(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	// Delay replies (send filter) by 150 ms of real time.
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetSendScript(`xDelay cur_msg 150`); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	startAt := time.Now()
	if got := sendRecv(t, c, "slow", 2*time.Second); got != "slow" {
		t.Fatalf("delayed echo = %q", got)
	}
	if elapsed := time.Since(startAt); elapsed < 140*time.Millisecond {
		t.Fatalf("reply arrived after %v, want >= ~150 ms wall-clock delay", elapsed)
	}
}

func TestDuplicateScriptOnLiveTraffic(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetReceiveScript(`xDuplicate cur_msg 1`); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("twice")); err != nil {
		t.Fatal(err)
	}
	got := 0
	buf := make([]byte, 1024)
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	for got < 2 {
		if _, err := c.Read(buf); err != nil {
			break
		}
		got++
	}
	if got != 2 {
		t.Fatalf("received %d echoes of a duplicated datagram, want 2", got)
	}
}

func TestCorruptionScriptOnLiveTraffic(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetReceiveScript(`msg_set_byte cur_msg 0 88`); err != nil { // 'X'
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	if got := sendRecv(t, c, "abc", 2*time.Second); got != "Xbc" {
		t.Fatalf("corrupted echo = %q, want Xbc", got)
	}
}

func TestScriptStateCountsLiveMessages(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	// Pass 2 datagrams, then drop the rest — interpreter state persists
	// across real packets just as it does in simulation.
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetReceiveScript(`
			if {![info exists n]} { set n 0 }
			incr n
			if {$n > 2} { xDrop cur_msg }
		`); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	if got := sendRecv(t, c, "one", 2*time.Second); got != "one" {
		t.Fatalf("first = %q", got)
	}
	if got := sendRecv(t, c, "two", 2*time.Second); got != "two" {
		t.Fatalf("second = %q", got)
	}
	if got := sendRecv(t, c, "three", 300*time.Millisecond); got != "" {
		t.Fatalf("third datagram passed: %q", got)
	}
}

// TestBurstOrderAndDoPosition: the event loop runs one action at a time in
// queue order. With 16 datagrams in flight toward the upstream (and their
// 16 echoes in flight back), nothing is lost, each direction keeps its
// order, both filters see every datagram exactly once, and a Do closure
// queued mid-burst takes effect at one queue position — every datagram
// before it runs the old script, every datagram after it the new one.
func TestBurstOrderAndDoPosition(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	c := dialProxy(t, p)
	const burst = 16
	send := func(from, to int) {
		for i := from; i < to; i++ {
			if _, err := c.Write([]byte(fmt.Sprintf("d%02d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}

	send(0, burst/2)
	seenAtDo := -1
	if err := p.Do(func(l *core.Layer) {
		seenAtDo = l.ReceiveFilter().Stats().Seen
		if err := l.SetReceiveScript(`msg_set_byte cur_msg 0 88`); err != nil { // 'd' -> 'X'
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	send(burst/2, burst)
	if seenAtDo < 0 || seenAtDo > burst/2 {
		t.Fatalf("Do closure saw %d datagrams; only %d were sent before it was queued", seenAtDo, burst/2)
	}

	if err := c.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for i := 0; i < burst; i++ {
		n, err := c.Read(buf)
		if err != nil {
			t.Fatalf("echo %d of %d never arrived: %v", i, burst, err)
		}
		want := fmt.Sprintf("d%02d", i)
		if i >= seenAtDo {
			want = fmt.Sprintf("X%02d", i)
		}
		if got := string(buf[:n]); got != want {
			t.Fatalf("echo %d = %q, want %q (closure ran after %d datagrams)", i, got, want, seenAtDo)
		}
	}
	var up, down core.Stats
	if err := p.Do(func(l *core.Layer) {
		up, down = l.ReceiveFilter().Stats(), l.SendFilter().Stats()
	}); err != nil {
		t.Fatal(err)
	}
	if up.Seen != burst || down.Seen != burst {
		t.Errorf("filters saw %d up / %d down datagrams, want %d each", up.Seen, down.Seen, burst)
	}
}

func TestCloseIdempotentAndDoAfterClose(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Do(func(l *core.Layer) {}); err == nil {
		t.Fatal("Do after Close succeeded")
	}
}

func TestBadAddresses(t *testing.T) {
	if _, err := interpose.New(interpose.Config{Listen: "not-an-addr", Upstream: "127.0.0.1:9"}); err == nil {
		t.Fatal("bad listen address accepted")
	}
	if _, err := interpose.New(interpose.Config{Listen: "127.0.0.1:0", Upstream: "::bad::"}); err == nil {
		t.Fatal("bad upstream address accepted")
	}
}
