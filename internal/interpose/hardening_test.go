package interpose_test

import (
	"net"
	"strings"
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/interpose"
)

// recordingUpstream is a UDP server that reports every datagram it
// receives on a channel (and never replies).
func recordingUpstream(t *testing.T) (string, <-chan string, func()) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan string, 16)
	go func() {
		buf := make([]byte, 64*1024)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			got <- string(buf[:n])
		}
	}()
	return conn.LocalAddr().String(), got, func() { conn.Close() }
}

// TestOversizedDatagramDropped: a datagram past MaxDatagram is discarded
// at the socket (counted, never filtered or forwarded); traffic at the
// cap still flows.
func TestOversizedDatagramDropped(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p, err := interpose.New(interpose.Config{
		Listen:      "127.0.0.1:0",
		Upstream:    upstream,
		MaxDatagram: 512,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c := dialProxy(t, p)

	if got := sendRecv(t, c, strings.Repeat("x", 1000), 300*time.Millisecond); got != "" {
		t.Fatalf("oversized datagram echoed %d bytes, want silence", len(got))
	}
	if n := p.OversizedDropped(); n != 1 {
		t.Errorf("OversizedDropped = %d, want 1", n)
	}
	atCap := strings.Repeat("y", 512)
	if got := sendRecv(t, c, atCap, 2*time.Second); got != atCap {
		t.Fatalf("at-cap datagram did not survive: got %d bytes", len(got))
	}
	// The filter never saw the oversized datagram.
	var stats core.Stats
	if err := p.Do(func(l *core.Layer) { stats = l.ReceiveFilter().Stats() }); err != nil {
		t.Fatal(err)
	}
	if stats.Seen != 1 {
		t.Errorf("receive filter saw %d datagram(s), want 1 (the at-cap one)", stats.Seen)
	}
}

// TestDrainFlushesDelayedForwards: Drain stops accepting new traffic but
// lets a datagram already held by an xDelay land before closing.
func TestDrainFlushesDelayedForwards(t *testing.T) {
	upstream, got, stop := recordingUpstream(t)
	defer stop()
	p, err := interpose.New(interpose.Config{Listen: "127.0.0.1:0", Upstream: upstream})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetReceiveScript(`xDelay cur_msg 150`); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	if _, err := c.Write([]byte("in flight")); err != nil {
		t.Fatal(err)
	}
	// Let the datagram reach the filter and enter its delay window.
	time.Sleep(50 * time.Millisecond)

	if err := p.Drain(2 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// The forward happened before Drain returned; give the recorder
	// goroutine a moment to surface it from its socket.
	select {
	case msg := <-got:
		if msg != "in flight" {
			t.Fatalf("upstream received %q", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("delayed datagram was not flushed before close")
	}
	// The proxy is down: no new work is accepted.
	if err := p.Do(func(*core.Layer) {}); err == nil {
		t.Error("Do succeeded after Drain")
	}
}

// TestDrainIdleIsFast: an idle proxy drains immediately instead of
// sitting out the full timeout.
func TestDrainIdleIsFast(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	startAt := time.Now()
	if err := p.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if elapsed := time.Since(startAt); elapsed > time.Second {
		t.Errorf("idle drain took %v", elapsed)
	}
	if err := p.Drain(time.Second); err != nil {
		t.Errorf("second Drain: %v", err)
	}
}

// TestUpstreamNotYetListening: a datagram forwarded before the upstream
// listens comes back as ECONNREFUSED on the upstream socket's next read.
// The reader rides that out (counted) instead of exiting, so once the
// upstream is up replies flow again without a restart.
func TestUpstreamNotYetListening(t *testing.T) {
	// Reserve a port, then free it: nothing listens there yet.
	probe, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	addr := probe.LocalAddr().(*net.UDPAddr)
	probe.Close()

	p := newProxy(t, addr.String())
	c := dialProxy(t, p)
	if got := sendRecv(t, c, "too-early", 50*time.Millisecond); got != "" {
		t.Fatalf("reply %q from an upstream that does not exist", got)
	}
	for deadline := time.Now().Add(2 * time.Second); p.ReadErrors() == 0; {
		if time.Now().After(deadline) {
			t.Skip("no ICMP error reached the upstream socket on this host")
		}
		time.Sleep(time.Millisecond)
	}

	up, err := net.ListenUDP("udp", addr)
	if err != nil {
		t.Skipf("port %d was taken meanwhile: %v", addr.Port, err)
	}
	defer up.Close()
	go echo(up)
	if got := sendRecv(t, c, "now-listening", 2*time.Second); got != "now-listening" {
		t.Fatalf("reply after the upstream came up = %q, want the echo", got)
	}
}
