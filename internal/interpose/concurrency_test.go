package interpose_test

import (
	"encoding/binary"
	"fmt"
	"sync"
	"testing"
	"time"

	"pfi/internal/core"
)

// TestSecondClientRejected: the proxy serves the first client that speaks.
// Datagrams from any other address are dropped at the socket and counted —
// they reach neither filter nor upstream — so two interleaved clients never
// read each other's payloads and the first keeps every reply.
func TestSecondClientRejected(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	first, second := dialProxy(t, p), dialProxy(t, p)

	const rounds = 8
	for i := 0; i < rounds; i++ {
		want := fmt.Sprintf("first-%d", i)
		if got := sendRecv(t, first, want, 2*time.Second); got != want {
			t.Fatalf("first client, round %d: got %q, want %q", i, got, want)
		}
		if got := sendRecv(t, second, fmt.Sprintf("second-%d", i), 50*time.Millisecond); got != "" {
			t.Fatalf("second client, round %d: read %q through a proxy that serves another client", i, got)
		}
	}
	if n := p.ForeignDropped(); n != rounds {
		t.Errorf("ForeignDropped = %d, want %d", n, rounds)
	}
	var up core.Stats
	if err := p.Do(func(l *core.Layer) { up = l.ReceiveFilter().Stats() }); err != nil {
		t.Fatal(err)
	}
	if up.Seen != rounds {
		t.Errorf("receive filter saw %d datagrams, want the first client's %d", up.Seen, rounds)
	}
}

// TestDrainDuringBurstThenStats: Drain with 16 datagrams in flight returns
// only after both readers have left their last filter run, so reading the
// filters without Do right after — as cmd/pfiproxy does — is race-free, and
// every datagram a filter saw was forwarded, not abandoned half-way.
func TestDrainDuringBurstThenStats(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	c := dialProxy(t, p)
	const burst = 16
	for i := 0; i < burst; i++ {
		if _, err := c.Write([]byte(fmt.Sprintf("d%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(2 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	up, down := p.Layer().ReceiveFilter().Stats(), p.Layer().SendFilter().Stats()
	if up.Seen > burst || down.Seen > up.Seen {
		t.Errorf("filters saw %d up / %d down of a %d-datagram burst", up.Seen, down.Seen, burst)
	}
	_ = c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	got, buf := 0, make([]byte, 64)
	for {
		if _, err := c.Read(buf); err != nil {
			break
		}
		got++
	}
	if got != down.Seen {
		t.Errorf("client read %d echoes, send filter forwarded %d", got, down.Seen)
	}
}

// TestShorterDelayFiresOnTime: the timer goroutine sleeps toward the
// earliest event. A datagram delayed by less than the one already armed
// moves that instant forward and must wake the sleeper, or it would be
// forwarded only when the longer delay runs out.
func TestShorterDelayFiresOnTime(t *testing.T) {
	upstream, got, stop := recordingUpstream(t)
	defer stop()
	p := newProxy(t, upstream)
	if err := p.Do(func(l *core.Layer) {
		if err := l.SetReceiveScript(`
			if {![info exists n]} { set n 0 }
			incr n
			if {$n == 1} { xDelay cur_msg 600 } else { xDelay cur_msg 30 }
		`); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	c := dialProxy(t, p)
	startAt := time.Now()
	for _, payload := range []string{"long", "short"} {
		if _, err := c.Write([]byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []struct {
		payload  string
		min, max time.Duration
	}{{"short", 25 * time.Millisecond, 400 * time.Millisecond}, {"long", 590 * time.Millisecond, 3 * time.Second}} {
		select {
		case msg := <-got:
			if elapsed := time.Since(startAt); msg != want.payload || elapsed < want.min || elapsed > want.max {
				t.Fatalf("upstream received %q after %v, want %q between %v and %v", msg, elapsed, want.payload, want.min, want.max)
			}
		case <-time.After(want.max):
			t.Fatalf("%q never arrived", want.payload)
		}
	}
}

// TestDoUnderSustainedTraffic: with datagrams flowing in both directions
// the whole time, Do calls from another goroutine all return, nothing is
// lost, and each direction keeps its order.
func TestDoUnderSustainedTraffic(t *testing.T) {
	upstream, stop := echoServer(t)
	defer stop()
	p := newProxy(t, upstream)
	c := dialProxy(t, p)

	const total, window = 2000, 8
	stopDo := make(chan struct{})
	var doers sync.WaitGroup
	doers.Add(1)
	go func() {
		defer doers.Done()
		for i := 0; ; i++ {
			select {
			case <-stopDo:
				return
			default:
			}
			// Alternate between clearing and installing a script that
			// leaves the payload alone, so both process paths take turns.
			src := ""
			if i%2 == 0 {
				src = `if {![info exists n]} { set n 0 }; incr n`
			}
			if err := p.Do(func(l *core.Layer) {
				if err := l.SetReceiveScript(src); err != nil {
					t.Error(err)
				}
				if err := l.SetSendScript(src); err != nil {
					t.Error(err)
				}
			}); err != nil {
				t.Errorf("Do %d: %v", i, err)
				return
			}
		}
	}()

	if err := c.SetDeadline(time.Now().Add(20 * time.Second)); err != nil {
		t.Fatal(err)
	}
	send, recv := make([]byte, 8), make([]byte, 16)
	for sent, got := 0, 0; got < total; {
		for sent < total && sent-got < window {
			binary.BigEndian.PutUint64(send, uint64(sent))
			if _, err := c.Write(send); err != nil {
				t.Fatal(err)
			}
			sent++
		}
		n, err := c.Read(recv)
		if err != nil {
			t.Fatalf("echo %d of %d never arrived: %v", got, total, err)
		}
		if seq := binary.BigEndian.Uint64(recv[:n]); seq != uint64(got) {
			t.Fatalf("echo %d carries sequence %d: reordered or lost", got, seq)
		}
		got++
	}
	close(stopDo)
	doers.Wait()

	var up, down core.Stats
	if err := p.Do(func(l *core.Layer) {
		up, down = l.ReceiveFilter().Stats(), l.SendFilter().Stats()
	}); err != nil {
		t.Fatal(err)
	}
	if up.Seen != total || down.Seen != total {
		t.Errorf("filters saw %d up / %d down datagrams, want %d each", up.Seen, down.Seen, total)
	}
}
