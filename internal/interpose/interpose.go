// Package interpose applies the PFI technique to REAL network traffic: a
// UDP proxy stands between two protocol participants and runs the same
// send/receive filter scripts the simulated experiments use — drop, delay,
// duplicate, corrupt, inject — against live datagrams on the wall clock.
//
// This is the deployment shape the paper's technique takes today (cf.
// Toxiproxy/netem-style interposers): the participants are unmodified and
// unaware; only their traffic is redirected through the proxy address.
//
//	client ──▶ proxy(listen) ──[receive filter]──▶ upstream
//	client ◀──[send filter]─── proxy ◀──────────── upstream
//
// Direction naming follows the PFI layer: traffic toward the upstream runs
// the RECEIVE filter (it is "popped up" toward the target protocol);
// traffic back toward clients runs the SEND filter.
//
// Threading is run-to-completion, as in the paper's x-Kernel: the goroutine
// that reads a datagram filters it and writes it out, under the one mutex
// that owns the PFI layer and the scheduler. There is one reader per
// socket, so each direction is filtered in arrival order and at most one
// filter runs at a time. A third goroutine sleeps until the scheduler's
// earliest event (a delayed or duplicated forward) and fires it under the
// same mutex.
package interpose

import (
	"errors"
	"fmt"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"pfi/internal/core"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// Proxy is a live UDP interposer around a PFI layer.
type Proxy struct {
	listenConn   *net.UDPConn
	upstreamConn *net.UDPConn
	start        time.Time
	maxDatagram  int
	writeTimeout time.Duration
	oversized    atomic.Int64
	foreign      atomic.Int64
	readErrors   atomic.Int64

	// mu owns the layer and the scheduler: a filter run, a scheduler event
	// and a Do closure each hold it from start to finish, socket write
	// included, so scripts that share state across directions see one
	// activation at a time.
	mu       sync.Mutex
	layer    *core.Layer
	sched    *simtime.Scheduler
	client   netip.AddrPort // the one client served: the first sender
	wakeAt   simtime.Time   // the instant the timer goroutine sleeps toward
	closed   bool
	draining bool

	poke      chan struct{} // the earliest event moved ahead of wakeAt
	done      chan struct{}
	readers   sync.WaitGroup
	timerExit chan struct{}
}

// never is wakeAt while the scheduler is empty.
const never = simtime.Time(math.MaxInt64)

// Config describes a proxy.
type Config struct {
	// Listen is the local address clients send to, e.g. "127.0.0.1:0".
	Listen string
	// Upstream is the real server's address.
	Upstream string
	// MaxDatagram caps accepted datagram size (default 64 KiB). Larger
	// datagrams are dropped at the socket and counted, never handed to
	// the filter — a hostile peer cannot feed the layer unbounded input.
	MaxDatagram int
	// WriteTimeout bounds each forwarding write (default 5s), so a wedged
	// destination cannot stall the proxy forever.
	WriteTimeout time.Duration
	// Options configure the embedded PFI layer (stub, trace, rand, bus).
	Options []core.Option
}

// New starts a proxy. Stop it with Close.
func New(cfg Config) (*Proxy, error) {
	laddr, err := net.ResolveUDPAddr("udp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("interpose: listen address: %w", err)
	}
	uaddr, err := net.ResolveUDPAddr("udp", cfg.Upstream)
	if err != nil {
		return nil, fmt.Errorf("interpose: upstream address: %w", err)
	}
	lc, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, fmt.Errorf("interpose: listen: %w", err)
	}
	uc, err := net.DialUDP("udp", nil, uaddr)
	if err != nil {
		lc.Close()
		return nil, fmt.Errorf("interpose: dial upstream: %w", err)
	}

	sched := simtime.NewScheduler()
	p := &Proxy{
		listenConn:   lc,
		upstreamConn: uc,
		start:        time.Now(),
		maxDatagram:  cfg.MaxDatagram,
		writeTimeout: cfg.WriteTimeout,
		layer:        core.NewLayer(&stack.Env{Sched: sched, Node: "interpose"}, cfg.Options...),
		sched:        sched,
		wakeAt:       never,
		poke:         make(chan struct{}, 1),
		done:         make(chan struct{}),
		timerExit:    make(chan struct{}),
	}
	if p.maxDatagram <= 0 {
		p.maxDatagram = 64 * 1024
	}
	if p.writeTimeout <= 0 {
		p.writeTimeout = 5 * time.Second
	}
	// The PFI layer's "up" direction forwards to the upstream; "down"
	// forwards back to the client.
	p.layer.Wire(p.toClient, p.toUpstream)

	p.readers.Add(2)
	go p.serve(lc, p.layer.HandleUp, true)    // toward the upstream: the receive filter
	go p.serve(uc, p.layer.HandleDown, false) // toward the client: the send filter
	go p.runTimer()
	return p, nil
}

// Addr returns the proxy's listening address (for clients to dial).
func (p *Proxy) Addr() *net.UDPAddr {
	return p.listenConn.LocalAddr().(*net.UDPAddr)
}

// Layer exposes the embedded PFI layer so callers can install filter
// scripts and read stats. While the proxy runs, touch it only inside Do;
// after Drain or Close has returned it is quiescent and free to inspect.
func (p *Proxy) Layer() *core.Layer { return p.layer }

// Do runs fn on the caller's goroutine while holding the layer — the safe
// way to change scripts or read stats while traffic flows. fn takes effect
// at one position in each direction's datagram order. It must not call
// back into the proxy.
func (p *Proxy) Do(fn func(l *core.Layer)) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("interpose: proxy closed")
	}
	p.fireDue()
	fn(p.layer)
	p.rearm()
	return nil
}

// OversizedDropped reports how many datagrams exceeded Config.MaxDatagram
// and were discarded at the socket.
func (p *Proxy) OversizedDropped() int64 {
	return p.oversized.Load()
}

// ForeignDropped reports how many datagrams arrived on the listening
// socket from an address other than the first client's and were discarded
// there: the proxy has one upstream socket, so the upstream cannot tell two
// clients apart and every reply goes to the one client served.
func (p *Proxy) ForeignDropped() int64 {
	return p.foreign.Load()
}

// ReadErrors reports how many socket reads failed while the proxy was
// running and were ridden out — typically ECONNREFUSED on the connected
// upstream socket: a datagram forwarded before the upstream listened comes
// back as an ICMP error on the next receive.
func (p *Proxy) ReadErrors() int64 {
	return p.readErrors.Load()
}

// Drain shuts the proxy down gracefully: it stops accepting datagrams,
// waits for the readers to finish the ones they hold, lets delayed forwards
// already on the scheduler flush for up to timeout, then closes. When it
// returns no goroutine of the proxy is left, so the layer may be read
// without Do. Safe to call once; concurrent or repeated calls degrade to
// Close.
func (p *Proxy) Drain(timeout time.Duration) error {
	p.mu.Lock()
	already := p.closed || p.draining
	p.draining = true
	p.mu.Unlock()
	if already {
		return p.Close()
	}
	// Every read past this deadline fails immediately, so each reader
	// returns after the filter run it is in, if any.
	_ = p.listenConn.SetReadDeadline(time.Now())
	_ = p.upstreamConn.SetReadDeadline(time.Now())
	p.readers.Wait()

	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		idle := false
		if err := p.Do(func(*core.Layer) { idle = p.sched.Len() == 0 }); err != nil || idle {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return p.Close()
}

// Close shuts the proxy down, releases its sockets and waits for its
// goroutines: once it returns the layer is quiescent.
func (p *Proxy) Close() error {
	p.mu.Lock()
	first := !p.closed
	p.closed = true
	p.mu.Unlock()
	var err error
	if first {
		close(p.done)
		err = p.listenConn.Close()
		if err2 := p.upstreamConn.Close(); err == nil {
			err = err2
		}
	}
	p.readers.Wait()
	<-p.timerExit
	return err
}

// now maps the wall clock onto the proxy's virtual clock.
func (p *Proxy) now() simtime.Time {
	return simtime.Time(time.Since(p.start))
}

// fireDue advances the virtual clock to the wall clock and fires every
// scheduler event that has come due. Every filter run starts with it, so an
// event due at or before a datagram's arrival fires before that datagram is
// filtered and the clock a script reads through `now` never runs backwards.
func (p *Proxy) fireDue() {
	p.sched.AdvanceTo(p.now())
	for {
		next, ok := p.sched.Peek()
		if !ok || next > p.sched.Now() {
			return
		}
		p.sched.Step()
	}
}

// rearm pokes the timer goroutine when the work just done put an event on
// the scheduler ahead of the instant it is sleeping toward.
func (p *Proxy) rearm() {
	if next, ok := p.sched.Peek(); ok && next < p.wakeAt {
		p.wakeAt = next
		select {
		case p.poke <- struct{}{}:
		default: // a poke is already waiting; it will see this event too
		}
	}
}

// runTimer fires delayed and duplicated forwards when the wall clock
// reaches them. It is off the datagram path: a filter run wakes it only
// when the earliest event changes.
func (p *Proxy) runTimer() {
	defer close(p.timerExit)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		p.mu.Lock()
		p.fireDue()
		next, pending := p.sched.Peek()
		if !pending {
			next = never
		}
		p.wakeAt = next
		p.mu.Unlock()

		var due <-chan time.Time // nil, and so never ready, while nothing is pending
		if pending {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(time.Duration(next - p.now()))
			due = timer.C
		}
		select {
		case <-p.done:
			return
		case <-p.poke:
		case <-due:
		}
	}
}

// toUpstream is where a datagram that cleared the receive filter goes.
func (p *Proxy) toUpstream(m *message.Message) error {
	_ = p.upstreamConn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
	_, err := p.upstreamConn.Write(m.Bytes())
	return err
}

// toClient is where a datagram that cleared the send filter goes.
func (p *Proxy) toClient(m *message.Message) error {
	if !p.client.IsValid() {
		return errors.New("interpose: no client yet")
	}
	_ = p.listenConn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
	_, err := p.listenConn.WriteToUDPAddrPort(m.Bytes(), p.client)
	return err
}

// serve is a reader's loop: every datagram conn receives runs through
// handle — one direction of the layer — and out the other socket on this
// goroutine. The buffer is one byte larger than the cap so oversized
// datagrams are detectable rather than silently truncated.
func (p *Proxy) serve(conn *net.UDPConn, handle func(*message.Message) error, fromClients bool) {
	defer p.readers.Done()
	buf := make([]byte, p.maxDatagram+1)
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			// Once Drain or Close has begun a failed read means "stop";
			// before that it is the socket reporting on one datagram (see
			// ReadErrors) and every later datagram is still good.
			p.mu.Lock()
			stop := p.closed || p.draining
			p.mu.Unlock()
			if stop || errors.Is(err, net.ErrClosed) {
				return
			}
			p.readErrors.Add(1)
			continue
		}
		if n > p.maxDatagram {
			p.oversized.Add(1)
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		if fromClients && !p.client.IsValid() {
			p.client = from
		}
		if fromClients && from != p.client {
			p.foreign.Add(1)
		} else {
			p.fireDue()
			_ = handle(message.New(buf[:n]))
			p.rearm()
		}
		p.mu.Unlock()
	}
}
