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
package interpose

import (
	"errors"
	"fmt"
	"net"
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
	layer        *core.Layer
	sched        *simtime.Scheduler
	start        time.Time
	maxDatagram  int
	writeTimeout time.Duration
	oversized    atomic.Int64

	mu         sync.Mutex // guards actions, closed, draining
	actions    chan action
	closed     bool
	draining   bool
	done       chan struct{}
	loopExit   chan struct{}
	clientAddr *net.UDPAddr // last client seen (single-client proxy)
}

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
	// destination cannot stall the event loop forever.
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
	env := &stack.Env{Sched: sched, Node: "interpose"}
	layer := core.NewLayer(env, cfg.Options...)

	maxDatagram := cfg.MaxDatagram
	if maxDatagram <= 0 {
		maxDatagram = 64 * 1024
	}
	writeTimeout := cfg.WriteTimeout
	if writeTimeout <= 0 {
		writeTimeout = 5 * time.Second
	}
	p := &Proxy{
		listenConn:   lc,
		upstreamConn: uc,
		layer:        layer,
		sched:        sched,
		start:        time.Now(),
		maxDatagram:  maxDatagram,
		writeTimeout: writeTimeout,
		actions:      make(chan action, 256),
		done:         make(chan struct{}),
		loopExit:     make(chan struct{}),
	}

	// The PFI layer's "up" direction forwards to the upstream; "down"
	// forwards back to the client.
	s := stack.New(env, layer)
	s.OnDeliver(func(m *message.Message) error { // cleared the receive filter
		_ = p.upstreamConn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
		_, err := p.upstreamConn.Write(m.Bytes())
		return err
	})
	s.OnTransmit(func(m *message.Message) error { // cleared the send filter
		p.mu.Lock()
		addr := p.clientAddr
		p.mu.Unlock()
		if addr == nil {
			return errors.New("interpose: no client yet")
		}
		_ = p.listenConn.SetWriteDeadline(time.Now().Add(p.writeTimeout))
		_, err := p.listenConn.WriteToUDP(m.Bytes(), addr)
		return err
	})

	go func() {
		p.loop(s)
		close(p.loopExit)
	}()
	go p.readClient()
	go p.readUpstream()
	return p, nil
}

// Addr returns the proxy's listening address (for clients to dial).
func (p *Proxy) Addr() *net.UDPAddr {
	return p.listenConn.LocalAddr().(*net.UDPAddr)
}

// Layer exposes the embedded PFI layer so callers can install filter
// scripts and read stats. Scripts must be installed via Do to stay on the
// proxy's event loop.
func (p *Proxy) Layer() *core.Layer { return p.layer }

// Do runs fn on the proxy's event loop and waits for it — the safe way to
// change scripts or read stats while traffic flows.
func (p *Proxy) Do(fn func(l *core.Layer)) error {
	doneCh := make(chan struct{})
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("interpose: proxy closed")
	}
	p.actions <- action{fn: func() {
		fn(p.layer)
		close(doneCh)
	}}
	p.mu.Unlock()
	select {
	case <-doneCh:
		return nil
	case <-p.done:
		return errors.New("interpose: proxy closed")
	}
}

// OversizedDropped reports how many datagrams exceeded Config.MaxDatagram
// and were discarded at the socket.
func (p *Proxy) OversizedDropped() int64 {
	return p.oversized.Load()
}

// Drain shuts the proxy down gracefully: it stops accepting datagrams,
// lets in-flight work — queued actions and delayed forwards already on
// the scheduler — flush for up to timeout, then closes the sockets. Safe
// to call once; concurrent or repeated calls degrade to Close.
func (p *Proxy) Drain(timeout time.Duration) error {
	p.mu.Lock()
	already := p.closed || p.draining
	p.draining = true
	p.mu.Unlock()
	if already {
		return p.Close()
	}
	// Wake the reader goroutines; every read past this deadline fails
	// immediately, so no new datagrams enter the pipeline.
	_ = p.listenConn.SetReadDeadline(time.Now())
	_ = p.upstreamConn.SetReadDeadline(time.Now())

	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		idle := false
		if err := p.Do(func(*core.Layer) { idle = p.sched.Len() == 0 }); err != nil {
			break
		}
		if idle {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	err := p.Close()
	<-p.loopExit // after this, the layer is quiescent and safe to inspect
	return err
}

// Close shuts the proxy down and releases its sockets.
func (p *Proxy) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	close(p.done)
	err1 := p.listenConn.Close()
	err2 := p.upstreamConn.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// action is one unit of event-loop work: either an arbitrary closure
// (script changes, stats reads) or one inbound datagram tagged with its
// direction.
type action struct {
	fn   func()
	data []byte
	up   bool // true: client→upstream (receive filter); false: send filter
}

// now maps the wall clock onto the proxy's virtual clock.
func (p *Proxy) now() simtime.Time {
	return simtime.Time(time.Since(p.start))
}

// loop is the single goroutine that owns the scheduler and the PFI layer.
// Incoming datagrams and script changes arrive as actions; delayed
// forwards are scheduler events fired when the wall clock catches up.
func (p *Proxy) loop(s *stack.Stack) {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		// Fire everything due by wall-clock now.
		p.sched.AdvanceTo(p.now())
		for {
			next, ok := p.sched.Peek()
			if !ok || next > p.sched.Now() {
				break
			}
			p.sched.Step()
		}
		// Sleep until the next event or the next action.
		wait := time.Hour
		if next, ok := p.sched.Peek(); ok {
			wait = time.Duration(next - p.now())
			if wait < 0 {
				wait = 0
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-p.done:
			return
		case a := <-p.actions:
			p.runAction(a)
		case <-timer.C:
		}
	}
}

// runAction executes one dequeued action: a closure, or one datagram
// through the filter of its direction. Actions run strictly in queue
// order, so datagrams of one direction are filtered in arrival order and
// a Do() closure runs at its queue position.
func (p *Proxy) runAction(a action) {
	switch {
	case a.fn != nil:
		a.fn()
	case a.up:
		_ = p.layer.HandleUp(message.New(a.data))
	default:
		_ = p.layer.HandleDown(message.New(a.data))
	}
}

// readClient pumps datagrams from clients into the receive filter.
// The buffer is one byte larger than the cap so oversized datagrams are
// detectable rather than silently truncated.
func (p *Proxy) readClient() {
	buf := make([]byte, p.maxDatagram+1)
	for {
		n, addr, err := p.listenConn.ReadFromUDP(buf)
		if err != nil {
			return // closed or draining
		}
		if n > p.maxDatagram {
			p.oversized.Add(1)
			continue
		}
		data := make([]byte, n)
		copy(data, buf[:n])
		p.mu.Lock()
		p.clientAddr = addr
		closed := p.closed
		if !closed {
			// Toward the upstream: the receive filter.
			p.actions <- action{data: data, up: true}
		}
		p.mu.Unlock()
		if closed {
			return
		}
	}
}

// readUpstream pumps datagrams from the upstream into the send filter.
func (p *Proxy) readUpstream() {
	buf := make([]byte, p.maxDatagram+1)
	for {
		n, err := p.upstreamConn.Read(buf)
		if err != nil {
			return // closed or draining
		}
		if n > p.maxDatagram {
			p.oversized.Add(1)
			continue
		}
		data := make([]byte, n)
		copy(data, buf[:n])
		p.mu.Lock()
		closed := p.closed
		if !closed {
			// Toward the client: the send filter.
			p.actions <- action{data: data, up: false}
		}
		p.mu.Unlock()
		if closed {
			return
		}
	}
}
