// Command pfiproxy runs the PFI technique against REAL traffic: a UDP
// interposer that applies send/receive filter scripts to live datagrams —
// the paper's fault-injection layer in the shape of a modern
// Toxiproxy-style proxy.
//
// Usage:
//
//	pfiproxy -listen 127.0.0.1:7000 -upstream 127.0.0.1:5353 \
//	         -recv-script drop_half.tcl -send-script delay.tcl
//
// Point the client at the -listen address; the upstream server needs no
// changes. Scripts use the same commands as the simulated experiments
// (xDrop, xDelay, xDuplicate, msg_set_byte, coin, ...).
//
// Datagrams larger than -max-datagram are dropped at the socket and
// counted; forwarding writes carry deadlines so a wedged peer cannot
// stall the proxy. The first ctrl-c drains gracefully — no new datagrams
// are accepted, in-flight delayed forwards flush for up to
// -drain-timeout, stats print, and the proxy exits 0. A second ctrl-c
// forces an immediate exit.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"pfi/internal/core"
	"pfi/internal/diag"
	"pfi/internal/interpose"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "address to accept client traffic on")
	upstream := flag.String("upstream", "", "address of the real server (required)")
	sendScript := flag.String("send-script", "", "filter script file for traffic toward clients")
	recvScript := flag.String("recv-script", "", "filter script file for traffic toward the upstream")
	maxDgram := flag.Int("max-datagram", 64*1024, "drop datagrams larger than this many bytes")
	drainTO := flag.Duration("drain-timeout", 3*time.Second, "how long ctrl-c waits for in-flight traffic to flush")
	flag.Parse()

	if err := run(*listen, *upstream, *sendScript, *recvScript, *maxDgram, *drainTO); err != nil {
		fmt.Fprintln(os.Stderr, "pfiproxy:", err)
		os.Exit(1)
	}
}

func run(listen, upstream, sendScript, recvScript string, maxDgram int, drainTO time.Duration) error {
	if upstream == "" {
		return fmt.Errorf("-upstream is required")
	}
	p, err := interpose.New(interpose.Config{Listen: listen, Upstream: upstream, MaxDatagram: maxDgram})
	if err != nil {
		return err
	}
	defer p.Close()

	install := func(path string, set func(l *core.Layer, src string) error) error {
		if path == "" {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var scriptErr error
		if err := p.Do(func(l *core.Layer) {
			scriptErr = set(l, string(src))
		}); err != nil {
			return err
		}
		return scriptErr
	}
	if err := install(sendScript, func(l *core.Layer, src string) error {
		return l.SetSendScript(src)
	}); err != nil {
		return fmt.Errorf("send script: %w", err)
	}
	if err := install(recvScript, func(l *core.Layer, src string) error {
		return l.SetReceiveScript(src)
	}); err != nil {
		return fmt.Errorf("receive script: %w", err)
	}

	fmt.Printf("pfiproxy: listening on %s, upstream %s\n", p.Addr(), upstream)
	fmt.Println("pfiproxy: ctrl-c to drain and stop")

	it := diag.NotifyInterrupt(nil,
		func() { fmt.Println("\npfiproxy: draining (ctrl-c again to force quit)") },
		func() { fmt.Fprintln(os.Stderr, "pfiproxy: forced exit") })
	defer it.Stop()
	<-it.Context().Done()

	if err := p.Drain(drainTO); err != nil {
		return err
	}
	// Drain returns once the readers and the timer goroutine have exited,
	// so the layer is quiescent.
	recvStats := p.Layer().ReceiveFilter().Stats()
	sendStats := p.Layer().SendFilter().Stats()
	fmt.Printf("pfiproxy: toward upstream: %+v\n", recvStats)
	fmt.Printf("pfiproxy: toward clients:  %+v\n", sendStats)
	if n := p.OversizedDropped(); n > 0 {
		fmt.Printf("pfiproxy: dropped %d oversized datagram(s)\n", n)
	}
	if n := p.ForeignDropped(); n > 0 {
		fmt.Printf("pfiproxy: dropped %d datagram(s) from other clients (one client per proxy: the first sender)\n", n)
	}
	if n := p.ReadErrors(); n > 0 {
		fmt.Printf("pfiproxy: rode out %d socket read error(s) (e.g. the upstream was not listening yet)\n", n)
	}
	return nil
}
