// tcp-retransmit: rediscover the retransmission behaviour of two vendor
// TCP stacks — the way the paper's Experiment 1 did — without touching the
// TCP code, only by black-holing traffic in a PFI filter script.
//
// The SunOS 4.1.3 (BSD) profile retransmits 12 times with exponential
// backoff up to a 64-second plateau, then sends a reset. Solaris 2.3 backs
// off from a ~330 ms floor and abruptly closes after its 9-timeout global
// error budget, without a reset.
//
// Run: go run ./examples/tcp-retransmit
package main

import (
	"fmt"
	"os"
	"time"

	"pfi/internal/core"
	"pfi/internal/netsim"
	"pfi/internal/stack"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

func main() {
	for _, prof := range []tcp.Profile{tcp.SunOS413(), tcp.Solaris23()} {
		if err := probe(prof); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func probe(prof tcp.Profile) error {
	w := netsim.NewWorld(42)

	// The vendor machine under test.
	vendorNode := w.MustAddNode("vendor")
	vendorLog := trace.NewLog()
	vendorTCP := tcp.NewLayer(vendorNode.Env(), prof, tcp.WithTrace(vendorLog))
	vendorNode.SetStack(stack.New(vendorNode.Env(), vendorTCP))

	// Our instrumented machine: TCP with a PFI layer spliced below it.
	xkNode := w.MustAddNode("xkernel")
	xkTCP := tcp.NewLayer(xkNode.Env(), tcp.XKernel())
	pfi := core.NewLayer(xkNode.Env(), core.WithStub(tcp.PFIStub{}))
	xkNode.SetStack(stack.New(xkNode.Env(), xkTCP, pfi))

	if err := w.Connect("vendor", "xkernel", netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		return err
	}

	// Open a connection and move a little data.
	if err := xkTCP.Listen(80, func(*tcp.Conn) {}); err != nil {
		return err
	}
	conn, err := vendorTCP.Connect("xkernel", 80)
	if err != nil {
		return err
	}
	var closeReason string
	conn.OnClose(func(r string) { closeReason = r })
	w.RunFor(time.Second)

	// The fault: our receive filter silently drops everything.
	if err := pfi.SetReceiveScript(`xDrop cur_msg`); err != nil {
		return err
	}
	if err := conn.Send([]byte("this segment is doomed")); err != nil {
		return err
	}
	w.RunFor(time.Hour)

	rtx := vendorLog.Times("vendor", "retransmit", "DATA")
	report := trace.AnalyzeBackoff(rtx, 0.25)
	fmt.Printf("%s:\n", prof.Name)
	fmt.Printf("  retransmissions: %d\n", len(rtx))
	fmt.Printf("  backoff gaps:   ")
	for _, g := range report.Gaps {
		fmt.Printf(" %.2fs", g.Seconds())
	}
	fmt.Println()
	if report.PlateauReached {
		fmt.Printf("  upper bound:     %.0fs\n", report.Plateau.Seconds())
	} else {
		fmt.Printf("  upper bound:     none established before the close\n")
	}
	resets := len(vendorLog.Filter("vendor", "reset", ""))
	fmt.Printf("  reset sent:      %v\n", resets > 0)
	fmt.Printf("  close reason:    %s\n\n", closeReason)
	return nil
}
