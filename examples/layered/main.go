// layered: the PFI technique is layer-agnostic — "no distinction between
// application-level protocols, interprocess communication protocols,
// network protocols, or device layer protocols." Here the same fault
// injector that manipulated TCP segments and GMP datagrams is spliced
// BELOW a fragmentation layer, where it sees (and kills) individual
// fragments that the application above never knows exist.
//
// app ──▶ frag (splits 2000 bytes into 4 fragments)
//
//	──▶ PFI (drops exactly one fragment of the second message)
//	        ──▶ wire
//
// Run: go run ./examples/layered
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"pfi/internal/core"
	"pfi/internal/frag"
	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/stack"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	w := netsim.NewWorld(8)
	var fragLayers []*frag.Layer
	var pfiLayers []*core.Layer
	var received [][]byte
	for _, name := range []string{"sender", "receiver"} {
		node, err := w.AddNode(name)
		if err != nil {
			return err
		}
		fl, err := frag.NewLayer(node.Env(), frag.WithMTU(512+frag.HeaderLen))
		if err != nil {
			return err
		}
		pl := core.NewLayer(node.Env())
		s := stack.New(node.Env(), fl, pl)
		s.OnDeliver(func(m *message.Message) error {
			received = append(received, m.CopyBytes())
			return nil
		})
		node.SetStack(s)
		fragLayers = append(fragLayers, fl)
		pfiLayers = append(pfiLayers, pl)
	}
	if err := w.Connect("sender", "receiver", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
		return err
	}

	// The fault: of the second message's four fragments, kill the third.
	// Fragments 1-4 belong to message one, 5-8 to message two.
	if err := pfiLayers[0].SetSendScript(`
		if {![info exists n]} { set n 0 }
		incr n
		if {$n == 7} {
			log "killing fragment $n"
			xDrop cur_msg
		}
	`); err != nil {
		return err
	}

	send := func(fill byte) error {
		m := message.New(bytes.Repeat([]byte{fill}, 2000)) // 4 fragments
		m.SetDst("receiver")
		node, _ := w.Node("sender")
		return node.Stack().Send(m)
	}
	fmt.Println("sending two 2000-byte messages (4 fragments each);")
	fmt.Println("the PFI layer below frag kills fragment 7 (message two, fragment 3)")
	if err := send('A'); err != nil {
		return err
	}
	if err := send('B'); err != nil {
		return err
	}
	w.RunFor(5 * time.Second) // before the 30 s reassembly timeout

	fmt.Printf("\nreceiver got %d complete message(s):\n", len(received))
	for _, msg := range received {
		fmt.Printf("  %d bytes of %q\n", len(msg), msg[0])
	}
	st := fragLayers[1].Stats()
	fmt.Printf("\nreceiver frag stats: %d fragments received, %d reassembled, %d pending\n",
		st.FragmentsRecv, st.Reassembled, fragLayers[1].PendingReassemblies())
	fmt.Println("message two waits for its missing fragment until the reassembly timeout fires")
	w.RunFor(time.Minute)
	fmt.Printf("after the timeout: %d pending, %d timed out\n",
		fragLayers[1].PendingReassemblies(), fragLayers[1].Stats().TimedOut)
	return nil
}
