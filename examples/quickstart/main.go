// Quickstart: script-driven fault injection in ~60 lines.
//
// We build a two-layer stack — a toy protocol on top, a PFI layer below —
// and install the paper's flagship receive-filter script: drop all ACK
// messages. Then we deliver a mixed stream and watch only the non-ACKs
// survive.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"os"
	"strconv"

	"pfi/internal/core"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// toyStub recognizes a one-byte-type protocol: 1=ACK, 2=NACK, 4=GACK.
type toyStub struct{}

func (toyStub) Protocol() string { return "toy" }

func (toyStub) Recognize(m *message.Message) (core.Info, error) {
	b, err := m.ByteAt(0)
	if err != nil {
		return core.Info{}, err
	}
	types := map[byte]string{1: "ACK", 2: "NACK", 4: "GACK"}
	typ, ok := types[b]
	if !ok {
		typ = "DATA"
	}
	return core.Info{Type: typ, Fields: core.FieldMap{
		"seq": strconv.Itoa(int(b >> 4)),
	}}, nil
}

func (toyStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return nil, fmt.Errorf("toy: generation not needed in this example")
}

func main() {
	sched := simtime.NewScheduler()
	env := &stack.Env{Sched: sched, Node: "demo"}

	// The PFI layer with the toy protocol's recognition stub.
	pfi := core.NewLayer(env, core.WithStub(toyStub{}))

	// The paper's example script (Section 3), almost verbatim.
	err := pfi.SetReceiveScript(`
		# Message types are ACK, NACK, and GACK.
		# This script drops all ACK messages.
		set type [msg_type cur_msg]
		if {$type eq "ACK"} {
			xDrop cur_msg
		}
	`)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	// A stack with just the PFI layer; the "application" prints arrivals.
	s := stack.New(env, pfi)
	s.OnDeliver(func(m *message.Message) error {
		info, _ := toyStub{}.Recognize(m)
		fmt.Printf("  app received: %s\n", info.Type)
		return nil
	})

	fmt.Println("delivering ACK, NACK, ACK, GACK, ACK from the network:")
	for _, b := range []byte{1, 2, 1, 4, 1} {
		if err := s.Deliver(message.New([]byte{b})); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	st := pfi.ReceiveFilter().Stats()
	fmt.Printf("\nfilter saw %d messages, dropped %d ACKs\n", st.Seen, st.Dropped)
}
