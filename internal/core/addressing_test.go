package core

import (
	"fmt"
	"testing"
	"time"

	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/stack"
)

// TestReaddressedMessagesReachTheNodeTheyName: a layer above a's PFI layer
// gives every message it passes down b's world number, as a layer that had
// learned b's number would. The driver's send to c carries that stale
// number and still reaches c; the messages the filter injects — one
// inheriting the current message's destination, one addressed to b — are
// addressed by SetDst, which forgets any number, and reach the nodes they
// name.
func TestReaddressedMessagesReachTheNodeTheyName(t *testing.T) {
	w := netsim.NewWorld(1)
	w.SetDefaultLink(&netsim.LinkConfig{Latency: time.Millisecond})
	var got []string
	var drv *Driver
	var pfi *Layer
	for _, name := range []string{"a", "b", "c"} {
		n := w.MustAddNode(name)
		if name != "a" {
			s := stack.New(n.Env())
			s.OnDeliver(func(m *message.Message) error {
				got = append(got, fmt.Sprintf("%s got %x from %s(%d) as %d", name, m.Bytes(), m.Src(), m.SrcNo(), m.DstNo()))
				return nil
			})
			n.SetStack(s)
			continue
		}
		drv = NewDriver(n.Env())
		stale := stack.NewFunc("stale", func(m *message.Message, next stack.Sink) error {
			m.SetDstNo(2) // b's number, whatever the destination
			return next(m)
		}, nil)
		pfi = NewLayer(n.Env(), WithStub(demoStub{}))
		n.SetStack(stack.New(n.Env(), drv, stale, pfi))
	}
	if err := pfi.SetSendScript(`if {[msg_type cur_msg] eq "DATA"} {
		xInject ACK {seq 9}
		xInject NACK {seq 8 dst b}
	}`); err != nil {
		t.Fatal(err)
	}
	if err := drv.Send([]byte{demoDATA, 1}, "c"); err != nil {
		t.Fatal(err)
	}
	w.Run()
	// The injections go out during the filter run, before the DATA itself.
	want := []string{"c got 0109 from a(1) as 3", "b got 0208 from a(1) as 2", "c got 0301 from a(1) as 3"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("arrivals:\n%v\nwant:\n%v", got, want)
	}
}
