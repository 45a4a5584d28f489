package tcp_test

import (
	"bytes"
	"testing"
	"time"

	"pfi/internal/exp"
	"pfi/internal/tcp"
)

// TestSnapshotCopiesOutOfOrderData: a snapshot taken while out-of-order
// segments wait for a gap to fill holds their bytes, not the buffers. After
// the capture the gap fills, the queue drains, and a second gap refills the
// drained buffers with other bytes; restoring the snapshot twice must still
// replay the stream the first run delivered.
func TestSnapshotCopiesOutOfOrderData(t *testing.T) {
	r, err := exp.NewTCPRig(tcp.SunOS413())
	if err != nil {
		t.Fatal(err)
	}
	var got []byte
	c, err := r.Dial(func(sc *tcp.Conn) {
		sc.OnData(func(d []byte) { got = append(got, d...) })
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first segment of every four is late; retransmissions are dropped,
	// so the segments behind it wait in the receiver's out-of-order queue.
	if err := r.Vendor.PFI.SetSendScript(`
		if {[msg_type cur_msg] eq "DATA"} {
			set seq [msg_field cur_msg seq]
			if {[info exists seen_$seq]} {
				xDrop cur_msg
			} else {
				set seen_$seq 1
				if {![info exists n]} { set n 0 }
				if {$n % 4 == 0} { xDelay cur_msg 3000 }
				incr n
			}
		}
	`); err != nil {
		t.Fatal(err)
	}
	batch := func(letters string) []byte {
		var b []byte
		for _, l := range []byte(letters) {
			b = append(b, bytes.Repeat([]byte{l}, tcp.MSS)...)
		}
		return b
	}
	first, second := batch("ABCD"), batch("WXYZ")
	if err := c.Send(first); err != nil {
		t.Fatal(err)
	}
	r.W.RunFor(2 * time.Second)
	if len(got) != 0 {
		t.Fatalf("%d bytes delivered before the gap filled", len(got))
	}
	snap := r.W.Snapshots().Capture()

	rest := func() []byte {
		got = got[:0]
		r.W.RunFor(10 * time.Second) // the gap fills and the queue drains
		if err := c.Send(second); err != nil {
			t.Fatal(err)
		}
		r.W.RunFor(10 * time.Second) // a second gap takes the drained buffers
		return append([]byte(nil), got...)
	}
	want := rest()
	if !bytes.Equal(want, append(first[:len(first):len(first)], second...)) {
		t.Fatalf("the first run delivered %d bytes, not both batches in order", len(want))
	}
	for i := 1; i <= 2; i++ {
		snap.Restore()
		if replay := rest(); !bytes.Equal(replay, want) {
			t.Fatalf("restore %d delivered %d bytes that differ from the first run's %d", i, len(replay), len(want))
		}
	}
}
