package tcp_test

import (
	"runtime"
	"testing"
	"time"

	"pfi/internal/exp"
	"pfi/internal/tcp"
)

// TestConnSendBacklogAllocBudget: 1,000 Sends of one MSS behind a stalled
// window — 64 KB already queued, the receiver freeing one segment's worth
// per Send — allocate in proportion to the bytes sent, and for the queue
// nothing: it holds the slices Send was handed. The queue used to be one
// byte slice consumed by re-slicing, which gave its capacity away from the
// front: append kept running out of room and re-allocated and re-copied the
// whole backlog every few dozen Sends, and pump copied every payload out
// again. 10.5 bytes allocated per byte sent at PR 15, 6.6 when Send copied
// its argument into a chunk, 5.6 now (the segment's encoding, the message,
// its delivery into the receive buffer and out through the test's Consume,
// the ACK coming back, the trace entries).
func TestConnSendBacklogAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not stable under -race")
	}
	rig, err := exp.NewTCPRig(tcp.SunOS413())
	if err != nil {
		t.Fatal(err)
	}
	var server *tcp.Conn
	conn, err := rig.Dial(func(sc *tcp.Conn) {
		server = sc
		sc.SetAutoConsume(false)
	})
	if err != nil {
		t.Fatal(err)
	}
	mss := tcp.MSS
	if err := conn.Send(make([]byte, 64*1024)); err != nil {
		t.Fatal(err)
	}
	rig.W.RunFor(10 * time.Second)
	if server.RecvBuffered() == 0 || conn.UnackedSegments() != 0 {
		t.Fatalf("window not stalled: %d buffered at the receiver, %d segments in flight",
			server.RecvBuffered(), conn.UnackedSegments())
	}

	const sends = 1000
	payload := make([]byte, mss)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sends; i++ {
		server.Consume(mss)
		rig.W.RunFor(100 * time.Millisecond)
		if err := conn.Send(payload); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const budget = 7.2
	if perByte := float64(after.TotalAlloc-before.TotalAlloc) / float64(sends*mss); perByte > budget {
		t.Fatalf("%.1f bytes allocated per byte sent through a backlogged connection, budget is %.1f", perByte, budget)
	}
}
