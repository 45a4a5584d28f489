package rudp

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// receiver is a bare rudp layer fed DATA frames "from a" by hand; its acks
// go nowhere.
type receiver struct {
	l   *Layer
	got []string
}

func newReceiver() *receiver {
	r := &receiver{l: NewLayer(&stack.Env{Sched: simtime.NewScheduler(), Node: "b"})}
	r.l.Wire(func(*message.Message) error { return nil }, nil)
	r.l.OnDeliver(func(src string, payload []byte) { r.got = append(r.got, string(payload)) })
	return r
}

// data delivers one reliable frame and reports whether it was handed up
// (true) or suppressed as a duplicate (false).
func (r *receiver) data(t *testing.T, seq uint32) bool {
	t.Helper()
	before := len(r.got)
	m := Frame{Kind: KindData, Seq: seq, Payload: []byte(fmt.Sprint(seq))}.Encode()
	m.SetSrc("a")
	if err := r.l.HandleUp(m); err != nil {
		t.Fatal(err)
	}
	return len(r.got) > before
}

// TestDedupStateStaysConstant: a long in-order run leaves a floor and an
// empty exception set — not one map entry per datagram, which is what every
// capture and fork used to copy — and old duplicates and arrivals above the
// floor are still told apart.
func TestDedupStateStaysConstant(t *testing.T) {
	r := newReceiver()
	const n = 50_000
	for seq := uint32(1); seq <= n; seq++ {
		if !r.data(t, seq) {
			t.Fatalf("in-order seq %d classified as a duplicate", seq)
		}
	}
	p := r.l.peers["a"]
	if p.floor != n || len(p.above) != 0 {
		t.Fatalf("after %d in-order datagrams: floor %d, %d exceptions", n, p.floor, len(p.above))
	}
	if sv := r.l.SnapshotState().(*layerState).peers["a"]; sv.floor != n || sv.above != nil {
		t.Fatalf("capture holds floor %d and %d exceptions", sv.floor, len(sv.above))
	}
	for _, step := range []struct {
		seq        uint32
		up         bool
		floor      uint32
		exceptions int
	}{
		{7, false, n, 0},         // a late duplicate of an old seq
		{n + 2, true, n, 1},      // out of order, above the floor
		{n + 2, false, n, 1},     // and its duplicate
		{n + 4, true, n, 2},      //
		{n + 1, true, n + 2, 1},  // fills the gap: the floor absorbs n+2
		{n + 3, true, n + 4, 0},  //
		{n + 1, false, n + 4, 0}, //
		{0, true, n + 4, 1},      // senders number from 1; a stray 0 is still delivered once
		{0, false, n + 4, 1},     //
	} {
		if up := r.data(t, step.seq); up != step.up {
			t.Fatalf("seq %d handed up = %v, want %v", step.seq, up, step.up)
		}
		if p.floor != step.floor || len(p.above) != step.exceptions {
			t.Fatalf("after seq %d: floor %d with %d exceptions, want %d with %d",
				step.seq, p.floor, len(p.above), step.floor, step.exceptions)
		}
	}
	if got := len(r.got); got != n+5 {
		t.Fatalf("%d payloads handed up, want %d", got, n+5)
	}
}

// TestDedupMatchesKeepEverySeq drives random arrivals — in order, out of
// order, repeated, zero and the top of the range — through the layer and
// through the definition it replaced, a set of every seq ever delivered,
// with a capture early on and a restore later: verdicts must agree at every
// step, and the replay after the restore must repeat them.
func TestDedupMatchesKeepEverySeq(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arrivals := make([]uint32, 600)
		next := uint32(1)
		for i := range arrivals {
			switch r := rng.Intn(10); {
			case r < 5:
				arrivals[i] = next
				next++
			case r < 7:
				arrivals[i] = next + uint32(rng.Intn(4)) // leaves a gap
			case r < 9:
				arrivals[i] = uint32(rng.Intn(int(next) + 2)) // a repeat, or 0
			default:
				arrivals[i] = math.MaxUint32 - uint32(rng.Intn(2))
			}
		}
		r := newReceiver()
		seen := map[uint32]bool{}
		run := func(from, to int) []bool {
			verdicts := make([]bool, 0, to-from)
			for _, seq := range arrivals[from:to] {
				up := r.data(t, seq)
				if up == seen[seq] {
					t.Fatalf("seed %d: seq %d handed up = %v but the reference had seen it = %v", seed, seq, up, seen[seq])
				}
				seen[seq] = true
				verdicts = append(verdicts, up)
			}
			return verdicts
		}
		run(0, 200)
		captured := r.l.SnapshotState()
		seenAtCapture := maps.Clone(seen)
		first := run(200, 600)

		r.l.RestoreState(captured)
		seen = maps.Clone(seenAtCapture)
		if again := run(200, 600); !reflect.DeepEqual(again, first) {
			t.Fatalf("seed %d: replay after restore diverged", seed)
		}
		r.l.RestoreState(captured) // a capture restores more than once
		seen = maps.Clone(seenAtCapture)
		if again := run(200, 600); !reflect.DeepEqual(again, first) {
			t.Fatalf("seed %d: second replay diverged", seed)
		}
	}
}
