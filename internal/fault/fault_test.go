package fault

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pfi/internal/core"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// tinyStub: byte 0 is the type (1=HB, 2=DATA).
type tinyStub struct{}

func (tinyStub) Protocol() string { return "tiny" }

func (tinyStub) Recognize(m *message.Message) (core.Info, error) {
	b, err := m.ByteAt(0)
	return core.Info{Type: map[byte]string{1: "HB", 2: "DATA"}[b]}, err
}

func (tinyStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return nil, fmt.Errorf("tiny: no generation")
}

type rig struct {
	sched *simtime.Scheduler
	layer *core.Layer
	stk   *stack.Stack
	out   int      // messages that reached the network
	in    int      // messages that reached the app
	wire  [][]byte // the bytes of each message that reached the network
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{sched: simtime.NewScheduler()}
	env := &stack.Env{Sched: r.sched, Node: "n"}
	r.layer = core.NewLayer(env, core.WithStub(tinyStub{}))
	r.stk = stack.New(env, r.layer)
	r.stk.OnTransmit(func(m *message.Message) error {
		r.out++
		r.wire = append(r.wire, append([]byte(nil), m.Bytes()...))
		return nil
	})
	r.stk.OnDeliver(func(m *message.Message) error { r.in++; return nil })
	return r
}

// inject composes the snippets of kinds ks, each under guard, into the
// script of dir's filter.
func (r *rig) inject(t *testing.T, dir core.Direction, guard string, param int, ks ...Kind) {
	t.Helper()
	var src string
	for _, k := range ks {
		s, err := k.Snippet(guard, param, "")
		if err != nil {
			t.Fatal(err)
		}
		src += s
	}
	set := r.layer.SetSendScript
	if dir == core.Receive {
		set = r.layer.SetReceiveScript
	}
	if err := set(src); err != nil {
		t.Fatalf("%v %v: %v", ks, dir, err)
	}
}

// pump sends and delivers n messages of type typ, then runs the clock out.
func (r *rig) pump(t *testing.T, n int, typ byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		r.send(t, []byte{typ})
		if err := r.stk.Deliver(message.New([]byte{typ})); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.Run()
}

// send sends one message per payload.
func (r *rig) send(t *testing.T, payloads ...[]byte) {
	t.Helper()
	for _, b := range payloads {
		if err := r.stk.Send(message.New(b)); err != nil {
			t.Fatal(err)
		}
	}
}

// numbered returns n DATA payloads carrying 0..n-1 in byte 1.
func numbered(n int) [][]byte {
	ps := make([][]byte, n)
	for i := range ps {
		ps[i] = []byte{2, byte(i)}
	}
	return ps
}

// intnLog records the bounds Draw passes to Intn and answers the largest.
type intnLog struct{ ns []int }

func (l *intnLog) Intn(n int) int { l.ns = append(l.ns, n); return n - 1 }

// TestKindTable pins every kind's value, name, model per direction and
// parameter range: floor, largest draw, and the Intn bound it draws with
// (none for a kind without a parameter). The formula base + step*Intn(n)
// gives the least draw as the floor.
func TestKindTable(t *testing.T) {
	rows := []struct {
		k          Kind
		value      int
		name       string
		send, recv Model
		floor, max int
		intn       []int
	}{
		{Drop, 1, "drop", SendOmission, ReceiveOmission, 0, 0, nil},
		{DropFirstN, 2, "drop-first-n", SendOmission, ReceiveOmission, 1, 5, []int{5}},
		{Delay, 3, "delay", Timing, Timing, 500, 6000, []int{12}},
		{Duplicate, 4, "duplicate", Byzantine, Byzantine, 0, 0, nil},
		{Corrupt, 5, "corrupt", Byzantine, Byzantine, 0, 63, []int{64}},
		{Reorder, 6, "reorder", Timing, Timing, 0, 0, nil},
	}
	if got := Kinds(); len(got) != len(rows) {
		t.Fatalf("Kinds() = %v, want %d kinds", got, len(rows))
	}
	for i, w := range rows {
		k := Kinds()[i]
		if k != w.k || int(k) != w.value || k.String() != w.name {
			t.Errorf("Kinds()[%d] = %d %q, want %d %q", i, int(k), k, w.value, w.name)
		}
		if k.Model(core.Send) != w.send || k.Model(core.Receive) != w.recv {
			t.Errorf("%v: models send %v receive %v, want %v %v",
				k, k.Model(core.Send), k.Model(core.Receive), w.send, w.recv)
		}
		hi := &intnLog{}
		if got := k.Draw(hi); got != w.max || k.Floor() != w.floor {
			t.Errorf("%v: largest draw %d, floor %d, want %d, %d", k, got, k.Floor(), w.max, w.floor)
		}
		if !reflect.DeepEqual(hi.ns, w.intn) {
			t.Errorf("%v: drew Intn%v, want Intn%v", k, hi.ns, w.intn)
		}
	}
	bad := Kind(99)
	if bad.String() != "Kind(99)" || bad.Model(core.Send) != 0 || bad.Floor() != 0 {
		t.Errorf("Kind(99): %q, model %v, floor %d", bad, bad.Model(core.Send), bad.Floor())
	}
	if _, err := bad.Snippet("1", 0, ""); err == nil {
		t.Error("Kind(99) rendered a snippet")
	}
}

func TestSeverityOrdering(t *testing.T) {
	ms := Models()
	if len(ms) != 7 || ms[0] != ProcessCrash || ms[6] != Byzantine {
		t.Fatalf("Models() = %v, want the 7 models from process-crash to byzantine", ms)
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Severity() <= ms[i-1].Severity() {
			t.Errorf("%v not more severe than %v", ms[i], ms[i-1])
		}
	}
}

// Property: Covers is a partial order (reflexive, antisymmetric,
// transitive) over valid models.
func TestPropertyCoversPartialOrder(t *testing.T) {
	f := func(a, b, c uint8) bool {
		ma := Model(a%7) + 1
		mb := Model(b%7) + 1
		mc := Model(c%7) + 1
		antisymmetric := !(ma.Covers(mb) && mb.Covers(ma) && ma != mb)
		transitive := !(ma.Covers(mb) && mb.Covers(mc) && !ma.Covers(mc))
		return ma.Covers(ma) && antisymmetric && transitive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestModelString(t *testing.T) {
	if ProcessCrash.String() != "process-crash" {
		t.Errorf("String = %q", ProcessCrash)
	}
	if Model(99).String() != "Model(99)" {
		t.Errorf("String = %q", Model(99))
	}
	if Model(99).Covers(Drop.Model(core.Send)) || Byzantine.Covers(0) {
		t.Error("an undefined model takes part in the order")
	}
}

func TestSeverityCoversIsTotalOnList(t *testing.T) {
	ms := Models()
	for i, a := range ms {
		for j, b := range ms {
			if (i >= j) != a.Covers(b) {
				t.Errorf("Covers(%v,%v) = %v, want %v", a, b, a.Covers(b), i >= j)
			}
		}
	}
}

// A crash is a drop on both filters from its start on, with the window's
// end left open.
func TestProcessCrashHaltsBothDirections(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(5*time.Second, 0, "", 0), 0, Drop)
	r.inject(t, core.Receive, Guard(5*time.Second, 0, "", 0), 0, Drop)
	r.pump(t, 3, 2) // before the crash: everything flows
	if r.out != 3 || r.in != 3 {
		t.Fatalf("pre-crash out=%d in=%d, want 3/3", r.out, r.in)
	}
	r.sched.RunFor(6 * time.Second)
	r.pump(t, 3, 2) // after the crash: silence
	if r.out != 3 || r.in != 3 {
		t.Fatalf("post-crash out=%d in=%d, want still 3/3", r.out, r.in)
	}
}

func TestSendOmissionOnlyOutbound(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "", 0), 0, Drop)
	r.pump(t, 5, 2)
	if r.out != 0 || r.in != 5 {
		t.Fatalf("send omission: out=%d in=%d, want 0/5", r.out, r.in)
	}
}

func TestReceiveOmissionOnlyInbound(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Receive, Guard(0, 0, "", 0), 0, Drop)
	r.pump(t, 5, 2)
	if r.in != 0 || r.out != 5 {
		t.Fatalf("receive omission: in=%d out=%d, want 0/5", r.in, r.out)
	}
}

func TestGeneralOmissionProbabilistic(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "", 0.5), 0, Drop)
	r.inject(t, core.Receive, Guard(0, 0, "", 0.5), 0, Drop)
	r.pump(t, 400, 2)
	if r.out < 120 || r.out > 280 {
		t.Fatalf("p=0.5 omission let %d/400 out", r.out)
	}
	if r.in < 120 || r.in > 280 {
		t.Fatalf("p=0.5 omission let %d/400 in", r.in)
	}
}

func TestOmissionWindowEnds(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(time.Second, 2*time.Second, "", 0), 0, Drop)
	r.pump(t, 1, 2) // t=0: passes
	r.sched.RunFor(1500 * time.Millisecond)
	r.pump(t, 1, 2) // t=1.5s: inside window, dropped
	r.sched.RunFor(2 * time.Second)
	r.pump(t, 1, 2) // t=3.5s: window over, passes
	if r.out != 2 {
		t.Fatalf("windowed omission let %d out, want 2", r.out)
	}
}

func TestTypeGlobRestrictsFault(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "HB", 0), 0, Drop)
	r.pump(t, 3, 1) // heartbeats: dropped
	r.pump(t, 3, 2) // data: passes
	if r.out != 3 {
		t.Fatalf("glob-restricted omission let %d out, want 3 DATA only", r.out)
	}
}

func TestTimingFailureDelays(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "", 0), 10_000, Delay)
	r.send(t, []byte{2})
	if r.out != 0 {
		t.Fatal("timing failure forwarded immediately")
	}
	r.sched.Run()
	if r.out != 1 || r.sched.Now() != simtime.Time(10*time.Second) {
		t.Fatalf("forwarded %d at %v, want 1 at 10 s", r.out, r.sched.Now())
	}
}

func TestByzantineCorruption(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "", 0), 1, Corrupt)
	r.send(t, []byte{2, 0x0F}, []byte{2}) // the second is too short: untouched
	if want := [][]byte{{2, 0xF0}, {2}}; !reflect.DeepEqual(r.wire, want) {
		t.Fatalf("wire carried %x, want %x", r.wire, want)
	}
}

func TestByzantineDuplicate(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "", 0), 0, Duplicate)
	r.send(t, numbered(10)...)
	r.sched.Run()
	if r.out != 20 {
		t.Fatalf("duplicate fault forwarded %d, want 20", r.out)
	}
}

func TestReorderInvertsPairs(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "", 0), 0, Reorder)
	r.send(t, numbered(10)...)
	r.sched.Run()
	want := numbered(10)
	for i := 0; i < len(want); i += 2 {
		want[i], want[i+1] = want[i+1], want[i]
	}
	if !reflect.DeepEqual(r.wire, want) {
		t.Fatalf("reorder forwarded %x, want %x", r.wire, want)
	}
}

// Corrupt, duplicate and reorder compose on one filter, each under its own
// coin, as examples/byzantine composes them. A held message is duplicated
// too: its copies go out on their own schedule while the original waits on
// the hold queue, so more copies leave than there are messages the hold
// spared.
func TestByzantineMixedArms(t *testing.T) {
	r := newRig(t)
	r.inject(t, core.Send, Guard(0, 0, "", 0.7), 1, Corrupt, Duplicate, Reorder)
	r.send(t, numbered(100)...)
	r.sched.Run()
	st := r.layer.SendFilter().Stats()
	if r.out != 99+st.Duplicated || st.Duplicated <= 100-st.Held || st.Held == 0 {
		t.Fatalf("mixed byzantine: out=%d %+v", r.out, st)
	}
}

// Every model a kind realizes has scripts that parse and run, in the
// direction that realizes it; the kinds realize exactly these models.
func TestScriptsCompileForEveryModel(t *testing.T) {
	realized := map[Model]bool{}
	for _, k := range Kinds() {
		for _, d := range []core.Direction{core.Send, core.Receive} {
			realized[k.Model(d)] = true
			r := newRig(t)
			r.inject(t, d, Guard(time.Second, time.Minute, "HB*", 0.5), 1, k)
			r.pump(t, 2, 1)
		}
	}
	want := map[Model]bool{SendOmission: true, ReceiveOmission: true, Timing: true, Byzantine: true}
	if !reflect.DeepEqual(realized, want) {
		t.Fatalf("kinds realize %v, want %v", realized, want)
	}
}

func TestDefaultProbabilityIsOne(t *testing.T) {
	for _, p := range []float64{0, 1} {
		if s, _ := Drop.Snippet(Guard(0, 0, "", p), 0, ""); s != "if {1} { xDrop cur_msg }\n" {
			t.Fatalf("prob %v: script = %q", p, s)
		}
	}
}
