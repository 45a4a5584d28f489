package fault

import (
	"fmt"
	"strconv"
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
	if err != nil {
		return core.Info{}, err
	}
	typ := "DATA"
	if b == 1 {
		typ = "HB"
	}
	return core.Info{Type: typ}, nil
}

func (tinyStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return nil, fmt.Errorf("tiny: no generation")
}

type rig struct {
	sched *simtime.Scheduler
	layer *core.Layer
	stk   *stack.Stack
	out   int // messages that reached the network
	in    int // messages that reached the app
}

func newRig(t *testing.T) *rig {
	t.Helper()
	r := &rig{sched: simtime.NewScheduler()}
	env := &stack.Env{Sched: r.sched, Node: "n"}
	r.layer = core.NewLayer(env, core.WithStub(tinyStub{}))
	r.stk = stack.New(env, r.layer)
	r.stk.OnTransmit(func(m *message.Message) error { r.out++; return nil })
	r.stk.OnDeliver(func(m *message.Message) error { r.in++; return nil })
	return r
}

func (r *rig) pump(t *testing.T, n int, typ byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := r.stk.Send(message.New([]byte{typ})); err != nil {
			t.Fatal(err)
		}
		if err := r.stk.Deliver(message.New([]byte{typ})); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.Run()
}

func TestSeverityOrdering(t *testing.T) {
	ms := Models()
	if len(ms) != 7 {
		t.Fatalf("Models() = %d entries, want 7", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Severity() <= ms[i-1].Severity() {
			t.Errorf("%v not more severe than %v", ms[i], ms[i-1])
		}
	}
	if !Byzantine.Covers(ProcessCrash) {
		t.Error("byzantine must cover crash")
	}
	if ProcessCrash.Covers(Byzantine) {
		t.Error("crash must not cover byzantine")
	}
	for _, m := range ms {
		if !m.Covers(m) {
			t.Errorf("%v does not cover itself", m)
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
		if !ma.Covers(ma) {
			return false
		}
		if ma.Covers(mb) && mb.Covers(ma) && ma != mb {
			return false
		}
		if ma.Covers(mb) && mb.Covers(mc) && !ma.Covers(mc) {
			return false
		}
		return true
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
	if Model(99).Valid() {
		t.Error("Model(99) valid")
	}
}

func TestValidate(t *testing.T) {
	bad := []Plan{
		{},                 // no model
		{Model: Model(42)}, // unknown model
		{Model: SendOmission, Prob: 1.5},
		{Model: SendOmission, Prob: -0.1},
		{Model: SendOmission, Start: -time.Second},
		{Model: Timing}, // missing MeanDelay
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated: %+v", i, p)
		}
	}
	good := Plan{Model: GeneralOmission, Prob: 0.5, Start: time.Second}
	if err := good.Validate(); err != nil {
		t.Errorf("good plan rejected: %v", err)
	}
}

func TestProcessCrashHaltsBothDirections(t *testing.T) {
	r := newRig(t)
	plan := Plan{Model: ProcessCrash, Start: 5 * time.Second}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
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
	if err := (Plan{Model: SendOmission}).Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 5, 2)
	if r.out != 0 {
		t.Fatalf("send omission let %d out", r.out)
	}
	if r.in != 5 {
		t.Fatalf("send omission blocked receives: in=%d", r.in)
	}
}

func TestReceiveOmissionOnlyInbound(t *testing.T) {
	r := newRig(t)
	if err := (Plan{Model: ReceiveOmission}).Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 5, 2)
	if r.in != 0 {
		t.Fatalf("receive omission let %d in", r.in)
	}
	if r.out != 5 {
		t.Fatalf("receive omission blocked sends: out=%d", r.out)
	}
}

func TestGeneralOmissionProbabilistic(t *testing.T) {
	r := newRig(t)
	if err := (Plan{Model: GeneralOmission, Prob: 0.5}).Apply(r.layer); err != nil {
		t.Fatal(err)
	}
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
	plan := Plan{Model: SendOmission, Start: time.Second, Duration: 2 * time.Second}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
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
	plan := Plan{Model: SendOmission, TypeGlob: "HB"}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	r.pump(t, 3, 1) // heartbeats: dropped
	r.pump(t, 3, 2) // data: passes
	if r.out != 3 {
		t.Fatalf("glob-restricted omission let %d out, want 3 DATA only", r.out)
	}
}

func TestTimingFailureDelays(t *testing.T) {
	r := newRig(t)
	plan := Plan{Model: Timing, MeanDelay: 10 * time.Second}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	if err := r.stk.Send(message.New([]byte{2})); err != nil {
		t.Fatal(err)
	}
	if r.out != 0 {
		t.Fatal("timing failure forwarded immediately")
	}
	r.sched.Run()
	if r.out != 1 {
		t.Fatal("timing failure lost the message")
	}
	if r.sched.Now() < simtime.Time(9*time.Second) {
		t.Fatalf("message forwarded at %v, want ~10 s", r.sched.Now())
	}
}

func TestByzantineCorruption(t *testing.T) {
	r := newRig(t)
	plan := Plan{Model: Byzantine, Corrupt: true}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	corrupted := 0
	r.stk.OnTransmit(func(m *message.Message) error {
		r.out++
		if b, _ := m.ByteAt(0); b != 2 {
			corrupted++
		}
		return nil
	})
	for i := 0; i < 100; i++ {
		if err := r.stk.Send(message.New([]byte{2})); err != nil {
			t.Fatal(err)
		}
	}
	if r.out != 100 {
		t.Fatalf("byzantine corruption dropped messages: %d", r.out)
	}
	// A random byte of a 1-byte message is always byte 0; value is random
	// over 256, so expect most messages corrupted.
	if corrupted < 50 {
		t.Fatalf("only %d/100 corrupted", corrupted)
	}
}

func TestByzantineDuplicate(t *testing.T) {
	r := newRig(t)
	plan := Plan{Model: Byzantine, Duplicate: true}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.stk.Send(message.New([]byte{2})); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.Run()
	if r.out != 20 {
		t.Fatalf("duplicate fault forwarded %d, want 20", r.out)
	}
}

func TestByzantineReorder(t *testing.T) {
	r := newRig(t)
	plan := Plan{Model: Byzantine, Reorder: true}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	var order []byte
	r.stk.OnTransmit(func(m *message.Message) error {
		b, _ := m.ByteAt(1)
		order = append(order, b)
		return nil
	})
	for i := byte(0); i < 10; i++ {
		if err := r.stk.Send(message.New([]byte{2, i})); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.Run()
	// Pairwise hold/LIFO-release: some inversions must appear, and at most
	// one message may remain held at the end.
	if len(order) < 9 {
		t.Fatalf("reorder lost messages: forwarded %d", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatalf("no reordering observed in %v", order)
	}
}

func TestByzantineMixedArms(t *testing.T) {
	r := newRig(t)
	plan := Plan{Model: Byzantine, Corrupt: true, Duplicate: true, Reorder: true, Prob: 0.7}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 100; i++ {
		if err := r.stk.Send(message.New([]byte{2, i})); err != nil {
			t.Fatal(err)
		}
	}
	r.sched.Run()
	if r.out < 80 {
		t.Fatalf("mixed byzantine lost too much: %d/100+", r.out)
	}
}

func TestScriptsCompileForEveryModel(t *testing.T) {
	for _, m := range Models() {
		plan := Plan{Model: m, Prob: 0.5, Start: time.Second, Duration: time.Minute,
			TypeGlob: "HB*", MeanDelay: time.Second, DelayVariance: 100 * time.Millisecond,
			Corrupt: true, Duplicate: true, Reorder: true}
		send, recv, err := plan.Scripts()
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if send == "" && recv == "" {
			t.Errorf("%v compiled to nothing", m)
		}
		// Install on a fresh layer to prove the Tcl parses.
		r := newRig(t)
		if err := plan.Apply(r.layer); err != nil {
			t.Errorf("%v: apply: %v", m, err)
		}
		r.pump(t, 2, 1)
	}
}

func TestLinkCrashScriptSendSideOnly(t *testing.T) {
	send, recv, err := (Plan{Model: LinkCrash, Start: time.Second}).Scripts()
	if err != nil {
		t.Fatal(err)
	}
	if send == "" || recv != "" {
		t.Fatalf("link crash scripts: send=%q recv=%q", send, recv)
	}
}

func TestCrashIgnoresDuration(t *testing.T) {
	// A process crash is permanent even if Duration is (mistakenly) set.
	r := newRig(t)
	plan := Plan{Model: ProcessCrash, Start: time.Second, Duration: time.Second}
	if err := plan.Apply(r.layer); err != nil {
		t.Fatal(err)
	}
	r.sched.RunFor(10 * time.Second)
	r.pump(t, 3, 2)
	if r.out != 0 || r.in != 0 {
		t.Fatalf("crashed process resurrected: out=%d in=%d", r.out, r.in)
	}
}

func TestDefaultProbabilityIsOne(t *testing.T) {
	p := Plan{Model: SendOmission}
	send, _, err := p.Scripts()
	if err != nil {
		t.Fatal(err)
	}
	if want := "if {1} { xDrop cur_msg }"; !containsCollapsed(send, want) {
		t.Fatalf("default-prob script = %q", send)
	}
}

func containsCollapsed(s, want string) bool {
	return len(s) >= len(want) && s[:len(want)] == want
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
	_ = strconv.Itoa(0) // keep strconv imported if asserts change
}
