package gmp_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/gmp"
	"pfi/internal/message"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// member is one machine running a gmd.
type member struct {
	node *netsim.Node
	net  *rudp.Layer
	pfi  *core.Layer
	gmd  *gmp.Daemon
}

// cluster is an n-machine rig.
type cluster struct {
	w     *netsim.World
	names []string
	ms    map[string]*member
}

func newCluster(t *testing.T, names []string, opts ...gmp.Option) *cluster {
	t.Helper()
	w := netsim.NewWorld(11)
	c := &cluster{w: w, names: names, ms: make(map[string]*member)}
	for _, name := range names {
		node := w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		pfi := core.NewLayer(node.Env(), core.WithStub(gmp.PFIStub{}))
		s := stack.New(node.Env(), net, pfi)
		node.SetStack(s)
		gmd := gmp.MustNew(node.Env(), net, names, opts...)
		c.ms[name] = &member{node: node, net: net, pfi: pfi, gmd: gmd}
	}
	if err := w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *cluster) startAll() {
	for _, name := range c.names {
		c.ms[name].gmd.Start()
	}
}

// groupOf asserts the member's committed group matches want.
func (c *cluster) assertGroup(t *testing.T, name string, want []string) {
	t.Helper()
	g := c.ms[name].gmd.Group()
	if len(g.Members) != len(want) {
		t.Fatalf("%s group %v, want %v", name, g.Members, want)
	}
	for i := range want {
		if g.Members[i] != want[i] {
			t.Fatalf("%s group %v, want %v", name, g.Members, want)
		}
	}
}

const settle = 30 * time.Second

func TestSingletonOnStart(t *testing.T) {
	c := newCluster(t, []string{"n1"})
	c.startAll()
	c.w.RunFor(time.Second)
	c.assertGroup(t, "n1", []string{"n1"})
	if !c.ms["n1"].gmd.IsLeader() {
		t.Fatal("singleton not its own leader")
	}
}

func TestTwoNodesMerge(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2"})
	c.startAll()
	c.w.RunFor(settle)
	c.assertGroup(t, "n1", []string{"n1", "n2"})
	c.assertGroup(t, "n2", []string{"n1", "n2"})
	if !c.ms["n1"].gmd.IsLeader() || c.ms["n2"].gmd.IsLeader() {
		t.Fatal("lowest id must lead")
	}
}

func TestFiveNodesConverge(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(2 * settle)
	for _, n := range names {
		c.assertGroup(t, n, names)
	}
	g := c.ms["n1"].gmd.Group()
	if g.Leader() != "n1" || g.Members[1] != "n2" {
		t.Fatalf("leader %s crown prince %s", g.Leader(), g.Members[1])
	}
	// Agreement: all views identical, same generation.
	for _, n := range names[1:] {
		if !c.ms[n].gmd.Group().Equal(g) {
			t.Fatalf("%s view %v differs from leader view %v", n, c.ms[n].gmd.Group(), g)
		}
	}
}

func TestLateJoinerAdmitted(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	c := newCluster(t, names)
	c.ms["n1"].gmd.Start()
	c.ms["n2"].gmd.Start()
	c.w.RunFor(settle)
	c.assertGroup(t, "n1", []string{"n1", "n2"})
	c.ms["n3"].gmd.Start()
	c.w.RunFor(settle)
	for _, n := range names {
		c.assertGroup(t, n, names)
	}
}

func TestMemberCrashDetectedAndRemoved(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	c.ms["n3"].gmd.Suspend() // the process stops running
	c.w.RunFor(settle)
	c.assertGroup(t, "n1", []string{"n1", "n2"})
	c.assertGroup(t, "n2", []string{"n1", "n2"})
}

func TestLeaderCrashCrownPrinceTakesOver(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	c.ms["n1"].gmd.Suspend()
	c.ms["n1"].node.Unplug() // crash the whole machine
	c.w.RunFor(settle)
	c.assertGroup(t, "n2", []string{"n2", "n3"})
	c.assertGroup(t, "n3", []string{"n2", "n3"})
	if !c.ms["n2"].gmd.IsLeader() {
		t.Fatal("crown prince did not take over")
	}
}

func TestRejoinAfterCrash(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	c.ms["n3"].node.Unplug()
	c.w.RunFor(settle)
	c.assertGroup(t, "n1", []string{"n1", "n2"})
	c.ms["n3"].node.Replug()
	c.w.RunFor(2 * settle)
	for _, n := range names {
		c.assertGroup(t, n, names)
	}
}

func TestPartitionFormsDisjointGroups(t *testing.T) {
	names := []string{"n1", "n2", "n3", "n4", "n5"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(2 * settle)
	c.w.Partition([]string{"n1", "n2", "n3"}, []string{"n4", "n5"})
	c.w.RunFor(2 * settle)
	for _, n := range []string{"n1", "n2", "n3"} {
		c.assertGroup(t, n, []string{"n1", "n2", "n3"})
	}
	for _, n := range []string{"n4", "n5"} {
		c.assertGroup(t, n, []string{"n4", "n5"})
	}
	// Heal: a single all-machine group re-forms.
	c.w.Heal()
	c.w.RunFor(3 * settle)
	for _, n := range names {
		c.assertGroup(t, n, names)
	}
}

func TestViewAgreementProperty(t *testing.T) {
	// Agreement invariant under random message loss: every pair of members
	// that committed the same generation committed the same member set.
	names := []string{"n1", "n2", "n3", "n4"}
	w := netsim.NewWorld(23)
	type rec struct {
		gen     uint32
		members string
	}
	views := make(map[string][]rec)
	ms := make(map[string]*gmp.Daemon)
	for _, name := range names {
		node := w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		s := stack.New(node.Env(), net)
		node.SetStack(s)
		gmd := gmp.MustNew(node.Env(), net, names)
		name := name
		gmd.OnCommit(func(g gmp.Group) {
			views[name] = append(views[name], rec{g.Gen, strings.Join(g.Members, ",")})
		})
		ms[name] = gmd
	}
	if err := w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond, Loss: 0.05}); err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		ms[name].Start()
	}
	w.RunFor(5 * time.Minute)
	byGen := make(map[uint32]map[string]bool)
	for _, recs := range views {
		for _, r := range recs {
			if byGen[r.gen] == nil {
				byGen[r.gen] = make(map[string]bool)
			}
			byGen[r.gen][r.members] = true
		}
	}
	for gen, sets := range byGen {
		// Singleton self-reverts share generation numbers across nodes by
		// construction (each daemon counts its own); only multi-member
		// views must agree.
		multi := map[string]bool{}
		for s := range sets {
			if strings.Contains(s, ",") {
				multi[s] = true
			}
		}
		if len(multi) > 1 {
			t.Errorf("generation %d committed with differing multi-member views: %v", gen, multi)
		}
	}
}

func TestSuspendResumeTriggersSelfDeathFixed(t *testing.T) {
	names := []string{"n1", "n2"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	c.ms["n2"].gmd.Suspend()
	c.w.RunFor(30 * time.Second)
	c.ms["n2"].gmd.Resume()
	c.w.RunFor(time.Second)
	// Fixed daemon: self-death handled by re-forming a singleton.
	if c.ms["n2"].gmd.Events().Filter("n2", "self-death", "") == nil {
		t.Fatal("no self-death event after suspension")
	}
	if c.ms["n2"].gmd.SelfDeclaredDead() {
		t.Fatal("fixed daemon stuck in self-dead state")
	}
	// And it rejoins.
	c.w.RunFor(2 * settle)
	c.assertGroup(t, "n2", names)
}

func TestSuspendResumeSelfDeathBug(t *testing.T) {
	names := []string{"n1", "n2"}
	c := newCluster(t, names, gmp.WithBugs(gmp.Bugs{SelfDeath: true}))
	c.startAll()
	c.w.RunFor(settle)
	c.ms["n2"].gmd.Suspend()
	c.w.RunFor(30 * time.Second)
	c.ms["n2"].gmd.Resume()
	c.w.RunFor(10 * time.Second)
	if len(c.ms["n2"].gmd.Events().Filter("n2", "self-death-bug", "")) == 0 {
		t.Fatal("buggy self-death not triggered")
	}
	if !c.ms["n2"].gmd.SelfDeclaredDead() {
		t.Fatal("buggy daemon did not mark itself dead")
	}
	// It keeps sending bad information instead of heartbeats.
	if len(c.ms["n2"].gmd.Events().Filter("n2", "bad-info", "")) == 0 {
		t.Fatal("buggy daemon not broadcasting bad info")
	}
}

func TestDropSelfHeartbeatsViaPFI(t *testing.T) {
	// The paper's Experiment 1 trigger: the send filter drops heartbeats
	// to the local machine; the daemon concludes it has died.
	names := []string{"n1", "n2"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	if err := c.ms["n2"].pfi.SetSendScript(`
		if {[msg_type cur_msg] eq "HEARTBEAT" && [msg_field cur_msg dst] eq "n2"} {
			xDrop cur_msg
		}
	`); err != nil {
		t.Fatal(err)
	}
	c.w.RunFor(30 * time.Second)
	if len(c.ms["n2"].gmd.Events().Filter("n2", "self-death", "")) == 0 {
		t.Fatal("dropping loopback heartbeats did not trigger self-death")
	}
}

func TestGroupHelpers(t *testing.T) {
	g := gmp.NewGroup(3, []string{"c", "a", "b", "a"})
	if g.Leader() != "a" {
		t.Fatalf("leader %q", g.Leader())
	}
	if !g.Contains("c") || g.Contains("z") {
		t.Fatal("Contains wrong")
	}
	w := g.Without("b")
	if len(w) != 2 || w[0] != "a" || w[1] != "c" {
		t.Fatalf("Without = %v", w)
	}
	if (gmp.Group{}).Leader() != "" {
		t.Fatal("empty group has a leader")
	}
	if !g.Equal(gmp.NewGroup(3, []string{"a", "b", "c"})) {
		t.Fatal("Equal false negative")
	}
	if g.Equal(gmp.NewGroup(4, []string{"a", "b", "c"})) {
		t.Fatal("Equal ignores gen")
	}
}

func TestStubRecognizeAndGenerate(t *testing.T) {
	stub := gmp.PFIStub{}
	gm := &gmp.Msg{Type: gmp.TypeProclaim, Gen: 7, Origin: "n3", Sender: "n2"}
	frame := &rudp.Frame{Kind: rudp.KindData, Seq: 5, Payload: gm.Encode()}
	info, err := stub.Recognize(frame.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if info.Type != "PROCLAIM" || info.Field("origin") != "n3" ||
		info.Field("sender") != "n2" || info.Field("gen") != "7" ||
		info.Field("rudp_kind") != "DATA" {
		t.Fatalf("info %+v", info)
	}
	ack := &rudp.Frame{Kind: rudp.KindAck, Seq: 5}
	info, err = stub.Recognize(ack.Encode())
	if err != nil || info.Type != "RUDP-ACK" {
		t.Fatalf("ack info %+v err %v", info, err)
	}
	m, err := stub.Generate("HEARTBEAT", map[string]string{"origin": "ghost", "gen": "9"})
	if err != nil {
		t.Fatal(err)
	}
	f, err := rudp.Decode(m)
	if err != nil || f.Kind != rudp.KindRaw {
		t.Fatalf("generated frame %+v err %v", f, err)
	}
	info, err = stub.Recognize(m)
	if err != nil || info.Type != "HEARTBEAT" || info.Field("origin") != "ghost" || info.Field("gen") != "9" {
		t.Fatalf("generated info %+v err %v", info, err)
	}
	if _, err := stub.Generate("NOPE", nil); err == nil {
		t.Fatal("unknown type generated")
	}
	if _, err := stub.Generate("COMMIT", map[string]string{"gen": "x"}); err == nil {
		t.Fatal("bad gen accepted")
	}
}

// A stub generates what it recognizes: every type Recognize can report
// for a GMP message (RUDP-ACK is the reliability layer's, not GMP's) comes
// back from Generate. DEPART used to be recognized but not generated.
func TestStubGeneratesWhatItRecognizes(t *testing.T) {
	stub := gmp.PFIStub{}
	for typ := uint8(gmp.TypeHeartbeat); typ <= gmp.TypeDepart; typ++ {
		name := gmp.TypeName(typ)
		m, err := stub.Generate(name, map[string]string{"origin": "n1"})
		if err != nil {
			t.Errorf("Generate(%s): %v", name, err)
			continue
		}
		info, err := stub.Recognize(m)
		if err != nil || info.Type != name || info.Field("origin") != "n1" {
			t.Errorf("Generate(%s) recognized as %q origin %q, err %v", name, info.Type, info.Field("origin"), err)
		}
	}
	if _, err := stub.Generate("TYPE(0)", nil); err == nil {
		t.Error("generated the unnamed type 0")
	}
	if _, err := stub.Generate("", nil); err == nil {
		t.Error("generated the empty type name")
	}
}

// TestFieldsReadAfterSetByteAreTheRecognizedOnes: the stub decodes a GMP
// message's fields on first read, from bytes msg_set_byte changes in place.
// A field a script reads after corrupting the message — a byte inside
// origin, the type byte, or a length byte the walk depends on — must still
// be the one recognized before the corruption, and msg_type the type it
// was recognized as; the corrupted bytes still go out.
func TestFieldsReadAfterSetByteAreTheRecognizedOnes(t *testing.T) {
	gm := gmp.Msg{Type: gmp.TypeHeartbeat, Gen: 42, Origin: "n1", Sender: "n2", Members: []string{"n1", "n3"}}
	originAt := rudp.HeaderLen + 6 // type, gen, origin's length byte
	for _, tc := range []struct {
		name string
		off  int
	}{
		{"inside origin", originAt},
		{"type byte", rudp.HeaderLen},
		{"origin length", originAt - 1},
		{"member count", originAt + len(gm.Origin) + 1 + len(gm.Sender)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := &stack.Env{Sched: simtime.NewScheduler(), Node: "n2"}
			pfi := core.NewLayer(env, core.WithStub(gmp.PFIStub{}))
			stk := stack.New(env, pfi)
			var sent *message.Message
			stk.OnTransmit(func(m *message.Message) error { sent = m; return nil })
			if err := pfi.SetSendScript(fmt.Sprintf(`msg_set_byte cur_msg %d 0xff
				set origin [msg_field cur_msg origin]
				set members [msg_field cur_msg members]
				set gen [msg_field cur_msg gen]
				set typ [msg_type cur_msg]`, tc.off)); err != nil {
				t.Fatal(err)
			}
			if err := stk.Send(rudp.Frame{Kind: rudp.KindRaw, Payload: gm.Encode()}.Encode()); err != nil {
				t.Fatal(err)
			}
			in := pfi.SendFilter().Interp()
			for name, want := range map[string]string{"origin": "n1", "members": "n1,n3", "gen": "42", "typ": "HEARTBEAT"} {
				if got, _ := in.Var(name); got != want {
					t.Errorf("%s read %q after the corruption, want %q", name, got, want)
				}
			}
			if b, _ := sent.ByteAt(tc.off); b != 0xff {
				t.Fatalf("byte %d went out as %#x, want the corrupted 0xff", tc.off, b)
			}
		})
	}
}

func TestNewRejectsPeerListWithoutSelf(t *testing.T) {
	w := netsim.NewWorld(1)
	node := w.MustAddNode("x")
	net := rudp.NewLayer(node.Env())
	if _, err := gmp.New(node.Env(), net, []string{"y", "z"}); err == nil {
		t.Fatal("peer list without self accepted")
	}
}

func TestDaemonAccessorsAndDumpState(t *testing.T) {
	names := []string{"n1", "n2"}
	lg := trace.NewLog()
	c := newCluster(t, names, gmp.WithTrace(lg))
	c.startAll()
	c.w.RunFor(settle)
	d := c.ms["n1"].gmd
	if !d.IsLeader() || !d.Group().Contains("n2") {
		t.Errorf("n1 leads %v = %v", d.Group(), d.IsLeader())
	}
	if d.InTransition() {
		t.Error("settled daemon in transition")
	}
	if d.ArmedHBExpect() != 2 {
		t.Errorf("armed hb-expect = %d, want 2 (self + peer)", d.ArmedHBExpect())
	}
	if lg.Len() == 0 {
		t.Error("WithTrace log empty")
	}
}

func TestDeadReportFromThirdParty(t *testing.T) {
	// A DEAD_REPORT about a member reaching the leader triggers removal
	// even before the heartbeat timeout fires.
	names := []string{"n1", "n2", "n3"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	// n2 reports n3 dead directly to the leader via an injected message.
	if err := c.ms["n1"].pfi.SetReceiveScript(``); err != nil {
		t.Fatal(err)
	}
	// Simulate by injecting a DEAD_REPORT from n2's PFI layer downward.
	if err := c.ms["n2"].pfi.SetSendScript(`
		if {![info exists reported]} {
			set reported 1
			xInject DEAD_REPORT {origin n2 members n3} down
		}
	`); err != nil {
		t.Fatal(err)
	}
	// The injected frame needs a destination; xInject generates a RAW
	// frame without one, so it is dropped by netsim. Use the daemon-level
	// path instead: cut n3 and let heartbeats detect it.
	c.ms["n3"].node.Unplug()
	c.w.RunFor(settle)
	c.assertGroup(t, "n1", []string{"n1", "n2"})
}

// depart delivers to dst a DEPART notice from origin, as a filter injects
// one: no daemon sends it, but every daemon honours it.
func (c *cluster) depart(t *testing.T, dst, origin string) {
	t.Helper()
	fields := map[string]string{"origin": origin, "sender": origin, "src": origin}
	if err := c.ms[dst].pfi.Inject(core.Receive, "DEPART", fields); err != nil {
		t.Fatal(err)
	}
}

func TestGracefulMemberDeparture(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	// n3 goes down for maintenance and tells the leader. The DEPART notice
	// removes it much faster than the heartbeat timeout (3.5 s + change
	// round < one timeout).
	c.ms["n3"].gmd.Suspend()
	c.depart(t, "n1", "n3")
	c.w.RunFor(3 * time.Second)
	c.assertGroup(t, "n1", []string{"n1", "n2"})
	c.assertGroup(t, "n2", []string{"n1", "n2"})
	if len(c.ms["n1"].gmd.Events().Filter("n1", "depart-recv", "")) != 1 {
		t.Error("leader never saw the DEPART notice")
	}
	// After the maintenance window, the daemon resumes and rejoins.
	c.ms["n3"].gmd.Resume()
	c.w.RunFor(2 * settle)
	for _, n := range names {
		c.assertGroup(t, n, names)
	}
}

func TestGracefulLeaderDeparture(t *testing.T) {
	names := []string{"n1", "n2", "n3"}
	c := newCluster(t, names)
	c.startAll()
	c.w.RunFor(settle)
	// A departing leader notifies the crown prince.
	c.ms["n1"].gmd.Suspend()
	c.depart(t, "n2", "n1")
	c.w.RunFor(3 * time.Second)
	c.assertGroup(t, "n2", []string{"n2", "n3"})
	c.assertGroup(t, "n3", []string{"n2", "n3"})
	if !c.ms["n2"].gmd.IsLeader() {
		t.Error("crown prince did not take over after graceful leader departure")
	}
}

// TestLeaveFromSingletonNoop: a DEPART about the daemon itself, or about a
// daemon outside its group, changes nothing.
func TestLeaveFromSingletonNoop(t *testing.T) {
	c := newCluster(t, []string{"n1", "n2"})
	c.ms["n1"].gmd.Start()
	c.w.RunFor(time.Second)
	c.depart(t, "n1", "n1")
	c.depart(t, "n1", "n2")
	c.w.RunFor(time.Second)
	c.assertGroup(t, "n1", []string{"n1"})
	if n := len(c.ms["n1"].gmd.Events().Filter("n1", "depart-recv", "")); n != 0 {
		t.Errorf("%d DEPART notices acted on", n)
	}
}
