package tpc_test

import (
	"testing"
	"time"

	"pfi/internal/core"
	"pfi/internal/fault"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/stack"
	"pfi/internal/tpc"
)

// rig: one coordinator ("coord") and n participants ("p1".."pn"), each
// with a PFI layer at the rudp/network boundary.
type rig struct {
	w            *netsim.World
	coord        *tpc.Coordinator
	coordPFI     *core.Layer
	participants map[string]*tpc.Participant
	pfis         map[string]*core.Layer
	names        []string
}

func newRig(t *testing.T, n int, opts ...tpc.ParticipantOption) *rig {
	t.Helper()
	r := &rig{
		w:            netsim.NewWorld(5),
		participants: make(map[string]*tpc.Participant),
		pfis:         make(map[string]*core.Layer),
	}
	build := func(name string) (*rudp.Layer, *core.Layer) {
		node := r.w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		pfi := core.NewLayer(node.Env(), core.WithStub(tpc.PFIStub{}))
		node.SetStack(stack.New(node.Env(), net, pfi))
		return net, pfi
	}
	cnet, cpfi := build("coord")
	coordNode, _ := r.w.Node("coord")
	r.coord = tpc.NewCoordinator(coordNode.Env(), cnet)
	r.coordPFI = cpfi
	for i := 1; i <= n; i++ {
		name := "p" + string(rune('0'+i))
		pnet, ppfi := build(name)
		node, _ := r.w.Node(name)
		r.participants[name] = tpc.NewParticipant(node.Env(), pnet, opts...)
		r.pfis[name] = ppfi
		r.names = append(r.names, name)
	}
	if err := r.w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCommitHappyPath(t *testing.T) {
	r := newRig(t, 3)
	var outcome tpc.TxState
	tx, err := r.coord.Begin(r.names, func(o tpc.TxState) { outcome = o })
	if err != nil {
		t.Fatal(err)
	}
	r.w.RunFor(time.Second)
	if outcome != tpc.StateCommitted {
		t.Fatalf("outcome %v, want COMMITTED", outcome)
	}
	for _, name := range r.names {
		if s := r.participants[name].State(tx); s != tpc.StateCommitted {
			t.Errorf("%s state %v", name, s)
		}
	}
}

func TestOneNoVoteAbortsAll(t *testing.T) {
	r := newRig(t, 3, tpc.WithVote(func(tx uint32) bool { return false }))
	// Everyone votes NO here; a mixed rig follows below.
	tx, err := r.coord.Begin(r.names, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.w.RunFor(time.Second)
	if got := r.coord.Outcome(tx); got != tpc.StateAborted {
		t.Fatalf("outcome %v, want ABORTED", got)
	}
	for _, name := range r.names {
		if s := r.participants[name].State(tx); s != tpc.StateAborted {
			t.Errorf("%s state %v", name, s)
		}
	}
}

func TestMixedVotesAbortUnblocksYesVoters(t *testing.T) {
	// p1 votes NO; p2/p3 vote YES and must be released by the ABORT.
	// The rig is built by hand so each participant can carry its own vote.
	r2 := &rig{
		w:            netsim.NewWorld(6),
		participants: make(map[string]*tpc.Participant),
		pfis:         make(map[string]*core.Layer),
	}
	build := func(name string, vote func(uint32) bool) {
		node := r2.w.MustAddNode(name)
		net := rudp.NewLayer(node.Env())
		pfi := core.NewLayer(node.Env(), core.WithStub(tpc.PFIStub{}))
		node.SetStack(stack.New(node.Env(), net, pfi))
		if name == "coord" {
			r2.coord = tpc.NewCoordinator(node.Env(), net)
			r2.coordPFI = pfi
			return
		}
		var opts []tpc.ParticipantOption
		if vote != nil {
			opts = append(opts, tpc.WithVote(vote))
		}
		r2.participants[name] = tpc.NewParticipant(node.Env(), net, opts...)
		r2.pfis[name] = pfi
		r2.names = append(r2.names, name)
	}
	build("coord", nil)
	build("p1", func(uint32) bool { return false })
	build("p2", nil)
	build("p3", nil)
	if err := r2.w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	tx, err := r2.coord.Begin(r2.names, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2.w.RunFor(time.Second)
	if got := r2.coord.Outcome(tx); got != tpc.StateAborted {
		t.Fatalf("outcome %v, want ABORTED", got)
	}
	for _, name := range []string{"p2", "p3"} {
		if s := r2.participants[name].State(tx); s != tpc.StateAborted {
			t.Errorf("%s state %v, want released by ABORT", name, s)
		}
	}
}

func TestLostPrepareAbortsByTimeout(t *testing.T) {
	r := newRig(t, 2)
	// p2 never receives its PREPARE.
	if err := r.pfis["p2"].SetReceiveScript(`
		if {[msg_type cur_msg] eq "PREPARE"} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	tx, err := r.coord.Begin(r.names, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.w.RunFor(time.Minute)
	if got := r.coord.Outcome(tx); got != tpc.StateAborted {
		t.Fatalf("outcome %v, want ABORTED on vote timeout", got)
	}
	if s := r.participants["p1"].State(tx); s != tpc.StateAborted {
		t.Errorf("p1 state %v, want released by ABORT", s)
	}
}

func TestCoordinatorCrashAfterPrepareBlocksParticipants(t *testing.T) {
	// THE experiment: crash the coordinator after its PREPAREs leave but
	// before any outcome does — injected with a process-crash fault plan
	// on the coordinator's PFI layer, scoped to outcome messages.
	r := newRig(t, 3)
	if err := r.coordPFI.SetSendScript(`
		set t [msg_type cur_msg]
		if {$t eq "COMMIT" || $t eq "ABORT"} { xDrop cur_msg }
	`); err != nil {
		t.Fatal(err)
	}
	tx, err := r.coord.Begin(r.names, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.w.RunFor(5 * time.Minute)
	// Every participant voted YES and is now blocked: PREPARED forever.
	for _, name := range r.names {
		if s := r.participants[name].State(tx); s != tpc.StatePrepared {
			t.Errorf("%s state %v, want PREPARED (blocked)", name, s)
		}
		if blocked := r.participants[name].Events().Filter(name, "blocked", ""); len(blocked) < 10 {
			t.Errorf("%s logged %d blocked checks, want a steady stream", name, len(blocked))
		}
	}
	// Clear the fault ("the coordinator recovers"): the outcome is
	// re-delivered when the coordinator re-decides.
	if err := r.coordPFI.SetSendScript(""); err != nil {
		t.Fatal(err)
	}
	r.coord.Recover()
	r.w.RunFor(time.Second)
	for _, name := range r.names {
		if s := r.participants[name].State(tx); s != tpc.StateCommitted {
			t.Errorf("%s state %v after recovery, want COMMITTED", name, s)
		}
	}
}

func TestTrueProcessCrashViaFaultPlan(t *testing.T) {
	// The same blocking window induced with the failure-model library: a
	// process-crash plan on the coordinator activating right after the
	// votes arrive.
	r := newRig(t, 2)
	plan := fault.Plan{Model: fault.ProcessCrash, Start: 50 * time.Millisecond}
	if err := plan.Apply(r.coordPFI); err != nil {
		t.Fatal(err)
	}
	r.coord.Crash() // and halt the process itself at the same instant
	crashedAt := r.w.Now()
	_ = crashedAt
	// Begin fails on a crashed coordinator.
	if _, err := r.coord.Begin(r.names, nil); err == nil {
		t.Fatal("Begin on crashed coordinator succeeded")
	}
	r.coord.Recover()
	tx, err := r.coord.Begin(r.names, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The PFI crash plan starts at +50 ms: PREPAREs (sent now) escape,
	// outcomes (sent after votes arrive at ~+8 ms... still before 50 ms)
	// — run the clock forward so the PREPARE exchange completes, then
	// crash the process for real before it can decide.
	r.coord.Crash()
	r.w.RunFor(time.Minute)
	for _, name := range r.names {
		if s := r.participants[name].State(tx); s != tpc.StatePrepared {
			t.Errorf("%s state %v, want PREPARED (blocked)", name, s)
		}
	}
	// Reboot: the machine comes back with its fault cleared, then the
	// coordinator process recovers. No votes were recorded before the
	// crash, so recovery aborts.
	if err := r.coordPFI.SetSendScript(""); err != nil {
		t.Fatal(err)
	}
	if err := r.coordPFI.SetReceiveScript(""); err != nil {
		t.Fatal(err)
	}
	r.coord.Recover()
	r.w.RunFor(time.Minute)
	for _, name := range r.names {
		s := r.participants[name].State(tx)
		if s != tpc.StateAborted && s != tpc.StateCommitted {
			t.Errorf("%s still %v after recovery", name, s)
		}
	}
}

func TestDuplicatePrepareReVotes(t *testing.T) {
	r := newRig(t, 1)
	// Duplicate every PREPARE on the coordinator's wire.
	if err := r.coordPFI.SetSendScript(`
		if {[msg_type cur_msg] eq "PREPARE"} { xDuplicate cur_msg 1 }
	`); err != nil {
		t.Fatal(err)
	}
	tx, err := r.coord.Begin(r.names, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.w.RunFor(time.Second)
	if got := r.coord.Outcome(tx); got != tpc.StateCommitted {
		t.Fatalf("outcome %v, want COMMITTED despite duplicate PREPAREs", got)
	}
}

func TestMsgRoundTripAndStub(t *testing.T) {
	m := &tpc.Msg{Type: tpc.TypeVoteYes, TxID: 99, From: "p1"}
	got, err := tpc.DecodeMsg(m.Encode())
	if err != nil || got.Type != m.Type || got.TxID != 99 || got.From != "p1" {
		t.Fatalf("round trip %+v, %v", got, err)
	}
	if _, err := tpc.DecodeMsg([]byte{1}); err == nil {
		t.Fatal("short message decoded")
	}
	if _, err := tpc.DecodeMsg([]byte{77, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("unknown type decoded")
	}
	stub := tpc.PFIStub{}
	frame, err := stub.Generate("ABORT", map[string]string{"tx": "7", "from": "evil"})
	if err != nil {
		t.Fatal(err)
	}
	info, err := stub.Recognize(frame)
	if err != nil || info.Type != "ABORT" || info.Field("tx") != "7" {
		t.Fatalf("stub round trip %+v, %v", info, err)
	}
	for typ := uint8(tpc.TypePrepare); typ <= tpc.TypeAbort; typ++ {
		name := tpc.TypeName(typ)
		frame, err := stub.Generate(name, map[string]string{"from": "c"})
		if err != nil {
			t.Fatalf("Generate(%s): %v", name, err)
		}
		if info, err := stub.Recognize(frame); err != nil || info.Type != name || info.Field("from") != "c" {
			t.Fatalf("Generate(%s) recognized as %+v, %v", name, info, err)
		}
	}
	for _, bad := range []string{"NOPE", ""} {
		if _, err := stub.Generate(bad, nil); err == nil {
			t.Fatalf("generate type %q accepted", bad)
		}
	}
	if tpc.TypeName(42) != "TYPE(42)" {
		t.Fatal("unknown type name")
	}
	if tpc.StateIdle.String() != "IDLE" || tpc.TxState(42).String() != "TxState(42)" {
		t.Fatal("state names")
	}
}

func TestBeginValidation(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.coord.Begin(nil, nil); err == nil {
		t.Fatal("Begin with no participants succeeded")
	}
}

func TestSpuriousAbortInjection(t *testing.T) {
	// A byzantine fault: as p1's VOTE-YES leaves, the PFI layer injects a
	// forged ABORT upward — it lands after the vote but before the real
	// outcome. The participant obeys (2PC has no authentication), and the
	// forged outcome disagrees with the coordinator's eventual COMMIT: an
	// atomicity violation the tool makes directly observable.
	r := newRig(t, 2)
	if err := r.pfis["p1"].SetSendScript(`
		if {[msg_type cur_msg] eq "VOTE-YES" && ![info exists forged]} {
			set forged 1
			xInject ABORT [list tx [msg_field cur_msg tx] from coord src coord] up
		}
	`); err != nil {
		t.Fatal(err)
	}
	tx, err := r.coord.Begin(r.names, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.w.RunFor(time.Minute)
	s1 := r.participants["p1"].State(tx)
	s2 := r.participants["p2"].State(tx)
	if s1 != tpc.StateAborted {
		t.Fatalf("p1 state %v, want forged ABORT honoured", s1)
	}
	if s2 != tpc.StateCommitted {
		t.Fatalf("p2 state %v, want the coordinator's COMMIT", s2)
	}
	// p1 aborted while p2 committed: the forged message produced the
	// atomicity violation the injection was designed to expose.
}

// Property: agreement (AC1) under random message loss — no two
// participants ever decide different outcomes. Participants that never
// decide (blocked or unreached) do not violate atomicity.
func TestPropertyAgreementUnderLoss(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		w := netsim.NewWorld(seed)
		names := []string{"p1", "p2", "p3"}
		participants := map[string]*tpc.Participant{}
		var coord *tpc.Coordinator
		for _, name := range append([]string{"coord"}, names...) {
			node := w.MustAddNode(name)
			net := rudp.NewLayer(node.Env())
			node.SetStack(stack.New(node.Env(), net))
			if name == "coord" {
				coord = tpc.NewCoordinator(node.Env(), net)
			} else {
				participants[name] = tpc.NewParticipant(node.Env(), net)
			}
		}
		if err := w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond, Loss: 0.3}); err != nil {
			t.Fatal(err)
		}
		var txs []uint32
		for i := 0; i < 5; i++ {
			tx, err := coord.Begin(names, nil)
			if err != nil {
				t.Fatal(err)
			}
			txs = append(txs, tx)
			w.RunFor(time.Minute)
		}
		for _, tx := range txs {
			decided := map[tpc.TxState]bool{}
			for _, name := range names {
				s := participants[name].State(tx)
				if s == tpc.StateCommitted || s == tpc.StateAborted {
					decided[s] = true
				}
			}
			if len(decided) > 1 {
				t.Errorf("seed %d tx %d: split decision %v", seed, tx, decided)
			}
			// And any decided participant matches the coordinator.
			if co := coord.Outcome(tx); co != tpc.StateIdle {
				for _, name := range names {
					if s := participants[name].State(tx); (s == tpc.StateCommitted || s == tpc.StateAborted) && s != co {
						t.Errorf("seed %d tx %d: %s decided %v, coordinator %v", seed, tx, name, s, co)
					}
				}
			}
		}
	}
}
