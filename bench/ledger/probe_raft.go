package ledger

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/fleet"
	"pfi/internal/harden"
	"pfi/internal/journal"
	"pfi/internal/netsim"
	"pfi/internal/raft"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/trace"
)

// raftTypes is the message vocabulary pficampaign -raft targets.
var raftTypes = []string{"REQUEST_VOTE", "VOTE_RESP", "APPEND_ENTRIES", "APPEND_RESP"}

// raftProbes decompose one campaign-raft child: the simulated step at two
// cluster sizes, the layers under it (event queue, network hop, stub
// recognition, trace), one whole cell's allocations, the two ways to
// spread cells over processes, and the journal and fleet framing that ride
// along without being on the measured path.
func (p *prober) raftProbes() {
	for _, n := range []int{25, 250} {
		n := n
		name := fmt.Sprintf("raft.step_ns_%d", n)
		p.span(name, func() error {
			var rig *exp.RaftRig
			var err error
			build := p.once(func() { rig, err = exp.NewRaftRig(n) })
			if err != nil {
				return err
			}
			if n == 250 {
				p.ms("raft.world_build_ms_250", build)
			}
			rig.StartAll()
			rig.W.RunFor(20 * time.Second) // elect a leader first: steady state is heartbeats
			steps := 0
			start := time.Now()
			for time.Since(start) < probeLoop {
				steps += rig.W.RunFor(time.Second)
			}
			if steps == 0 {
				return errors.New("the raft world executed no events")
			}
			p.calls += steps
			p.out[name] = float64(time.Since(start).Nanoseconds()) / float64(steps)
			return nil
		})
	}

	p.span("simtime.event_ns", func() error {
		s := simtime.NewScheduler()
		nop := func() {}
		for i := 0; i < 10000; i++ {
			s.After(time.Hour+time.Duration(i)*time.Millisecond, "pending", nop)
		}
		k := 0
		p.ns("simtime.event_ns", p.loop(1000, func() {
			k++
			s.After(time.Duration(k%1000)*time.Microsecond, "event", nop)
			s.Step()
		}))
		return nil
	})

	p.span("netsim.hop_ns", func() error {
		const hops = 1000
		payload := make([]byte, 64)
		var err error
		o := p.loop(1, func() {
			// A fresh world per thousand hops keeps the drivers' receive
			// logs from growing without bound.
			w := netsim.NewWorld(1)
			var from *core.Driver
			for _, name := range []string{"a", "b"} {
				node := w.MustAddNode(name)
				d := core.NewDriver(node.Env())
				node.SetStack(stack.New(node.Env(), d))
				if from == nil {
					from = d
				}
			}
			if err = w.Connect("a", "b", netsim.LinkConfig{Latency: time.Millisecond}); err != nil {
				return
			}
			for i := 0; i < hops; i++ {
				if err = from.Send(payload, "b"); err != nil {
					return
				}
				w.Run()
			}
			if got := w.Stats().Delivered; got != hops {
				err = fmt.Errorf("%d of %d hops delivered", got, hops)
			}
		})
		p.out["netsim.hop_ns"] = o.ns / hops
		return err
	})

	p.span("core.recognize_ns_raft", func() error {
		msg := (&raft.Msg{Type: raft.TypeAppend, Term: 3, From: "r1", PrevIndex: 5, PrevTerm: 3, Commit: 5,
			Entries: []raft.LogEntry{{Term: 3, Data: "w1"}}}).Encode()
		env := &stack.Env{Sched: simtime.NewScheduler(), Node: "r2"}
		stub := core.NewLayer(env, core.WithStub(raft.PFIStub{})).Stub()
		var err error
		p.ns("core.recognize_ns_raft", p.loop(1000, func() { _, err = stub.Recognize(msg) }))
		return err
	})

	p.span("trace.add_ns", func() error {
		const entries = 10000
		var lg *trace.Log
		o := p.loop(1, func() {
			lg = trace.NewLog()
			for i := 0; i < entries; i++ {
				kind := "apply"
				if i%100 == 0 {
					kind = "elected"
				}
				lg.Addf(simtime.Time(i)*simtime.Time(time.Millisecond), "r1", kind, "APPEND_ENTRIES", uint64(i), "w1")
			}
		})
		p.out["trace.add_ns"] = o.ns / entries
		found := 0
		o = p.loop(10, func() { found = len(lg.Filter("r1", "elected", "")) })
		p.out["trace.scan_ns_per_entry"] = o.ns / entries
		if found != entries/100 {
			return fmt.Errorf("scan found %d entries, want %d", found, entries/100)
		}
		return nil
	})

	spec := campaign.Spec{Protocol: "raft", Types: raftTypes, Faults: []campaign.FaultKind{campaign.Drop}}
	var cases []campaign.Case
	p.span("campaign.generate_us", func() error {
		var err error
		p.us("campaign.generate_us", p.loop(10, func() { cases, err = campaign.Generate(spec) }))
		return err
	})
	p.span("campaign.allocs_per_cell_25", func() error {
		if len(cases) == 0 {
			return errors.New("no cases generated")
		}
		var v campaign.Verdict
		o := p.once(func() { v = campaign.RunCase(cases[0], raftCell(25), harden.Config{}, nil) })
		p.out["campaign.allocs_per_cell_25"] = o.allocs
		if !v.OK || v.Err != nil {
			return fmt.Errorf("replica cell failed: %s %v", v.Note, v.Err)
		}
		return nil
	})

	p.span("campaign.speedup_w2", func() error {
		rate := func(extra ...string) (float64, error) {
			r, err := p.e.campaignRound(roundOpts{parent: p.parent, unit: p.group, extra: extra})
			if err == nil && r.Failed > 0 {
				err = fmt.Errorf("%d of %d cells failed with %v", r.Failed, r.Units, extra)
			}
			return float64(r.Units) / r.Wall.Seconds(), err
		}
		w1, err := rate()
		if err != nil {
			return err
		}
		w2, err := rate("-workers", "2")
		if err != nil {
			return err
		}
		spawn2, err := rate("-spawn-workers", "2")
		p.out["campaign.speedup_w2"] = w2 / w1
		p.out["fleet.speedup_spawn2"] = spawn2 / w1
		return err
	})

	p.span("fleet.frame_encode_ns", func() error {
		frame := fleet.Envelope{V: fleet.ProtocolVersion, Type: fleet.MsgCell, Session: "s1",
			Cell: &fleet.WireCell{Unit: 3, Verdict: &fleet.WireVerdict{Index: 17, OK: true,
				Note: "proposed=3 applied=25/25", ElapsedUS: 12345}}}
		var wire []byte
		var err error
		p.ns("fleet.frame_encode_ns", p.loop(1000, func() { wire, err = fleet.Encode(frame) }))
		if err != nil {
			return err
		}
		p.ns("fleet.frame_decode_ns", p.loop(1000, func() { _, err = fleet.Decode(wire) }))
		return err
	})

	p.span("journal.append_ns", func() error { return p.journalProbes() })
}

// raftCell is the cell pficampaign -raft runs with no churn: 75 simulated
// seconds of a faulted n-node cluster with three proposals along the way.
func raftCell(n int) campaign.Scenario {
	return func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
		rig, err := exp.NewRaftRig(n)
		if err != nil {
			return false, "", err
		}
		victim := rig.Ms[rig.Names[0]]
		m.Attach(rig.W.Sched, rig.Log, func() int {
			return victim.PFI.SendFilter().Stats().Injected + victim.PFI.ReceiveFilter().Stats().Injected
		})
		if err := c.Apply(victim.PFI); err != nil {
			return false, "", err
		}
		rig.StartAll()
		proposed := 0
		for k, d := range []time.Duration{20, 10 + 20, 10} {
			rig.W.RunFor(d * time.Second)
			if ls := rig.Leaders(); len(ls) == 1 {
				if _, ok := rig.Ms[ls[0]].Raft().Propose(fmt.Sprintf("w%d", k)); ok {
					proposed++
				}
			}
		}
		rig.W.RunFor(15 * time.Second)
		applied := 0
		for _, name := range rig.Names {
			if rig.Ms[name].Raft().Applied() >= 1 {
				applied++
			}
		}
		return applied >= n/2+1, fmt.Sprintf("proposed=%d applied=%d/%d", proposed, applied, n), nil
	}
}

// journalProbes time the write-ahead log: appends, then syncs, then a
// reopen that replays what the appends wrote.
func (p *prober) journalProbes() error {
	dir := p.e.scratch("journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.wal")
	_ = os.Remove(path) // a previous probe's log; absent on the first run
	l, err := journal.Open(path)
	if err != nil {
		return err
	}
	cell := fleet.WireVerdict{Index: 17, OK: true, Note: "proposed=3 applied=25/25"}
	p.ns("journal.append_ns", p.loop(100, func() {
		if aerr := l.Append("cell", cell); aerr != nil {
			err = aerr
		}
	}))
	if err != nil {
		l.Close()
		return err
	}
	var syncs []float64
	for i := 0; i < 20; i++ {
		if err := l.Append("cell", cell); err != nil {
			l.Close()
			return err
		}
		start := time.Now()
		if err := l.Sync(); err != nil {
			l.Close()
			return err
		}
		syncs = append(syncs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	p.calls += len(syncs)
	p.out["journal.sync_us"] = Median(syncs)
	records := len(l.Records())
	if err := l.Close(); err != nil {
		return err
	}
	var re *journal.Log
	o := p.once(func() { re, err = journal.Open(path) })
	if err != nil {
		return err
	}
	defer re.Close()
	if got := len(re.Records()); got != records {
		return fmt.Errorf("reopen recovered %d of %d records", got, records)
	}
	p.out["journal.reopen_us_per_krec"] = o.ns / 1e3 / (float64(records) / 1000)
	return nil
}
