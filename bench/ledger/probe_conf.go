package ledger

import (
	"errors"
	"fmt"
	"io"
	"time"

	"pfi/internal/conformance"
	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/message"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// conformanceProbes decompose one conformance-dense child: what one TCP
// DATA segment costs in the filter (with and without the PFI layer around
// the script), in stub recognition, in the stack and in TCP itself, and
// what the run's trace costs to serialize and to check against its golden.
func (p *prober) conformanceProbes() {
	body := DenseSendFilter(97, 41, 53, 10, []int{3, 5, 7})
	data := (&tcp.Segment{SrcPort: 32769, DstPort: 80, Seq: 65513, Ack: 65001,
		Flags: tcp.FlagACK | tcp.FlagPSH, Window: 4096, Payload: make([]byte, 512)}).Encode()
	passed := 0
	sink := func(*message.Message) error { passed++; return nil }
	newLayer := func() *core.Layer {
		env := &stack.Env{Sched: simtime.NewScheduler(), Node: "vendor"}
		l := core.NewLayer(env, core.WithStub(tcp.PFIStub{}))
		l.Wire(sink, sink)
		return l
	}

	p.span("script.filter_ns_per_msg", func() error {
		l := newLayer()
		if err := l.SetSendScript(body); err != nil {
			return err
		}
		var err error
		p.ns("script.filter_ns_per_msg", p.loop(1000, func() { err = l.HandleDown(data) }))
		if err == nil && l.SendFilter().Stats().Dropped == 0 {
			err = errors.New("the filter never dropped: its script did not run")
		}
		return err
	})
	p.span("script.eval_ns", func() error {
		in := script.New()
		constant := func(v string) script.Command {
			return func(*script.Interp, []string) (string, error) { return v, nil }
		}
		in.Register("msg_type", constant("DATA"))
		in.Register("msg_field", func(_ *script.Interp, args []string) (string, error) {
			if len(args) == 2 && args[1] == "len" {
				return "512", nil
			}
			return "65513", nil
		})
		for _, verb := range []string{"msg_log", "xDrop", "xDelay", "xDuplicate"} {
			in.Register(verb, constant(""))
		}
		var err error
		p.ns("script.eval_ns", p.loop(1000, func() { _, err = in.Eval(body) }))
		return err
	})
	p.span("core.passthrough_ns", func() error {
		l := newLayer()
		var err error
		before := passed
		o := p.loop(1000, func() { err = l.HandleDown(data) })
		p.ns("core.passthrough_ns", o)
		if err == nil && passed == before {
			err = errors.New("nothing passed through the layer")
		}
		return err
	})
	p.span("core.recognize_ns_tcp", func() error {
		stub := newLayer().Stub()
		var info core.Info
		var err error
		p.ns("core.recognize_ns_tcp", p.loop(1000, func() { info, err = stub.Recognize(data) }))
		if err == nil && info.Type != "DATA" {
			err = fmt.Errorf("recognized %q, want DATA", info.Type)
		}
		return err
	})
	p.span("stack.send_ns", func() error {
		env := &stack.Env{Sched: simtime.NewScheduler(), Node: "vendor"}
		stk := stack.New(env, core.NewLayer(env, core.WithStub(tcp.PFIStub{})))
		stk.OnTransmit(sink)
		var err error
		p.ns("stack.send_ns", p.loop(1000, func() { err = stk.Send(data) }))
		return err
	})
	p.span("tcp.segment_ns", func() error {
		const segments = 2000
		var err error
		o := p.loop(1, func() {
			var rig *exp.TCPRig
			if rig, err = exp.NewTCPRig(tcp.SunOS413()); err != nil {
				return
			}
			var c *tcp.Conn
			if c, err = rig.Dial(func(sc *tcp.Conn) { sc.SetAutoConsume(true) }); err != nil {
				return
			}
			if err = rig.StreamSegments(c, segments, 5*time.Millisecond); err == nil && c.UnackedSegments() != 0 {
				err = errors.New("stream left segments unacknowledged")
			}
		})
		p.out["tcp.segment_ns"] = o.ns / segments
		return err
	})

	var res *conformance.Result
	p.span("conformance.allocs_per_segment", func() error {
		sc := DenseScenarios(p.e.Seed, 1)[0]
		o := p.once(func() { res = conformance.Run(conformance.New(sc.Name, sc.Source), conformance.Options{}) })
		p.out["conformance.allocs_per_segment"] = o.allocs / DenseSegments
		if !res.OK() {
			return fmt.Errorf("generated scenario failed in process: %v %v", res.Err, res.Failed())
		}
		return nil
	})
	if res == nil || len(res.Trace) == 0 {
		p.fail("trace.canonical_ns_per_entry", errors.New("no trace to serialize"))
		return
	}
	p.span("trace.canonical_ns_per_entry", func() error {
		var err error
		o := p.loop(10, func() { err = trace.WriteCanonical(io.Discard, res.Trace) })
		p.out["trace.canonical_ns_per_entry"] = o.ns / float64(len(res.Trace))
		return err
	})
	p.span("conformance.golden_check_us", func() error {
		var diffs []string
		var err error
		p.us("conformance.golden_check_us", p.loop(10, func() { diffs, err = conformance.CheckGolden(p.e.goldenDir(), res) }))
		if err == nil && len(diffs) > 0 {
			err = fmt.Errorf("in-process trace differs from the golden pfitest blessed: %s", diffs[0])
		}
		return err
	})
}

// proxyProbes decompose one proxy-pingpong child: the round-trip
// distribution of a standard round, the same path without the proxy, with
// large datagrams, and with a window of sixteen.
func (p *prober) proxyProbes() {
	opts := func(o roundOpts) roundOpts {
		o.parent, o.unit = p.parent, p.group
		return o
	}
	lost := 0
	p.span("interpose.rtt_p50_us", func() error {
		r, err := p.e.proxyRound(opts(roundOpts{}))
		if err != nil {
			return err
		}
		p.calls += r.Units
		lost += r.Failed
		p.out["interpose.rtt_p50_us"] = Percentile(r.LatUS, 50)
		p.out["interpose.rtt_p99_us"] = Percentile(r.LatUS, 99)
		p.out["interpose.rtt_p999_us"] = Percentile(r.LatUS, 99.9)
		p.out["interpose.cpu_us_per_rt"] = float64(r.CPU.Microseconds()) / float64(r.Units)
		return nil
	})
	p.span("interpose.direct_rtt_p50_us", func() error {
		r, err := p.e.proxyRound(opts(roundOpts{direct: true, trips: 5000}))
		if err != nil {
			return err
		}
		p.calls += r.Units
		p.out["interpose.direct_rtt_p50_us"] = Percentile(r.LatUS, 50)
		p.out["interpose.added_rtt_p50_us"] = p.out["interpose.rtt_p50_us"] - p.out["interpose.direct_rtt_p50_us"]
		return nil
	})
	p.span("interpose.rtt_p50_us_1400", func() error {
		r, err := p.e.proxyRound(opts(roundOpts{payload: 1400, trips: 5000}))
		if err != nil {
			return err
		}
		p.calls += r.Units
		lost += r.Failed
		p.out["interpose.rtt_p50_us_1400"] = Percentile(r.LatUS, 50)
		return nil
	})
	p.span("interpose.window16_rt_per_s", func() error {
		// Informational: with sixteen in flight on two cores this measures
		// the kernel scheduler as much as the proxy and does not repeat.
		r, err := p.e.proxyRound(opts(roundOpts{window: 16}))
		if err != nil {
			return err
		}
		p.calls += r.Units
		lost += r.Failed
		p.out["interpose.window16_rt_per_s"] = float64(r.Units-r.Failed) / r.Wall.Seconds()
		return nil
	})
	p.out["interpose.lost"] = float64(lost)
}
