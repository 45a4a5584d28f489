// Package pfi's root benchmark harness regenerates every table and figure
// of the paper's evaluation, one Benchmark per artifact:
//
//	BenchmarkTable1_Retransmission        — Table 1, all four vendors
//	BenchmarkTable2_DelayedACK            — Table 2, 3 s and 8 s delays
//	BenchmarkTable2_GlobalErrorCounter    — the 35 s probe behind Table 2
//	BenchmarkFigure4_RTOSeries            — Figure 4 series, 0/3/8 s
//	BenchmarkTable3_KeepAlive             — Table 3
//	BenchmarkTable4_ZeroWindow            — Table 4
//	BenchmarkExp5_Reordering              — the Experiment 5 findings
//	BenchmarkTable5_GMPInterruption       — Table 5
//	BenchmarkTable6_GMPPartition          — Table 6
//	BenchmarkTable7_ProclaimForwarding    — Table 7
//	BenchmarkTable8_TimerTest             — Table 8
//
// Each benchmark reports the paper's headline numbers as custom metrics
// (b.ReportMetric), so `go test -bench=. -benchmem` prints the reproduced
// results next to the runtime cost of regenerating them.
package pfi

import (
	"fmt"
	"testing"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/conformance"
	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/harden"
	"pfi/internal/message"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/stack"
	"pfi/internal/tcp"
)

func BenchmarkTable1_Retransmission(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bsd, err := exp.RunTCPRetransmission(tcp.SunOS413())
		if err != nil {
			b.Fatal(err)
		}
		sol, err := exp.RunTCPRetransmission(tcp.Solaris23())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(bsd.Retransmissions), "bsd-retransmits")
			b.ReportMetric(bsd.Plateau.Seconds(), "bsd-upper-bound-s")
			b.ReportMetric(float64(sol.Retransmissions), "solaris-retransmits")
			b.ReportMetric(sol.Gaps[0].Seconds(), "solaris-first-gap-s")
		}
	}
}

func BenchmarkTable2_DelayedACK(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bsd, err := exp.RunTCPDelayedACK(tcp.SunOS413(), 3*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := exp.RunTCPDelayedACK(tcp.Solaris23(), 3*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(bsd.FirstRTO.Seconds(), "bsd-first-rto-s")
			b.ReportMetric(sol.FirstRTO.Seconds(), "solaris-first-rto-s")
		}
	}
}

func BenchmarkTable2_GlobalErrorCounter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTCPGlobalCounter(tcp.Solaris23())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(res.M1Retransmit), "m1-retransmits")
			b.ReportMetric(float64(res.M2Transmit), "m2-retransmits")
		}
	}
}

func BenchmarkFigure4_RTOSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, delay := range []time.Duration{0, 3 * time.Second, 8 * time.Second} {
			res, err := exp.RunTCPDelayedACK(tcp.SunOS413(), delay)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 && delay == 8*time.Second {
				b.ReportMetric(res.FirstRTO.Seconds(), "first-rto-8s-delay-s")
				b.ReportMetric(res.Plateau.Seconds(), "plateau-s")
			}
		}
	}
}

func BenchmarkTable3_KeepAlive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bsd, err := exp.RunTCPKeepAlive(tcp.SunOS413(), true, 4*3600*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := exp.RunTCPKeepAlive(tcp.Solaris23(), true, 4*3600*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(bsd.FirstProbeAt.Seconds(), "bsd-first-probe-s")
			b.ReportMetric(sol.FirstProbeAt.Seconds(), "solaris-first-probe-s")
			b.ReportMetric(float64(bsd.ProbeCount), "bsd-probes")
			b.ReportMetric(float64(sol.ProbeCount), "solaris-probes")
		}
	}
}

func BenchmarkTable4_ZeroWindow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bsd, err := exp.RunTCPZeroWindow(tcp.SunOS413(), exp.ZWAcked)
		if err != nil {
			b.Fatal(err)
		}
		sol, err := exp.RunTCPZeroWindow(tcp.Solaris23(), exp.ZWAcked)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(bsd.SteadyInterval.Seconds(), "bsd-probe-interval-s")
			b.ReportMetric(sol.SteadyInterval.Seconds(), "solaris-probe-interval-s")
		}
	}
}

func BenchmarkExp5_Reordering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.RunTCPReorder(tcp.SunOS413())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(boolMetric(res.SecondQueued), "ooo-queued")
			b.ReportMetric(boolMetric(res.BothDelivered && res.DeliveredOrder), "in-order-delivery")
		}
	}
}

func BenchmarkTable5_GMPInterruption(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buggy, err := exp.RunGMPInterruption(exp.DropAllHeartbeats, true)
		if err != nil {
			b.Fatal(err)
		}
		fixed, err := exp.RunGMPInterruption(exp.DropAllHeartbeats, false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(boolMetric(buggy.BuggyDeclaredDead), "bug-reproduced")
			b.ReportMetric(boolMetric(fixed.FormedSingleton), "fix-verified")
		}
	}
}

func BenchmarkTable6_GMPPartition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := exp.RunGMPPartition(1)
		if err != nil {
			b.Fatal(err)
		}
		s, err := exp.RunGMPLeaderCrownSeparation()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(boolMetric(p.DisjointGroupsFormed && p.MergedAfterHeal), "partition-as-specified")
			b.ReportMetric(boolMetric(s.CrownPrinceIsolated && s.OthersWithLeader), "separation-as-specified")
		}
	}
}

func BenchmarkTable7_ProclaimForwarding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buggy, err := exp.RunGMPProclaim(true)
		if err != nil {
			b.Fatal(err)
		}
		fixed, err := exp.RunGMPProclaim(false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(buggy.LoopRounds), "loop-rounds")
			b.ReportMetric(boolMetric(fixed.VictimAdmitted), "fix-verified")
		}
	}
}

func BenchmarkTable8_TimerTest(b *testing.B) {
	for i := 0; i < b.N; i++ {
		buggy, err := exp.RunGMPTimer(true)
		if err != nil {
			b.Fatal(err)
		}
		fixed, err := exp.RunGMPTimer(false)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(buggy.StrayTimeouts), "buggy-stray-timeouts")
			b.ReportMetric(float64(fixed.StrayTimeouts), "fixed-stray-timeouts")
		}
	}
}

// benchStub is a minimal recognition stub for the hot-path benchmarks: it
// types every packet without decoding header fields.
type benchStub struct{}

func (benchStub) Protocol() string { return "bench" }
func (benchStub) Recognize(m *message.Message) (core.Info, error) {
	return core.Info{Type: "DATA"}, nil
}
func (benchStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return message.NewString(typ), nil
}

// BenchmarkFilterProcess measures the per-message cost of the PFI layer's
// script path — the campaign engine's innermost loop. The script is the
// generated drop-first-n case, so every message runs the recognition stub,
// the type guard, and the counter bookkeeping.
func BenchmarkFilterProcess(b *testing.B) {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "bench"}
	l := core.NewLayer(env, core.WithStub(benchStub{}))
	stk := stack.New(env, l)
	stk.OnTransmit(func(m *message.Message) error { return nil })
	if err := l.SetSendScript(`if {[msg_type cur_msg] eq "DATA"} {
	if {![info exists dropped]} { set dropped 0 }
	if {$dropped < 3} {
		incr dropped
		xDrop cur_msg
	}
}
`); err != nil {
		b.Fatal(err)
	}
	m := message.NewString("payload-0123456789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stk.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpEval measures the interpreter's per-message cost in
// isolation: a pre-parsed filter body with command substitution, an expr
// guard, and counter state, run repeatedly on one interpreter.
func BenchmarkInterpEval(b *testing.B) {
	in := script.New()
	in.Register("msg_type", func(_ *script.Interp, args []string) (string, error) {
		return "DATA", nil
	})
	s := script.MustParse(`
		set type [msg_type cur_msg]
		if {$type eq "DATA" && [string length $type] > 0} { incr seen }
	`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFilterProcessTree is BenchmarkFilterProcess pinned to the
// tree-walking reference engine, kept as the before/after yardstick for
// the compiled VM on the same hot path.
func BenchmarkFilterProcessTree(b *testing.B) {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "bench"}
	l := core.NewLayer(env, core.WithStub(benchStub{}))
	stk := stack.New(env, l)
	stk.OnTransmit(func(m *message.Message) error { return nil })
	l.SendFilter().Interp().SetEngine(script.EngineTree)
	if err := l.SetSendScript(`if {[msg_type cur_msg] eq "DATA"} {
	if {![info exists dropped]} { set dropped 0 }
	if {$dropped < 3} {
		incr dropped
		xDrop cur_msg
	}
}
`); err != nil {
		b.Fatal(err)
	}
	m := message.NewString("payload-0123456789")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := stk.Send(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpEvalTree is BenchmarkInterpEval on the tree-walking
// reference engine.
func BenchmarkInterpEvalTree(b *testing.B) {
	in := script.New()
	in.SetEngine(script.EngineTree)
	in.Register("msg_type", func(_ *script.Interp, args []string) (string, error) {
		return "DATA", nil
	})
	s := script.MustParse(`
		set type [msg_type cur_msg]
		if {$type eq "DATA" && [string length $type] > 0} { incr seen }
	`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.Run(s); err != nil {
			b.Fatal(err)
		}
	}
}

// sweepStub recognizes a message's payload string as its type.
type sweepStub struct{}

func (sweepStub) Protocol() string { return "sweep" }
func (sweepStub) Recognize(m *message.Message) (core.Info, error) {
	return core.Info{Type: string(m.Bytes())}, nil
}
func (sweepStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return message.NewString(typ), nil
}

// sweepScenario is one deterministic CPU-bound case: a single-node world
// whose PFI layer filters a few thousand messages under the generated
// fault script.
func sweepScenario(_ *harden.Monitor, c campaign.Case) (bool, string, error) {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "bench"}
	l := core.NewLayer(env, core.WithStub(sweepStub{}))
	stk := stack.New(env, l)
	var sent, delivered int
	stk.OnTransmit(func(m *message.Message) error { sent++; return nil })
	stk.OnDeliver(func(m *message.Message) error { delivered++; return nil })
	if err := c.Apply(l); err != nil {
		return false, "", err
	}
	types := []string{"DATA", "ACK", "PING"}
	for i := 0; i < 2000; i++ {
		typ := types[i%len(types)]
		if err := stk.Send(message.NewString(typ)); err != nil {
			return false, "", err
		}
		if err := stk.Deliver(message.NewString(typ)); err != nil {
			return false, "", err
		}
	}
	env.Sched.RunFor(simtime.Duration(10 * time.Second))
	return sent+delivered > 0, fmt.Sprintf("sent=%d delivered=%d", sent, delivered), nil
}

// BenchmarkCampaignSweep measures a full generated fault-matrix sweep,
// serial vs parallel, proving the worker pool's speedup and that both
// modes produce identical verdicts.
func BenchmarkCampaignSweep(b *testing.B) {
	spec := campaign.Spec{
		Protocol: "sweep",
		Types:    []string{"DATA", "ACK", "PING"},
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				vs, stats, err := campaign.RunParallel(spec, sweepScenario, campaign.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(vs) != 36 {
					b.Fatalf("got %d verdicts, want 36", len(vs))
				}
				if i == 0 {
					b.ReportMetric(stats.CasesPerSecond, "cases/s")
				}
			}
		})
	}
}

// forkPrefix is a deliberately expensive shared prefix: a lossy first
// minute forces the vendor stack through its full retransmission machinery
// before the world settles. Fuzzing candidates that mutate only the tail
// share all of this work.
const forkPrefix = `world tcp
faultload vendor send {
if {[msg_type cur_msg] eq "DATA" && [now] < 60000} { xDrop cur_msg }
}
tcp_dial
tcp_stream 32 250
run 240000
`

// forkSuffix is the cheap mutated tail a candidate actually varies.
const forkSuffix = "run 5000\nsent_len\n"

// BenchmarkWorldFork measures one O(delta) fuzzing iteration: restore the
// captured world in place and execute only the mutated suffix. Compare
// with BenchmarkWorldForkReplay, which pays for the full prefix every time —
// the ratio is the snapshot speedup BENCH_snapshot.json records.
func BenchmarkWorldFork(b *testing.B) {
	sess, err := conformance.NewSession(forkPrefix, conformance.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := sess.Run("bench-fork", forkSuffix)
		if !ok || r.Outcome != harden.Pass {
			b.Fatalf("fork run not clean: ok=%v", ok)
		}
	}
}

// BenchmarkWorldForkReplay is the same scenario evaluated the pre-snapshot
// way: a fresh world replays prefix plus suffix for every candidate.
func BenchmarkWorldForkReplay(b *testing.B) {
	sc := conformance.New("bench-replay", forkPrefix+forkSuffix)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := conformance.Run(sc, conformance.Options{})
		if r.Outcome != harden.Pass {
			b.Fatalf("replay not clean: %v %v", r.Outcome, r.Err)
		}
	}
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
