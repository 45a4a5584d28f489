// test-campaign: automatically generate a fault-injection test suite from
// a protocol specification — the paper's future-work item (ii) — and sweep
// it over a live GMP cluster.
//
// The specification is just the protocol's message types and the fault
// vocabulary; the generator emits one deterministic filter script per
// (type × fault × direction) case. Each case is applied to one daemon's
// PFI layer and the cluster is checked for its core promise: the two
// unfaulted daemons converge to a common view containing them both.
//
// The sweep runs twice — serially, then across a worker pool — and prints
// the speedup, so the example doubles as a smoke benchmark for the
// parallel campaign engine.
//
// Run: go run ./examples/test-campaign [-workers N]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/gmp"
	"pfi/internal/harden"
	"pfi/internal/netsim"
	"pfi/internal/rudp"
	"pfi/internal/stack"
)

func main() {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "worker-pool size for the parallel sweep")
	flag.Parse()
	if err := run(os.Stdout, *workers); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(out io.Writer, workers int) error {
	spec := campaign.Spec{
		Protocol: "gmp",
		Types:    []string{"HEARTBEAT", "MEMBERSHIP_CHANGE", "ACK", "COMMIT"},
		Faults:   []campaign.FaultKind{campaign.Drop, campaign.Delay, campaign.Duplicate},
	}
	cases, err := campaign.Generate(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "generated %d test scripts from the %s specification, e.g.:\n\n",
		len(cases), spec.Protocol)
	fmt.Fprintln(out, cases[0].Name+":")
	fmt.Fprint(out, "  "+cases[0].Script)
	fmt.Fprintln(out)

	verdicts, serialStats, err := campaign.Run(spec, gmpScenario)
	if err != nil {
		return err
	}
	fmt.Fprint(out, campaign.Summary(verdicts, serialStats))
	if fails := campaign.Failures(verdicts); len(fails) > 0 {
		return fmt.Errorf("%d cases broke the healthy-pair invariant", len(fails))
	}
	fmt.Fprintln(out, "\nthe healthy pair converged under every generated fault")

	// Sweep again through the worker pool: same verdicts, less wall clock.
	parallel, parStats, err := campaign.RunParallel(spec, gmpScenario, campaign.Options{Workers: workers})
	if err != nil {
		return err
	}
	for i := range parallel {
		if parallel[i].Case.Name != verdicts[i].Case.Name ||
			parallel[i].OK != verdicts[i].OK || parallel[i].Note != verdicts[i].Note {
			return fmt.Errorf("parallel sweep diverged from serial at %q", parallel[i].Case.Name)
		}
	}
	fmt.Fprintf(out, "\nserial:   %s\nparallel: %s\n", serialStats, parStats)
	fmt.Fprintf(out, "speedup with %d workers: %.2fx (identical verdicts)\n",
		parStats.Workers, serialStats.Elapsed.Seconds()/parStats.Elapsed.Seconds())
	return nil
}

// gmpScenario boots a fresh 3-daemon cluster, faults gmd3's traffic per
// the case, and checks that gmd1 and gmd2 still share a view.
func gmpScenario(_ *harden.Monitor, c campaign.Case) (bool, string, error) {
	names := []string{"gmd1", "gmd2", "gmd3"}
	w := netsim.NewWorld(2026)
	daemons := map[string]*gmp.Daemon{}
	var victim *core.Layer
	for _, name := range names {
		node, err := w.AddNode(name)
		if err != nil {
			return false, "", err
		}
		net := rudp.NewLayer(node.Env())
		pfi := core.NewLayer(node.Env(), core.WithStub(gmp.PFIStub{}))
		node.SetStack(stack.New(node.Env(), net, pfi))
		gmd, err := gmp.New(node.Env(), net, names)
		if err != nil {
			return false, "", err
		}
		daemons[name] = gmd
		if name == "gmd3" {
			victim = pfi
		}
	}
	if err := w.ConnectAll(netsim.LinkConfig{Latency: 2 * time.Millisecond}); err != nil {
		return false, "", err
	}
	if err := c.Apply(victim); err != nil {
		return false, "", err
	}
	for _, n := range names {
		daemons[n].Start()
	}
	w.RunFor(3 * time.Minute)

	g1, g2 := daemons["gmd1"].Group(), daemons["gmd2"].Group()
	if !g1.Equal(g2) {
		return false, fmt.Sprintf("views diverged: %v vs %v", g1, g2), nil
	}
	if !g1.Contains("gmd1") || !g1.Contains("gmd2") {
		return false, fmt.Sprintf("healthy daemons missing from %v", g1), nil
	}
	return true, g1.String(), nil
}
