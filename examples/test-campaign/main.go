// test-campaign: automatically generate a fault-injection test suite from
// a protocol specification — the paper's future-work item (ii) — and sweep
// it over a live GMP cluster.
//
// The specification is just the protocol's message types and the fault
// vocabulary; the generator emits one deterministic filter script per
// (type × fault × direction) case. Each case runs the shipped conformance
// template gmp_cell.pfi, pficampaign's GMP cell, with the case's script as
// one daemon's faultload, and the template checks the cluster's core
// promise: the two unfaulted daemons converge to a common view containing
// them both.
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

	"pfi/internal/campaign"
	"pfi/internal/conformance"
	"pfi/internal/fault"
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
		Faults:   []fault.Kind{fault.Drop, fault.Delay, fault.Duplicate},
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

	cell, err := conformance.NewCell("gmp_cell", "")
	if err != nil {
		return err
	}
	verdicts, serialStats, err := campaign.Run(spec, cell.Run)
	if err != nil {
		return err
	}
	fmt.Fprint(out, campaign.Summary(verdicts, serialStats))
	if fails := campaign.Failures(verdicts); len(fails) > 0 {
		return fmt.Errorf("%d cases broke the healthy-pair invariant", len(fails))
	}
	fmt.Fprintln(out, "\nthe healthy pair converged under every generated fault")

	// Sweep again through the worker pool: same verdicts, less wall clock.
	parallel, parStats, err := campaign.RunParallel(spec, cell.Run, campaign.Options{Workers: workers})
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
