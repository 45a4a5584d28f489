// Command gmpexp reruns the paper's four GMP experiment families
// (Section 4.2) — packet interruption, network partitions, proclaim
// forwarding, and the timer test, the shipped gmp_* conformance scenarios —
// and prints Tables 5-8, including the buggy-vs-fixed contrast for each of
// the three historical bugs, each row read from its run's trace.
//
// Usage:
//
//	gmpexp           # run every experiment
//	gmpexp -exp 2    # run one experiment family (1-4)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pfi/internal/conformance"
)

func main() {
	expNum := flag.Int("exp", 0, "experiment to run (1-4; 0 = all)")
	flag.Parse()

	if err := run(*expNum, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpexp:", err)
		os.Exit(1)
	}
}

func run(expNum int, out io.Writer) error {
	all := expNum == 0
	if all || expNum == 1 {
		if err := conformance.Table5(out); err != nil {
			return err
		}
	}
	if all || expNum == 2 {
		if err := conformance.Table6(out); err != nil {
			return err
		}
	}
	if all || expNum == 3 {
		if err := conformance.Table7(out); err != nil {
			return err
		}
	}
	if all || expNum == 4 {
		if err := conformance.Table8(out); err != nil {
			return err
		}
	}
	if !all && (expNum < 1 || expNum > 4) {
		return fmt.Errorf("unknown experiment %d (want 1-4)", expNum)
	}
	return nil
}
