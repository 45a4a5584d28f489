// Command tcpexp reruns the paper's five TCP experiments (Section 4.1), the
// shipped tcp_* conformance scenarios, against the four vendor behaviour
// profiles and prints Tables 1-4, the Figure 4 series, and the Experiment 5
// findings, each row read from its run's trace.
//
// Usage:
//
//	tcpexp                 # run every experiment
//	tcpexp -exp 3          # run one experiment (1-5)
//	tcpexp -exp 2 -figure  # include the Figure 4 series
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pfi/internal/conformance"
	"pfi/internal/tcp"
)

func main() {
	expNum := flag.Int("exp", 0, "experiment to run (1-5; 0 = all)")
	figure := flag.Bool("figure", false, "print the Figure 4 RTO series (with -exp 2 or all)")
	flag.Parse()

	if err := run(*expNum, *figure, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tcpexp:", err)
		os.Exit(1)
	}
}

func run(expNum int, figure bool, out io.Writer) error {
	all := expNum == 0
	if all || expNum == 1 {
		if err := conformance.Table1(out); err != nil {
			return err
		}
	}
	if all || expNum == 2 {
		for _, d := range []time.Duration{3 * time.Second, 8 * time.Second} {
			if err := conformance.Table2(out, d); err != nil {
				return err
			}
		}
		if err := conformance.GlobalCounter(out); err != nil {
			return err
		}
		if figure || all {
			if err := conformance.Figure4(out, tcp.SunOS413()); err != nil {
				return err
			}
			if err := conformance.Figure4(out, tcp.Solaris23()); err != nil {
				return err
			}
		}
	}
	if all || expNum == 3 {
		if err := conformance.Table3(out); err != nil {
			return err
		}
	}
	if all || expNum == 4 {
		if err := conformance.Table4(out); err != nil {
			return err
		}
	}
	if all || expNum == 5 {
		if err := conformance.Reorder(out); err != nil {
			return err
		}
	}
	if !all && (expNum < 1 || expNum > 5) {
		return fmt.Errorf("unknown experiment %d (want 1-5)", expNum)
	}
	return nil
}
