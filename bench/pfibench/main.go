// Command pfibench is the end-to-end performance ledger of the PFI tools.
//
// Run by the benchmark driver, it measures one workload:
//
//	bash bench/run.sh --workload fuzz-mixed --seed 1 --seconds 12 --trace 0
//
// and prints one JSON object as its last line: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Without --workload it
// runs the whole ledger — set-up, every workload untraced three times, the
// traced pass and every probe — prints each metric by name and unit, and
// writes bench/out/results.json and bench/out/trace.json:
//
//	bash bench/run.sh -seed 1
//	bash bench/run.sh -selfcheck   # untraced pass twice, compared with the bounds
//	bash bench/run.sh -quick       # ~25 s smoke run, end-to-end metrics only
//
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"

	"pfi/bench/ledger"
)

func main() {
	var (
		workload  = flag.String("workload", "", "measure this one workload and print the driver's JSON line")
		seed      = flag.Int64("seed", 1, "generates the conformance scenarios and the proxy payload")
		seconds   = flag.Float64("seconds", ledger.RunSeconds, "how long one pass measures a workload")
		trace     = flag.Int("trace", 0, "with -workload: 0 prints end-to-end metrics, 1 per-layer metrics")
		selfcheck = flag.Bool("selfcheck", false, "run the untraced pass twice and compare the medians with the bounds")
		quick     = flag.Bool("quick", false, "one set-up and 3 s per workload, end-to-end metrics only, nothing written")
		pin       = flag.Bool("pin", false, "record this build's outputs in bench/expected/pins.json and BENCHMARK.json (use on the commit that defines the baseline)")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace, *selfcheck, *quick, *pin); err != nil {
		fmt.Fprintln(os.Stderr, "pfibench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int, selfcheck, quick, pin bool) error {
	root, err := ledger.FindRoot()
	if err != nil {
		return err
	}
	env, err := ledger.NewEnv(root, seed)
	if err != nil {
		return err
	}
	if pin {
		return writePins(env)
	}
	if err := env.LoadPins(); err != nil {
		return err
	}
	switch {
	case workload != "":
		return driverRun(env, workload, seconds, trace == 1)
	case selfcheck:
		return selfCheck(env, seconds)
	case quick:
		return quickRun(env)
	}
	return fullLedger(env, seconds)
}

// writePins re-takes the expected outputs and rewrites BENCHMARK.json from
// the tables in package ledger.
func writePins(env *ledger.Env) error {
	env.Pinning = true
	if _, err := env.Setup(); err != nil {
		return err
	}
	if err := env.WritePins(); err != nil {
		return err
	}
	spec, err := ledger.MarshalSpec(ledger.Benchmark())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(env.Root, "BENCHMARK.json"), spec, 0o644)
}

// value is one metric of the driver's result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverRun measures one workload the way the benchmark driver asks and
// prints the result object as the last line of standard output.
func driverRun(env *ledger.Env, workload string, seconds float64, traced bool) error {
	known := false
	for _, w := range ledger.Workloads {
		known = known || w.Name == workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", workload)
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Metrics: map[string]value{}}

	if !traced {
		setup, err := env.SetupMedian(ledger.SetupRepeats)
		if err != nil {
			return err
		}
		res, err := env.Measure(workload, seconds)
		if err != nil {
			return err
		}
		res.Metrics["setup_s"] = setup
		out.Correct, out.Attempted, out.Failed = res.Failed == 0, res.Attempted, res.Failed
		for _, m := range ledger.EndToEnd {
			out.Metrics[m.Name] = value{res.Metrics[m.Name], m.Unit}
		}
	} else {
		env.Trace = ledger.NewTracer()
		if _, err := env.Setup(); err != nil {
			return err
		}
		layers, n, err := env.PerLayer(workload, seconds)
		if err != nil {
			return err
		}
		if err := env.Trace.Write(filepath.Join(env.Out, "trace.json")); err != nil {
			return err
		}
		out.Correct, out.Attempted = true, n
		for _, m := range ledger.PerLayer {
			v, ok := layers[m.Name]
			if !ok {
				return fmt.Errorf("per-layer metric %s was not measured", m.Name)
			}
			out.Metrics[m.Name] = value{v, m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// host describes where the numbers were taken.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

func hostFacts() host {
	return host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH}
}
