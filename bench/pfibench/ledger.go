package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"pfi/bench/ledger"
)

// passes is how many untraced passes the ledger makes over each workload.
const passes = 3

// summary is a metric over the passes of one workload.
type summary struct {
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Unit   string  `json:"unit"`
}

// endToEnd is the untraced result of one workload.
type endToEnd struct {
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Metrics   map[string]summary `json:"metrics"`
}

// ledgerMetrics are what the ledger prints per workload: the benchmark's
// end-to-end metrics (set-up is per invocation, not per workload) and the
// round-trip percentiles only proxy-pingpong has.
var ledgerMetrics = func() []ledger.Metric {
	var ms []ledger.Metric
	for _, m := range ledger.EndToEnd {
		if m.Name != "setup_s" {
			ms = append(ms, m)
		}
	}
	return append(ms,
		ledger.Metric{Name: "rtt_p50_us", Unit: "us", Better: "lower"},
		ledger.Metric{Name: "rtt_p99_us", Unit: "us", Better: "lower"})
}()

// untraced makes the untraced passes over every workload.
func untraced(env *ledger.Env, seconds float64, n int) (map[string]endToEnd, error) {
	out := map[string]endToEnd{}
	for _, w := range ledger.Workloads {
		vals := map[string][]float64{}
		e := endToEnd{Metrics: map[string]summary{}}
		for i := 0; i < n; i++ {
			res, err := env.Measure(w.Name, seconds)
			if err != nil {
				return nil, err
			}
			e.Attempted += res.Attempted
			e.Failed += res.Failed
			for k, v := range res.Metrics {
				vals[k] = append(vals[k], v)
			}
		}
		e.FailShare = float64(e.Failed) / float64(e.Attempted)
		for _, m := range ledgerMetrics {
			if vs := vals[m.Name]; len(vs) > 0 {
				e.Metrics[m.Name] = summary{ledger.Median(vs), ledger.Min(vs), ledger.Max(vs), m.Unit}
			}
		}
		out[w.Name] = e
	}
	return out, nil
}

func printEndToEnd(res map[string]endToEnd) (failed int) {
	fmt.Printf("\n%-18s %-16s %12s %-5s %26s %6s\n", "workload", "metric", "median", "unit", "[min .. max]", "bound")
	for _, w := range ledger.Workloads {
		e := res[w.Name]
		for _, m := range ledgerMetrics {
			s, ok := e.Metrics[m.Name]
			if !ok {
				continue
			}
			bound := "-"
			if m.Bound != nil {
				bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
			}
			fmt.Printf("%-18s %-16s %12.4f %-5s [%11.4f .. %11.4f] %6s\n", w.Name, m.Name, s.Median, s.Unit, s.Min, s.Max, bound)
		}
		fmt.Printf("%-18s %-16s %12.4f %-5s (%d failed of %d attempted)\n", w.Name, "fail_share", e.FailShare, "share", e.Failed, e.Attempted)
		failed += e.Failed
	}
	return failed
}

// fullLedger runs everything and writes bench/out/results.json and
// bench/out/trace.json.
func fullLedger(env *ledger.Env, seconds float64) error {
	facts, head := hostFacts(), commit(env.Root)
	fmt.Printf("pfibench: seed %d, %.0f s per pass, %d cpus, GOMAXPROCS %d, %s, commit %s\n",
		env.Seed, seconds, facts.NProc, facts.GOMAXPROCS, facts.GoVersion, head)
	setup, err := env.SetupMedian(ledger.SetupRepeats)
	if err != nil {
		return err
	}
	fmt.Printf("setup_s %.4f s (median of %d set-ups: go build of the CLIs, scenario generation, blessing, shipped suite x4 profiles)\n",
		setup, ledger.SetupRepeats)

	e2e, err := untraced(env, seconds, passes)
	if err != nil {
		return err
	}
	failed := printEndToEnd(e2e)

	env.Trace = ledger.NewTracer()
	layers := map[string]map[string]float64{}
	for _, w := range ledger.Workloads {
		if layers[w.Name], err = env.Traced(w.Name, seconds); err != nil {
			return err
		}
	}
	fmt.Printf("\nper-layer shares of CPU samples (traced pass)\n%-24s", "metric")
	for _, w := range ledger.Workloads {
		fmt.Printf(" %18s", w.Name)
	}
	fmt.Println()
	for _, m := range ledger.PerLayer {
		if _, ok := layers[ledger.FuzzMixed][m.Name]; !ok {
			continue
		}
		fmt.Printf("%-24s", m.Name)
		for _, w := range ledger.Workloads {
			fmt.Printf(" %12.4f %-5s", layers[w.Name][m.Name], m.Unit)
		}
		fmt.Println()
	}

	probes, calls, perr := env.Probes()
	fmt.Printf("\nprobes (%d calls)\n", calls)
	for _, m := range ledger.PerLayer {
		if v, ok := probes[m.Name]; ok {
			fmt.Printf("%-34s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	if err := env.Trace.Write(filepath.Join(env.Out, "trace.json")); err != nil {
		return err
	}
	if perr != nil {
		return perr
	}

	results := struct {
		Host     host                          `json:"host"`
		Commit   string                        `json:"commit"`
		Seed     int64                         `json:"seed"`
		Seconds  float64                       `json:"seconds_per_pass"`
		Passes   int                           `json:"passes"`
		SetupS   float64                       `json:"setup_s"`
		EndToEnd map[string]endToEnd           `json:"end_to_end"`
		PerLayer map[string]map[string]float64 `json:"per_layer_by_workload"`
		Probes   map[string]float64            `json:"probes"`
	}{facts, head, env.Seed, seconds, passes, setup, e2e, layers, probes}
	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(env.Out, "results.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s and %s\n", path, filepath.Join(env.Out, "trace.json"))
	if failed > 0 {
		return fmt.Errorf("%d units failed their output check", failed)
	}
	return nil
}

// selfCheck runs the untraced pass twice on one build. Both sides are the
// same code, so a difference beyond a bound means the host's noise is wider
// than that bound: the pair is unresolved, and the exit status says so.
func selfCheck(env *ledger.Env, seconds float64) error {
	type side struct {
		setup float64
		e2e   map[string]endToEnd
	}
	var sides [2]side
	for i := range sides {
		var err error
		if sides[i].setup, err = env.SetupMedian(ledger.SetupRepeats); err != nil {
			return err
		}
		if sides[i].e2e, err = untraced(env, seconds, passes); err != nil {
			return err
		}
	}
	fmt.Printf("%-18s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "first", "second", "diff", "bound", "verdict")
	unresolved, failed := 0, 0
	row := func(w string, m ledger.Metric, a, b float64) {
		worse := (b - a) / a
		if m.Better == "higher" {
			worse = (a - b) / a
		}
		verdict := "PASS"
		if worse > *m.Bound {
			verdict = "UNRESOLVED"
			unresolved++
		}
		fmt.Printf("%-18s %-16s %12.4f %12.4f %+7.1f%% %5.0f%%  %s\n", w, m.Name, a, b, (b-a)/a*100, *m.Bound*100, verdict)
	}
	for _, m := range ledger.EndToEnd {
		if m.Name == "setup_s" {
			row("(every workload)", m, sides[0].setup, sides[1].setup)
			continue
		}
		for _, w := range ledger.Workloads {
			row(w.Name, m, sides[0].e2e[w.Name].Metrics[m.Name].Median, sides[1].e2e[w.Name].Metrics[m.Name].Median)
		}
	}
	for _, w := range ledger.Workloads {
		failed += sides[0].e2e[w.Name].Failed + sides[1].e2e[w.Name].Failed
	}
	if failed > 0 {
		return fmt.Errorf("%d units failed their output check", failed)
	}
	if unresolved > 0 {
		return fmt.Errorf("%d metric(s) differ between two runs of the same build by more than their bound", unresolved)
	}
	return nil
}

// quickRun is the smoke run for CI: one set-up, 3 s per workload.
func quickRun(env *ledger.Env) error {
	d, err := env.Setup()
	if err != nil {
		return err
	}
	fmt.Printf("setup_s %.4f s (one set-up)\n", d.Seconds())
	e2e, err := untraced(env, 3, 1)
	if err != nil {
		return err
	}
	if failed := printEndToEnd(e2e); failed > 0 {
		return fmt.Errorf("%d units failed their output check", failed)
	}
	return nil
}

// commit names the checkout's commit, or "unknown" outside a git work tree.
func commit(root string) string {
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
