package ledger

import (
	"fmt"
	"path/filepath"
	"time"
)

// SetupRepeats is how often a run sets up; it reports the median.
const SetupRepeats = 3

// Result is what one pass over one workload measured.
type Result struct {
	Attempted int
	Failed    int
	Metrics   map[string]float64
}

// SetupMedian sets up n times and returns the median time in seconds. The
// last set-up is the one the workloads then use.
func (e *Env) SetupMedian(n int) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		d, err := e.Setup()
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
	}
	return Median(secs), nil
}

// rates are the per-round numbers the end-to-end metrics are taken from.
type rates struct {
	perS, cpuPerK, rssMB []float64
	latUS                []float64
	attempted, failed    int
}

func (x *rates) add(r Round) {
	x.perS = append(x.perS, float64(r.Units)/r.Wall.Seconds())
	x.cpuPerK = append(x.cpuPerK, r.CPU.Seconds()/float64(r.Units)*1000)
	x.rssMB = append(x.rssMB, float64(r.RSSKB)/1024)
	x.latUS = append(x.latUS, r.LatUS...)
	x.attempted += r.Units
	x.failed += r.Failed
}

// Measure is the untraced pass: identical rounds of the workload, one
// child at a time, until seconds have passed. Throughput and CPU cost are
// those of the fastest round, memory the median over the rounds: every
// round does the same work, and what varies between them on a shared host
// is interference, which only ever slows a round down (README.md has the
// measurements behind this choice).
func (e *Env) Measure(workload string, seconds float64) (Result, error) {
	var x rates
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		r, err := e.RunRound(workload, roundOpts{unit: fmt.Sprintf("%s/%d", workload, n)})
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", workload, err)
		}
		x.add(r)
	}
	res := Result{Attempted: x.attempted, Failed: x.failed,
		Metrics: map[string]float64{
			"units_per_s":     Max(x.perS),
			"cpu_s_per_kunit": Min(x.cpuPerK),
			"peak_rss_mb":     Median(x.rssMB),
		}}
	if len(x.latUS) > 0 {
		res.Metrics["rtt_p50_us"] = Percentile(x.latUS, 50)
		res.Metrics["rtt_p99_us"] = Percentile(x.latUS, 99)
	}
	return res, nil
}

// profiled reports whether the workload's CLI takes -cpuprofile.
func profiled(workload string) bool { return workload != ProxyPingpong }

// Traced is the traced pass over one workload: plain and profiled rounds
// alternate for seconds, every child inside a span. It returns the share.*
// table folded from the profiles and bench.trace_overhead, the profiled
// over the plain units_per_s. pfiproxy takes no -cpuprofile: its rounds
// are traced by their spans alone and all its CPU is share.other.
func (e *Env) Traced(workload string, seconds float64) (map[string]float64, error) {
	pass, endPass := e.Trace.Start("traced "+workload, workload, 0)
	defer endPass()
	var plain, traced rates
	var profiles []string
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < 2 || time.Now().Before(deadline); n++ {
		o := roundOpts{parent: pass, unit: fmt.Sprintf("%s/%d", workload, n)}
		into := &plain
		if n%2 == 1 {
			into = &traced
			if profiled(workload) {
				o.cpuProfile = filepath.Join(e.work, fmt.Sprintf("cpu_%d.prof", n))
				profiles = append(profiles, o.cpuProfile)
			}
		}
		r, err := e.RunRound(workload, o)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		if r.Failed > 0 {
			return nil, fmt.Errorf("%s: %d of %d units failed their output check on the traced pass", workload, r.Failed, r.Units)
		}
		into.add(r)
	}
	out := map[string]float64{"bench.trace_overhead": Max(traced.perS) / Max(plain.perS)}
	shares := map[string]float64{"other": 1}
	if len(profiles) > 0 {
		var err error
		if shares, err = e.foldProfiles(e.bin(cliOf[workload]), profiles); err != nil {
			return nil, err
		}
	}
	for _, l := range ShareLayers {
		out["share."+l] = shares[l]
	}
	return out, nil
}

var cliOf = map[string]string{
	FuzzMixed: "pfifuzz", CampaignRaft: "pficampaign", ConformanceDense: "pfitest", ProxyPingpong: "pfiproxy",
}
