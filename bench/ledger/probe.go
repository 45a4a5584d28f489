package ledger

import (
	"fmt"
	"runtime"
	"time"
)

// prober collects per-layer probe results. A probe times calls into one
// public function of a layer, on inputs drawn from the workload whose time
// that layer should explain, inside a span of its own. Probes bind only to
// entry points the roadmap does not plan to reshape (see README.md).
type prober struct {
	e      *Env
	out    map[string]float64
	parent int    // span of the probe group
	group  string // span unit id
	calls  int    // probe calls made
	err    error  // first failure
}

// fail records the first error; later probes still run so one broken layer
// does not hide the rest, but the pass reports the failure.
func (p *prober) fail(name string, err error) {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
	}
}

// span runs fn inside a span named after the metric it feeds.
func (p *prober) span(name string, fn func() error) {
	_, end := p.e.Trace.Start(name, p.group, p.parent)
	p.fail(name, fn())
	end()
}

// probeLoop is how long a timed loop runs.
const probeLoop = 150 * time.Millisecond

// op is the cost of one call.
type op struct {
	ns     float64
	allocs float64
	bytes  float64
}

// timed measures run, which reports how many calls it made, and returns
// the mean cost per call.
func (p *prober) timed(run func() (calls int)) op {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := float64(run())
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	p.calls += int(n)
	return op{
		ns:     float64(elapsed.Nanoseconds()) / n,
		allocs: float64(after.Mallocs-before.Mallocs) / n,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / n,
	}
}

// loop calls fn in batches for probeLoop and returns the mean cost per
// call. fn must do the same work every call.
func (p *prober) loop(batch int, fn func()) op {
	fn() // warm caches and lazy set-up before timing
	return p.timed(func() (n int) {
		for start := time.Now(); time.Since(start) < probeLoop; n += batch {
			for i := 0; i < batch; i++ {
				fn()
			}
		}
		return n
	})
}

// once measures a single call of fn.
func (p *prober) once(fn func()) op {
	return p.timed(func() int { fn(); return 1 })
}

// ns, us and ms record a timed metric in its unit.
func (p *prober) ns(name string, o op) { p.out[name] = o.ns }
func (p *prober) us(name string, o op) { p.out[name] = o.ns / 1e3 }
func (p *prober) ms(name string, o op) { p.out[name] = o.ns / 1e6 }

// PerLayer is the traced pass of one workload plus every probe. It returns
// the metrics by name and how many probe calls it made.
func (e *Env) PerLayer(workload string, seconds float64) (map[string]float64, int, error) {
	out, err := e.Traced(workload, seconds)
	if err != nil {
		return nil, 0, err
	}
	probes, calls, err := e.Probes()
	if err != nil {
		return nil, 0, err
	}
	for k, v := range probes {
		out[k] = v
	}
	return out, calls, nil
}

// Probes runs every probe group once.
func (e *Env) Probes() (map[string]float64, int, error) {
	p := &prober{e: e, out: map[string]float64{}}
	for _, g := range []struct {
		name string
		run  func(*prober)
	}{
		{FuzzMixed, (*prober).fuzzProbes},
		{CampaignRaft, (*prober).raftProbes},
		{ConformanceDense, (*prober).conformanceProbes},
		{ProxyPingpong, (*prober).proxyProbes},
	} {
		id, end := e.Trace.Start("probes "+g.name, "probe/"+g.name, 0)
		p.parent, p.group = id, "probe/"+g.name
		g.run(p)
		end()
	}
	return p.out, p.calls, p.err
}
