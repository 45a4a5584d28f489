package ledger

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRx = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRx = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpecMeetsContract checks the tables against the limits the benchmark
// driver enforces before it makes a single run.
func TestSpecMeetsContract(t *testing.T) {
	s := Benchmark()
	seen := map[string]bool{}
	name := func(kind, n string) {
		t.Helper()
		if !nameRx.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRx)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(s.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range s.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(s.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(s.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range s.EndToEnd {
		name("metric", m.Name)
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s needs a bound in (0, 0.25]", m.Name)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range s.PerLayer {
		name("metric", m.Name)
		if m.Bound != nil {
			t.Errorf("per-layer metric %s has a bound", m.Name)
		}
	}
	for _, m := range append(append([]Metric(nil), s.EndToEnd...), s.PerLayer...) {
		if !unitRx.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.Name, m.Unit, unitRx)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	if runs := 4 + 22*len(s.Workloads); float64(runs)*(float64(s.RunSeconds)+4*SetupRepeats+2) > 3420-2*120 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's 3420 s", runs, s.RunSeconds)
	}
}

// TestBenchmarkJSONRoundTrip keeps the checked-in BENCHMARK.json and the
// tables it was written from (pfibench -pin) the same.
func TestBenchmarkJSONRoundTrip(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var got Spec
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	want, err := MarshalSpec(Benchmark())
	if err != nil {
		t.Fatal(err)
	}
	again, err := MarshalSpec(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, want) || !bytes.Equal(data, want) {
		t.Error("BENCHMARK.json differs from ledger.Benchmark(); run `bash bench/run.sh -pin` on the baseline commit")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
}

func TestGeneratorsAreDeterministicPerSeed(t *testing.T) {
	a, b, c := DenseScenarios(7, DenseCount), DenseScenarios(7, DenseCount), DenseScenarios(8, DenseCount)
	same := 0
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("scenario %d differs between two generations of seed 7", i)
		}
		if a[i].Source == c[i].Source {
			same++
		}
		if !strings.Contains(a[i].Source, "world tcp "+vendors[i%len(vendors)]) {
			t.Errorf("scenario %d does not run under vendor %s", i, vendors[i%len(vendors)])
		}
	}
	if same > 0 {
		t.Errorf("%d of %d scenarios are the same for seeds 7 and 8", same, len(a))
	}
	if !bytes.Equal(Payload(7, 64), Payload(7, 64)) || bytes.Equal(Payload(7, 64), Payload(8, 64)) {
		t.Error("payload must repeat per seed and differ across seeds")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	vs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	if got := Median(vs); got != 5.5 {
		t.Errorf("median %v, want 5.5", got)
	}
	if got := Median(vs[:9]); got != 5 {
		t.Errorf("odd median %v, want 5", got)
	}
	for p, want := range map[float64]float64{50: 5, 99: 10, 90: 9, 10: 1, 0: 1, 100: 10} {
		if got := Percentile(vs, p); got != want {
			t.Errorf("p%v = %v, want %v", p, got, want)
		}
	}
	if Min(vs) != 1 || Max(vs) != 10 {
		t.Errorf("min %v max %v, want 1 10", Min(vs), Max(vs))
	}
	if !math.IsNaN(Median(nil)) || !math.IsNaN(Percentile(nil, 50)) {
		t.Error("no values must give NaN")
	}
}

const cannedTop = `File: pfifuzz
Type: cpu
Duration: 2.85s, Total samples = 40
Showing nodes accounting for 40, 100% of 40 total
      flat  flat%   sum%        cum   cum%
        10 25.00% 25.00%         10 25.00%  runtime.mallocgcSmallScanNoHeader
         6 15.00% 40.00%          9 22.50%  pfi/internal/script.(*Interp).runVM
         5 12.50% 52.50%          5 12.50%  runtime.mapassign_faststr
         4 10.00% 62.50%          4 10.00%  pfi/internal/gmp.(*timerTable).unsetExact
         4 10.00% 72.50%         30 75.00%  pfi/internal/simtime.(*Scheduler).Step
         3  7.50% 80.00%          3  7.50%  container/heap.down
         3  7.50% 87.50%          3  7.50%  internal/runtime/maps.(*Map).getWithoutKeySmallFastStr
         2  5.00% 92.50%          2  5.00%  pfi/internal/harden.(*Monitor).step
         2  5.00% 97.50%          2  5.00%  runtime.futex
         1  2.50%   100%          1  2.50%  pfi/internal/message.(*Message).SetAttr
`

func TestFoldTop(t *testing.T) {
	got, err := FoldTop(cannedTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"runtime_alloc_gc": 10, "script": 6, "runtime_map": 8, "proto": 4,
		"simtime": 7, "other": 4, "message": 1,
	}
	sum := 0.0
	for _, l := range ShareLayers {
		if math.Abs(got[l]-want[l]/40) > 1e-12 {
			t.Errorf("share.%s = %v, want %v", l, got[l], want[l]/40)
		}
		sum += got[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	if _, err := FoldTop("no rows here"); err == nil {
		t.Error("empty pprof output must be an error")
	}
}

func TestTracerKeepsParents(t *testing.T) {
	var none *Tracer
	id, end := none.Start("x", "u", 0)
	end()
	if id != 0 || none.Spans() != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr := NewTracer()
	parent, endParent := tr.Start("pass", "w/0", 0)
	child, endChild := tr.Start("pfifuzz", "w/0", parent)
	endChild()
	endParent()
	spans := tr.Spans()
	if len(spans) != 2 || spans[child-1].Parent != parent || spans[parent-1].Parent != 0 {
		t.Fatalf("spans %+v", spans)
	}
	for _, s := range spans {
		if s.EndNS < s.StartNS || s.Unit != "w/0" {
			t.Errorf("span %+v", s)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.Write(path); err != nil {
		t.Fatal(err)
	}
	var back struct{ Spans []Span }
	data, _ := os.ReadFile(path)
	if err := json.Unmarshal(data, &back); err != nil || len(back.Spans) != 2 {
		t.Errorf("trace.json did not round-trip: %v %+v", err, back)
	}
}

func TestFaultloadBody(t *testing.T) {
	src := "world tcp\nfaultload vendor send {\n if {1} { xDrop cur_msg }\n}\ntcp_dial\n"
	if got, want := faultloadBody(src), "\n if {1} { xDrop cur_msg }\n"; got != want {
		t.Errorf("body %q, want %q", got, want)
	}
	if got := faultloadBody("world gmp a b c\ngmp_start\n"); got != "" {
		t.Errorf("body %q from a scenario without faultloads", got)
	}
}
