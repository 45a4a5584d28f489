package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/explore"
	"pfi/internal/harden"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// envTestWorker re-executes this test binary as a fleet worker: TestMain
// sees the variable before any test runs and becomes a stdio worker
// instead. The determinism battery thereby runs real separate processes
// — the same binary, the same registered scenario — exactly like a
// production -spawn-workers fleet.
const envTestWorker = "PFI_FLEET_TEST_WORKER"

func TestMain(m *testing.M) {
	RegisterScenario("sweep", sweepScenario)
	if os.Getenv(envTestWorker) == "1" {
		if err := ServeStdio("test-worker"); err != nil {
			fmt.Fprintln(os.Stderr, "fleet test worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// typedStub recognizes a message's payload string as its type, so sweep
// scenarios can steer generated scripts without a real protocol.
type typedStub struct{}

func (typedStub) Protocol() string { return "typed" }
func (typedStub) Recognize(m *message.Message) (core.Info, error) {
	return core.Info{Type: string(m.Bytes())}, nil
}
func (typedStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return message.New([]byte(typ)), nil
}

// sweepScenario is a deterministic single-node simulation: one PFI
// layer, a fixed message load in both directions, and a note summarizing
// exactly what traffic survived the fault. Being a pure function of the
// case, it must produce identical verdicts in any process on any
// machine — the property the fleet battery leans on.
func sweepScenario(m *harden.Monitor, c campaign.Case) (bool, string, error) {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "n1"}
	l := core.NewLayer(env, core.WithStub(typedStub{}))
	m.Attach(env.Sched, nil, func() int { return l.SendFilter().Stats().Injected + l.ReceiveFilter().Stats().Injected })
	stk := stack.New(env, l)
	var sent, delivered int
	stk.OnTransmit(func(m *message.Message) error { sent++; return nil })
	stk.OnDeliver(func(m *message.Message) error { delivered++; return nil })
	if err := c.Apply(l); err != nil {
		return false, "", err
	}
	types := []string{"DATA", "ACK", "PING"}
	for i := 0; i < 60; i++ {
		typ := types[i%len(types)]
		if err := stk.Send(message.New([]byte(typ))); err != nil {
			return false, "", err
		}
		if err := stk.Deliver(message.New([]byte(typ))); err != nil {
			return false, "", err
		}
	}
	env.Sched.RunFor(simtime.Duration(10 * time.Second)) // flush delayed forwards
	return sent+delivered > 0, fmt.Sprintf("sent=%d delivered=%d", sent, delivered), nil
}

// sweepSpec generates a 36-cell matrix (3 types x 6 faults x 2
// directions) of the typed protocol.
var sweepSpec = campaign.Spec{
	Protocol: "typed",
	Types:    []string{"DATA", "ACK", "PING"},
}

// spawnSelf forks n copies of this test binary as stdio fleet workers.
func spawnSelf(t *testing.T, c *Coordinator, n int, extraEnv ...string) *Pool {
	t.Helper()
	pool, err := c.SpawnWorkers(n, []string{os.Args[0]}, func(i int) []string {
		return append([]string{envTestWorker + "=1"}, extraEnv...)
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool
}

// serialSweep is the single-process baseline every fleet run must match.
func serialSweep(t *testing.T) []campaign.Verdict {
	t.Helper()
	vs, _, err := campaign.Run(sweepSpec, sweepScenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 36 {
		t.Fatalf("serial sweep has %d verdicts, want 36", len(vs))
	}
	return vs
}

// TestFleetMatchesRunParallel is the determinism battery's campaign leg:
// at 1, 2, and 4 spawned worker processes the merged verdict stream is
// byte-identical (CanonVerdicts) to the single-process sweep, with no
// losses and every unit merged exactly once.
func TestFleetMatchesRunParallel(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			c := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 9})
			pool := spawnSelf(t, c, workers)
			vs, stats, err := c.RunCampaign(campaign.Options{})
			c.Close()
			pool.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got := CanonVerdicts(vs); got != want {
				t.Errorf("fleet sweep differs from single-process sweep:\nfleet:\n%s\nserial:\n%s", got, want)
			}
			if stats.Cases != 36 || stats.Passed+stats.Failed+stats.Errored != 36 {
				t.Errorf("stats don't add up: %+v", stats)
			}
			s := c.Stats()
			if s.Units != 9 || s.UnitsDone != 9 || s.Reassigned != 0 || s.Contained != 0 || s.Stale != 0 || s.BadFrames != 0 {
				t.Errorf("control-plane stats = %+v, want 9 clean units", s)
			}
			if s.WorkersSeen != workers {
				t.Errorf("WorkersSeen = %d, want %d", s.WorkersSeen, workers)
			}
		})
	}
}

// emittedFiles reads every file under dir keyed by relative path — the
// byte-identical comparison for fuzz repro emission.
func emittedFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = string(data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func fuzzOpts(outDir string) explore.Options {
	budget, batch := 120, 16
	if raceDetectorEnabled {
		budget, batch = 32, 8
	}
	return explore.Options{Seed: 3, Budget: budget, BatchSize: batch, OutDir: outDir, Snapshot: true}
}

// TestFleetFuzzMatchesSingleProcess is the determinism battery's fuzz
// leg: at 1, 2, and 4 spawned worker processes the exploration report —
// fingerprint, corpus, coverage, findings — and every emitted repro byte
// are identical to single-process explore.Fuzz with the same seed
// (which is itself snapshot- and worker-invariant).
func TestFleetFuzzMatchesSingleProcess(t *testing.T) {
	wantDir := t.TempDir()
	want, err := explore.Fuzz(fuzzOpts(wantDir))
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := emittedFiles(t, wantDir)
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			dir := t.TempDir()
			c := NewFuzz("", WireHarden{}, Config{Shards: 4})
			pool := spawnSelf(t, c, workers)
			got, err := c.RunFuzz(fuzzOpts(dir))
			c.Close()
			pool.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint != want.Fingerprint {
				t.Errorf("fingerprint %s, want %s", got.Fingerprint, want.Fingerprint)
			}
			if got.Runs != want.Runs || got.Generations != want.Generations ||
				got.CorpusSize != want.CorpusSize || got.CoverageBits != want.CoverageBits {
				t.Errorf("report drifted: got runs=%d gens=%d corpus=%d bits=%d, want runs=%d gens=%d corpus=%d bits=%d",
					got.Runs, got.Generations, got.CorpusSize, got.CoverageBits,
					want.Runs, want.Generations, want.CorpusSize, want.CoverageBits)
			}
			if len(got.Findings) != len(want.Findings) {
				t.Fatalf("got %d findings, want %d", len(got.Findings), len(want.Findings))
			}
			for i := range got.Findings {
				g, w := got.Findings[i].Violation, want.Findings[i].Violation
				if g != w {
					t.Errorf("finding %d: %+v, want %+v", i, g, w)
				}
			}
			gotFiles := emittedFiles(t, dir)
			if len(gotFiles) != len(wantFiles) {
				t.Fatalf("emitted %d files, want %d", len(gotFiles), len(wantFiles))
			}
			for rel, data := range wantFiles {
				if gotFiles[rel] != data {
					t.Errorf("emitted %s differs from single-process bytes", rel)
				}
			}
			if s := c.Stats(); s.Reassigned != 0 || s.Contained != 0 || s.BadFrames != 0 {
				t.Errorf("control-plane stats = %+v, want clean", s)
			}
		})
	}
}

// waitStats polls the coordinator until cond holds or the deadline hits.
func waitStats(t *testing.T, c *Coordinator, what string, cond func(Stats) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond(c.Stats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; stats = %+v", what, c.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestFleetSurvivesWorkerKill kill -9s a worker that is holding a lease:
// the unit it died with is reassigned exactly once to a healthy worker
// and the merged sweep is byte-identical to a clean run.
func TestFleetSurvivesWorkerKill(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 12, LeaseWait: 50 * time.Millisecond})
	out := startCampaign(c, campaign.Options{})
	victim := spawnSelf(t, c, 1, EnvDieOnLease+"=1")
	// The victim joins, leases its first unit, and SIGKILLs itself; the
	// coordinator sees a dead connection with a lease outstanding.
	waitStats(t, c, "victim loss", func(s Stats) bool { return s.WorkersLost >= 1 })
	healthy := spawnSelf(t, c, 1)
	got := awaitCampaign(t, out)
	c.Close()
	healthy.Wait()
	victim.Wait() // SIGKILLed: exits non-zero, which is the point
	if CanonVerdicts(got.vs) != want {
		t.Errorf("sweep after worker kill differs from clean run")
	}
	s := c.Stats()
	if s.WorkersLost != 1 || s.Reassigned != 1 || s.Contained != 0 {
		t.Errorf("stats = %+v, want WorkersLost=1 Reassigned=1 Contained=0", s)
	}
	if s.UnitsDone != 12 {
		t.Errorf("UnitsDone = %d, want 12", s.UnitsDone)
	}
}

// TestFleetSurvivesWorkerStall stalls a worker past the unit timeout
// while it holds a lease: the lease reaper reassigns the unit (exactly
// once, as a Timeout loss) and the merged sweep is byte-identical to a
// clean run. The stalled process stays alive the whole time — silence,
// not death, is what is being recovered from.
func TestFleetSurvivesWorkerStall(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	unitTimeout := 500 * time.Millisecond
	if raceDetectorEnabled {
		unitTimeout = 2 * time.Second
	}
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 6, UnitTimeout: unitTimeout, LeaseWait: 20 * time.Millisecond})
	out := startCampaign(c, campaign.Options{})
	stalled := spawnSelf(t, c, 1, EnvStallOnLease+"=1")
	// The stalled worker leases a unit and goes silent; only the reaper
	// can take it back.
	waitStats(t, c, "lease reap", func(s Stats) bool { return s.Reassigned >= 1 })
	healthy := spawnSelf(t, c, 1)
	got := awaitCampaign(t, out)
	c.Close()
	healthy.Wait()
	stalled.Kill()
	for _, p := range stalled.Procs {
		_ = p.Wait()
	}
	if CanonVerdicts(got.vs) != want {
		t.Errorf("sweep after worker stall differs from clean run")
	}
	s := c.Stats()
	if s.Reassigned != 1 || s.Contained != 0 {
		t.Errorf("stats = %+v, want Reassigned=1 Contained=0", s)
	}
}

// TestFleetHTTPTransport runs a campaign over the HTTP control plane —
// the same handler core behind POSTed frames instead of stdio — and
// probes the long-running server's /status and /metrics endpoints. A
// version-skewed frame POSTed to the RPC endpoint is rejected on the
// wire.
func TestFleetHTTPTransport(t *testing.T) {
	want := CanonVerdicts(serialSweep(t))
	c := NewCampaign(sweepSpec, "sweep", WireHarden{}, Config{Shards: 5, LeaseWait: 20 * time.Millisecond})
	srv, err := c.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr
	out := startCampaign(c, campaign.Options{})
	var wg sync.WaitGroup
	workerErrs := make([]error, 2)
	for i := range workerErrs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			workerErrs[i] = RunWorker(DialHTTP(base), fmt.Sprintf("http-worker-%d", i))
		}(i)
	}
	got := awaitCampaign(t, out)
	if CanonVerdicts(got.vs) != want {
		t.Errorf("HTTP-transport sweep differs from clean run")
	}

	// Long-running server surface: /status and /metrics keep answering
	// after the round completes.
	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status Status
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if status.Job != JobCampaign || status.Version != ProtocolVersion {
		t.Errorf("/status = %+v, want campaign job at v%d", status, ProtocolVersion)
	}
	if status.Stats.UnitsDone != 5 || status.Stats.WorkersSeen != 2 {
		t.Errorf("/status stats = %+v, want UnitsDone=5 WorkersSeen=2", status.Stats)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics["fleet_units_done"] != 5 || metrics["fleet_bad_frames"] != 0 {
		t.Errorf("/metrics = %v, want fleet_units_done=5 fleet_bad_frames=0", metrics)
	}

	// Version skew over the wire: the RPC endpoint answers with an error
	// envelope, never a unit.
	skew := DialHTTP(base).(*httpConn)
	reply, err := skew.RoundTrip(Envelope{V: ProtocolVersion + 1, Type: MsgHello, Worker: "from-the-future"})
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != MsgError {
		t.Errorf("skewed frame got %q reply, want error", reply.Type)
	}

	c.Close()
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
}
