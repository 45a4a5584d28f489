package campaign_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/harden"
	"pfi/internal/message"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

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

// sweepScenario is a deterministic single-node simulation: one PFI layer,
// a fixed message load in both directions, and a note summarizing exactly
// what traffic survived the fault. Being a pure function of the case, it
// must produce identical verdicts at any worker count.
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

var sweepSpec = campaign.Spec{
	Protocol: "typed",
	Types:    []string{"DATA", "ACK", "PING"},
}

// TestRunParallelDeterminism proves the determinism contract: 1, 4, and 8
// workers yield identical verdict slices (order, OK, Note) for the same
// spec and scenario.
func TestRunParallelDeterminism(t *testing.T) {
	serial, _, err := campaign.Run(sweepSpec, sweepScenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != 3*6*2 {
		t.Fatalf("got %d verdicts, want 36", len(serial))
	}
	for _, workers := range []int{1, 4, 8} {
		vs, stats, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(vs) != len(serial) {
			t.Fatalf("workers=%d: got %d verdicts, want %d", workers, len(vs), len(serial))
		}
		if stats.Cases != len(serial) {
			t.Errorf("workers=%d: stats.Cases = %d, want %d", workers, stats.Cases, len(serial))
		}
		for i := range vs {
			if vs[i].Case.Name != serial[i].Case.Name {
				t.Fatalf("workers=%d: verdict %d is %q, serial has %q (order broken)",
					workers, i, vs[i].Case.Name, serial[i].Case.Name)
			}
			if vs[i].OK != serial[i].OK || vs[i].Note != serial[i].Note {
				t.Errorf("workers=%d: case %q: got (%v,%q), serial (%v,%q)",
					workers, vs[i].Case.Name, vs[i].OK, vs[i].Note, serial[i].OK, serial[i].Note)
			}
		}
	}
}

// TestRunStats checks the sweep statistics and the Summary footer.
func TestRunStats(t *testing.T) {
	vs, stats, err := campaign.Run(sweepSpec, sweepScenario)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cases != len(vs) {
		t.Errorf("stats.Cases = %d, want %d", stats.Cases, len(vs))
	}
	if stats.Passed+stats.Failed+stats.Errored != stats.Cases {
		t.Errorf("stats don't add up: %+v", stats)
	}
	if stats.Workers != 1 {
		t.Errorf("stats.Workers = %d, want 1", stats.Workers)
	}
	if stats.Elapsed <= 0 {
		t.Errorf("stats.Elapsed = %v, want > 0", stats.Elapsed)
	}
	if stats.CasesPerSecond <= 0 {
		t.Errorf("stats.CasesPerSecond = %v, want > 0", stats.CasesPerSecond)
	}
	sum := campaign.Summary(vs, stats)
	if want := fmt.Sprintf("swept %d cases", stats.Cases); !strings.Contains(sum, want) {
		t.Errorf("Summary missing stats footer %q:\n%s", want, sum)
	}
}

// TestRunParallelOnVerdict checks the progress hook fires once per case and
// is never invoked concurrently.
func TestRunParallelOnVerdict(t *testing.T) {
	var mu sync.Mutex
	inHook := false
	seen := map[string]int{}
	vs, _, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{
		Workers: 4,
		OnVerdict: func(v campaign.Verdict) {
			mu.Lock()
			if inHook {
				t.Error("OnVerdict invoked concurrently")
			}
			inHook = true
			seen[v.Case.Name]++
			inHook = false
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(vs) {
		t.Errorf("OnVerdict saw %d cases, want %d", len(seen), len(vs))
	}
	for name, n := range seen {
		if n != 1 {
			t.Errorf("case %q observed %d times", name, n)
		}
	}
}

// TestRunParallelCancellation checks a canceled context stops the sweep
// early and returns only completed verdicts plus the context error.
func TestRunParallelCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	n := 0
	vs, stats, err := campaign.RunParallel(sweepSpec, sweepScenario, campaign.Options{
		Workers: 2,
		Context: ctx,
		OnVerdict: func(campaign.Verdict) {
			n++
			if n == 5 {
				cancel()
			}
		},
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(vs) >= 36 {
		t.Errorf("sweep ran to completion (%d verdicts) despite cancellation", len(vs))
	}
	if len(vs) < 5 {
		t.Errorf("got %d verdicts, want at least the 5 completed before cancel", len(vs))
	}
	if stats.Cases != len(vs) {
		t.Errorf("stats.Cases = %d, want %d", stats.Cases, len(vs))
	}
	// Completed verdicts must still be in generation order.
	all, err2 := campaign.Generate(sweepSpec)
	if err2 != nil {
		t.Fatal(err2)
	}
	pos := map[string]int{}
	for i, c := range all {
		pos[c.Name] = i
	}
	last := -1
	for _, v := range vs {
		if pos[v.Case.Name] <= last {
			t.Errorf("verdicts out of generation order at %q", v.Case.Name)
		}
		last = pos[v.Case.Name]
	}
}
