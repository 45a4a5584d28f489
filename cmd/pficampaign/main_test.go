package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pfi/internal/campaign"
	"pfi/internal/conformance"
	"pfi/internal/core"
	"pfi/internal/fault"
	"pfi/internal/harden"
)

func TestParseFaults(t *testing.T) {
	kinds, err := parseFaults("drop, delay,reorder")
	if err != nil {
		t.Fatal(err)
	}
	want := []fault.Kind{fault.Drop, fault.Delay, fault.Reorder}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("got %v, want %v", kinds, want)
	}
	_, err = parseFaults("drop,bogus")
	if want := `unknown fault "bogus" (known: drop, drop-first-n, delay, duplicate, corrupt, reorder)`; err == nil || err.Error() != want {
		t.Errorf("unknown fault: got %v, want %s", err, want)
	}
	if _, err := parseFaults(" , "); err == nil {
		t.Error("empty fault list accepted")
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" A ,B,,C ")
	if !reflect.DeepEqual(got, []string{"A", "B", "C"}) {
		t.Fatalf("got %v", got)
	}
}

// cell returns the registered cell name.
func cell(t *testing.T, name string) conformance.Cell {
	t.Helper()
	cells, err := campaignCells()
	if err != nil {
		t.Fatal(err)
	}
	c, ok := cells[name]
	if !ok {
		t.Fatalf("no cell %q", name)
	}
	return c
}

// TestSweepSmoke runs a one-case campaign end to end through the CLI's
// GMP cell, exercising the worker pool path.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full GMP cluster")
	}
	spec := campaign.Spec{
		Protocol: "gmp",
		Types:    []string{"HEARTBEAT"},
		Faults:   []fault.Kind{fault.Duplicate},
	}
	vs, stats, err := campaign.RunParallel(spec, cell(t, "gmp").Run, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cases != len(vs) || len(vs) != 2 {
		t.Fatalf("got %d verdicts, stats %+v", len(vs), stats)
	}
	for _, v := range vs {
		if v.Err != nil || !v.OK {
			t.Errorf("case %q: %s %s %v", v.Case.Name, v.Status(), v.Note, v.Err)
		}
	}
}

// TestCellIsItsRepro runs a GMP and a raft cell, and the .pfi repro each
// quarantines through the conformance harness, under every trace budget
// from one entry to the whole run: both must come out the same way at each,
// or a quarantined repro would not reproduce. The budget is checked before
// each simulated step, so the largest budget that trips is one short of
// what the world logged and the whole run's count passes.
func TestCellIsItsRepro(t *testing.T) {
	for _, tc := range []struct{ cell, typ string }{
		{"gmp", "HEARTBEAT"},
		{"raft-5-partition", "APPEND_ENTRIES"},
	} {
		t.Run(tc.cell, func(t *testing.T) {
			cl := cell(t, tc.cell)
			cases, err := campaign.Generate(campaign.Spec{Types: []string{tc.typ}, Faults: []fault.Kind{fault.Duplicate}, Directions: []core.Direction{core.Send}})
			if err != nil {
				t.Fatal(err)
			}
			c := cases[0]
			full := conformance.Run(conformance.New(c.Name, cl.Source(c)), conformance.Options{})
			if !full.OK() {
				t.Fatalf("unbudgeted repro failed: %v %v", full.Err, full.Failed())
			}
			outcomes := map[harden.Kind]int{}
			for budget := 1; budget <= len(full.Trace); budget++ {
				cfg := harden.Config{Budget: harden.Budget{TraceEntries: budget}}
				got := campaign.RunCase(c, cl.Run, cfg, cl.Source)
				repro := conformance.Run(conformance.New(c.Name, cl.Source(c)), conformance.Options{Harden: cfg})
				if got.Outcome != repro.Outcome {
					t.Errorf("budget %d of %d entries: cell %v, its repro %v (%v)", budget, len(full.Trace), got.Outcome, repro.Outcome, repro.Err)
				}
				outcomes[got.Outcome]++
			}
			if outcomes[harden.Pass] == 0 || outcomes[harden.BudgetExceeded] == 0 {
				t.Errorf("outcomes over the budgets %v: want some pass and some trip", outcomes)
			}
		})
	}
}

var update = flag.Bool("update", false, "re-bless the goldens under testdata/")

// TestDumpProgGolden pins -dump-prog's listing of every default GMP case:
// the compiled program each filter runs, byte for byte. A change to the
// script compiler that moves an instruction shows here.
func TestDumpProgGolden(t *testing.T) {
	kinds, err := parseFaults(faultsDefault)
	if err != nil {
		t.Fatal(err)
	}
	cases, err := campaign.Generate(campaign.Spec{Protocol: "gmp", Types: splitList(gmpTypesDefault), Faults: kinds})
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := dumpPrograms(&got, cases); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "dump-prog.golden", got.Bytes())
}

// TestGMPSweepGolden pins the verdict of every GMP cell the default types
// meet under all six faults (84 cells): status, case and note, as the
// -quiet summary prints them, without the timing line.
func TestGMPSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 84 GMP clusters")
	}
	spec := campaign.Spec{Protocol: "gmp", Types: splitList(gmpTypesDefault), Faults: fault.Kinds()}
	vs, _, err := campaign.RunParallel(spec, cell(t, "gmp").Run, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 84 {
		t.Fatalf("got %d verdicts, want 84", len(vs))
	}
	checkGolden(t, "gmp-sweep.golden", []byte(campaign.Summary(vs)))
}

// TestRaftSweepGolden pins the verdict of every raft cell `-raft 3,5,25`
// sweeps under all four churn models and the default faults (480 cells):
// one block per (size, churn) cell, as the -quiet sweep prints it, without
// the timing line.
func TestRaftSweepGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 480 raft clusters")
	}
	kinds, err := parseFaults(faultsDefault)
	if err != nil {
		t.Fatal(err)
	}
	spec := campaign.Spec{Protocol: "raft", Types: splitList(raftTypesDefault), Faults: kinds}
	var got strings.Builder
	for _, size := range []int{3, 5, 25} {
		for _, churn := range raftSweepChurn {
			name := raftCellName(size, churn)
			vs, _, err := campaign.RunParallel(spec, cell(t, name).Run, campaign.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "-- %s --\n%s", name, campaign.Summary(vs))
		}
	}
	checkGolden(t, "raft-sweep.golden", []byte(got.String()))
}

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s: re-bless with -update and read the git diff", path)
	}
}
