package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pfi/internal/campaign"
	"pfi/internal/conformance"
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

// TestSweepSmoke runs a one-case campaign end to end through the CLI's
// scenario, exercising the worker pool path.
func TestSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a full GMP cluster")
	}
	spec := campaign.Spec{
		Protocol: "gmp",
		Types:    []string{"HEARTBEAT"},
		Faults:   []fault.Kind{fault.Duplicate},
	}
	vs, stats, err := campaign.RunParallel(spec, gmpScenario, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Cases != len(vs) || len(vs) != 2 {
		t.Fatalf("got %d verdicts, stats %+v", len(vs), stats)
	}
	for _, v := range vs {
		if v.Err != nil {
			t.Errorf("case %q: %v", v.Case.Name, v.Err)
		}
	}
}

// TestGMPCellMatchesItsRepro runs one cell under a trace budget its world
// exceeds, and the .pfi repro the cell quarantines through the conformance
// harness under the same budget: both must come out the same way, or a
// quarantined repro would not reproduce.
func TestGMPCellMatchesItsRepro(t *testing.T) {
	cases, err := campaign.Generate(campaign.Spec{Protocol: "gmp", Types: []string{"HEARTBEAT"}, Faults: []fault.Kind{fault.Duplicate}})
	if err != nil {
		t.Fatal(err)
	}
	var c campaign.Case
	for _, cc := range cases {
		if cc.Name == "HEARTBEAT/duplicate/send" {
			c = cc
		}
	}
	if c.Name == "" {
		t.Fatal("no HEARTBEAT/duplicate/send case")
	}
	// The cell's world logs a few dozen entries in its 3 minutes: 300 is
	// past them, 20 short of them.
	for _, budget := range []int{300, 20} {
		cfg := harden.Config{Budget: harden.Budget{TraceEntries: budget}}
		cell := campaign.RunCase(c, gmpScenario, cfg, reproScenario)
		repro := conformance.Run(conformance.New(c.Name, reproScenario(c)), conformance.Options{Harden: cfg})
		if cell.Outcome != repro.Outcome {
			t.Errorf("budget %d: cell outcome %v, its repro's %v (%v)", budget, cell.Outcome, repro.Outcome, repro.Err)
		}
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
	vs, _, err := campaign.RunParallel(spec, gmpScenario, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(vs) != 84 {
		t.Fatalf("got %d verdicts, want 84", len(vs))
	}
	checkGolden(t, "gmp-sweep.golden", []byte(campaign.Summary(vs)))
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
