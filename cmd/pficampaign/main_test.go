package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pfi/internal/campaign"
)

func TestParseFaults(t *testing.T) {
	kinds, err := parseFaults("drop, delay,reorder")
	if err != nil {
		t.Fatal(err)
	}
	want := []campaign.FaultKind{campaign.Drop, campaign.Delay, campaign.Reorder}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("got %v, want %v", kinds, want)
	}
	if _, err := parseFaults("drop,bogus"); err == nil {
		t.Error("unknown fault accepted")
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
		Faults:   []campaign.FaultKind{campaign.Duplicate},
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

var update = flag.Bool("update", false, "re-bless testdata/dump-prog.golden")

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
	path := filepath.Join("testdata", "dump-prog.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("listing differs from %s: re-bless with -update and read the git diff", path)
	}
}
