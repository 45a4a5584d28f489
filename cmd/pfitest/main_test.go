package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pfi/internal/conformance"
)

const testdata = "../../internal/conformance/testdata"

// TestConformanceSuiteCLI drives the CLI end to end against the checked-in
// scenarios and goldens, serial and parallel.
func TestConformanceSuiteCLI(t *testing.T) {
	for _, workers := range []int{1, 8} {
		var out bytes.Buffer
		ok, err := run(context.Background(), &out, config{dir: testdata, workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !ok {
			t.Fatalf("workers=%d: suite failed:\n%s", workers, out.String())
		}
		if !strings.Contains(out.String(), "tcp_retransmission") {
			t.Fatalf("workers=%d: missing scenario in report:\n%s", workers, out.String())
		}
	}
}

// TestRunRegexFilter: -run selects by name, case-insensitively, and a
// non-matching regex is an error rather than a silent empty run.
func TestRunRegexFilter(t *testing.T) {
	var out bytes.Buffer
	ok, err := run(context.Background(), &out, config{dir: testdata, runRx: "Tcp", workers: 2})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v\n%s", ok, err, out.String())
	}
	if strings.Contains(out.String(), "gmp_") {
		t.Fatalf("-run Tcp leaked gmp scenarios:\n%s", out.String())
	}
	if _, err := run(context.Background(), &out, config{dir: testdata, runRx: "zzz9"}); err == nil {
		t.Fatal("non-matching -run should be an error")
	}
	if _, err := run(context.Background(), &out, config{dir: testdata, runRx: "("}); err == nil {
		t.Fatal("invalid regex should be an error")
	}
}

// TestRunProfileFlag resolves -profile through the forgiving matcher and
// checks the per-vendor goldens exist for it.
func TestRunProfileFlag(t *testing.T) {
	var out bytes.Buffer
	ok, err := run(context.Background(), &out, config{dir: testdata, runRx: "tcp_reorder", profile: "solaris"})
	if err != nil || !ok {
		t.Fatalf("ok=%v err=%v\n%s", ok, err, out.String())
	}
	if !strings.Contains(out.String(), "Solaris 2.3") {
		t.Fatalf("expected Solaris run:\n%s", out.String())
	}
	if _, err := run(context.Background(), &out, config{dir: testdata, profile: "hp-ux"}); err == nil {
		t.Fatal("unknown -profile should be an error")
	}
}

// TestGoldenMismatchFails points the runner at a wrong golden directory and
// expects a failure report, with -diff naming the divergent entries.
func TestGoldenMismatchFails(t *testing.T) {
	var out bytes.Buffer
	ok, err := run(context.Background(), &out, config{
		dir: testdata, golden: t.TempDir(), runRx: "tcp_reorder", diff: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("missing goldens must fail the run")
	}
	if !strings.Contains(out.String(), "no golden") {
		t.Fatalf("expected a missing-golden report:\n%s", out.String())
	}
}

// TestUpdateWritesGoldens blesses into a scratch directory, then verifies
// the check path accepts what -update wrote.
func TestUpdateWritesGoldens(t *testing.T) {
	scratch := t.TempDir()
	var out bytes.Buffer
	ok, err := run(context.Background(), &out, config{dir: testdata, golden: scratch, runRx: "gmp_partition", update: true})
	if err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	ok, err = run(context.Background(), &out, config{dir: testdata, golden: scratch, runRx: "gmp_partition"})
	if err != nil || !ok {
		t.Fatalf("recheck: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

var update = flag.Bool("update", false, "re-bless testdata/dump-prog.golden")

// TestDumpProgGolden pins -dump-prog's listing of the shipped suite: the
// compiled program each faultload installs, byte for byte. A change to the
// script compiler that moves an instruction shows here.
func TestDumpProgGolden(t *testing.T) {
	scs, err := conformance.LoadDir(testdata)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	conformance.RunAll(scs, conformance.Options{Workers: 1, ProgDump: &got})
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
