package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "re-bless testdata/stdout.golden")

func TestRunSingleExperiments(t *testing.T) {
	for _, n := range []int{3, 4} {
		if err := run(n, io.Discard); err != nil {
			t.Errorf("run(%d): %v", n, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(7, io.Discard); err == nil {
		t.Fatal("run(7, io.Discard) succeeded")
	}
}

// TestStdoutGolden pins the whole default output of gmpexp: Tables 5-8 in
// the order the command prints them.
func TestStdoutGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(0, &buf); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/stdout.golden"
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (re-run with -update to create the golden)", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("gmpexp output drifted from %s:\n--- want\n%s\n--- got\n%s", path, want, buf.Bytes())
	}
}
