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
	for _, n := range []int{1, 5} {
		if err := run(n, false, io.Discard); err != nil {
			t.Errorf("run(%d): %v", n, err)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(9, false, io.Discard); err == nil {
		t.Fatal("run(9) succeeded")
	}
	if err := run(-1, false, io.Discard); err == nil {
		t.Fatal("run(-1) succeeded")
	}
}

// TestStdoutGolden pins the whole default output of tcpexp: every table,
// both Table 2 delays, the global-counter probe and both Figure 4 series,
// in the order the command prints them.
func TestStdoutGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run(0, false, &buf); err != nil {
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
		t.Errorf("tcpexp output drifted from %s:\n--- want\n%s\n--- got\n%s", path, want, buf.Bytes())
	}
}
