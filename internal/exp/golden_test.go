package exp_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pfi/internal/conformance"
	"pfi/internal/tcp"
)

var update = flag.Bool("update", false, "re-bless the rendered-table goldens")

// tableDir holds the rendered-table goldens, beside the scenarios and
// renderers in conformance. The tests that pin them stay here, under the
// package and names each table has been checked by since its experiment
// was a Go driver in this package, so a table's test record is unbroken;
// they add no table knowledge of their own: each passes a conformance
// renderer's output to tableGolden.
var tableDir = filepath.Join("..", "conformance", "testdata", "tables")

// tableGolden pins a renderer's full output. The experiments behind the
// tables are deterministic (seeded worlds, virtual time), so the rendered
// text is stable down to the byte — any drift in stack behaviour, in a
// scenario, or in table formatting shows up as a diff against
// <tableDir>/<name>.golden.
func tableGolden(t *testing.T, name string, render func(io.Writer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	path := filepath.Join(tableDir, name+".golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (re-run with -update to create the golden)", name, err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Errorf("%s: rendered table drifted from golden.\n--- want\n%s\n--- got\n%s",
			name, firstDiffWindow(want, buf.Bytes()), firstDiffWindow(buf.Bytes(), want))
	}
}

// firstDiffWindow returns a few lines around the first byte difference, so
// a long table diff stays readable.
func firstDiffWindow(a, b []byte) string {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := max(i-200, 0)
	end := min(i+200, len(a))
	return fmt.Sprintf("...%s...", a[start:end])
}

func TestTable1Golden(t *testing.T) { tableGolden(t, "table1", conformance.Table1) }
func TestTable2Golden(t *testing.T) {
	tableGolden(t, "table2", func(w io.Writer) error { return conformance.Table2(w, 2*time.Second) })
}
func TestTable3Golden(t *testing.T) { tableGolden(t, "table3", conformance.Table3) }
func TestTable4Golden(t *testing.T) { tableGolden(t, "table4", conformance.Table4) }
func TestTable5Golden(t *testing.T) { tableGolden(t, "table5", conformance.Table5) }
func TestTable6Golden(t *testing.T) { tableGolden(t, "table6", conformance.Table6) }
func TestTable7Golden(t *testing.T) { tableGolden(t, "table7", conformance.Table7) }
func TestTable8Golden(t *testing.T) { tableGolden(t, "table8", conformance.Table8) }
func TestGlobalCounterGolden(t *testing.T) {
	tableGolden(t, "global-counter", conformance.GlobalCounter)
}
func TestReorderGolden(t *testing.T)      { tableGolden(t, "reorder", conformance.Reorder) }
func TestFigure4SunOSGolden(t *testing.T) { tableGolden(t, "figure4-sunos", figure4(tcp.SunOS413())) }
func TestFigure4SolarisGolden(t *testing.T) {
	tableGolden(t, "figure4-solaris", figure4(tcp.Solaris23()))
}

func figure4(prof tcp.Profile) func(io.Writer) error {
	return func(w io.Writer) error { return conformance.Figure4(w, prof) }
}
