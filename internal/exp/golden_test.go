package exp

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"pfi/internal/tcp"
)

var update = flag.Bool("update", false, "re-bless the rendered-table goldens")

// tableGolden pins a renderer's full output. The experiments behind the
// tables are deterministic (seeded worlds, virtual time), so the rendered
// text is stable down to the byte — any drift in stack behaviour or table
// formatting shows up as a diff against testdata/golden/<name>.golden.
func tableGolden(t *testing.T, name string, render func(io.Writer) error) {
	t.Helper()
	var buf bytes.Buffer
	if err := render(&buf); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	path := filepath.Join("testdata", "golden", name+".golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
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
	start := i
	for start > 0 && i-start < 200 {
		start--
	}
	end := i + 200
	if end > len(a) {
		end = len(a)
	}
	return fmt.Sprintf("...%s...", a[start:end])
}

func TestTable1Golden(t *testing.T) { tableGolden(t, "table1", Table1) }
func TestTable2Golden(t *testing.T) {
	tableGolden(t, "table2", func(w io.Writer) error { return Table2(w, 2*time.Second) })
}
func TestTable3Golden(t *testing.T)        { tableGolden(t, "table3", Table3) }
func TestTable4Golden(t *testing.T)        { tableGolden(t, "table4", Table4) }
func TestTable5Golden(t *testing.T)        { tableGolden(t, "table5", Table5) }
func TestTable6Golden(t *testing.T)        { tableGolden(t, "table6", Table6) }
func TestTable7Golden(t *testing.T)        { tableGolden(t, "table7", Table7) }
func TestTable8Golden(t *testing.T)        { tableGolden(t, "table8", Table8) }
func TestGlobalCounterGolden(t *testing.T) { tableGolden(t, "global-counter", GlobalCounter) }
func TestReorderGolden(t *testing.T)       { tableGolden(t, "reorder", Reorder) }
func TestFigure4SunOSGolden(t *testing.T)  { tableGolden(t, "figure4-sunos", figure4(tcp.SunOS413())) }
func TestFigure4SolarisGolden(t *testing.T) {
	tableGolden(t, "figure4-solaris", figure4(tcp.Solaris23()))
}

func figure4(prof tcp.Profile) func(io.Writer) error {
	return func(w io.Writer) error { return Figure4(w, prof) }
}
