package conformance

import (
	"bytes"
	"strings"
	"testing"
)

func TestTableWriteAlignment(t *testing.T) {
	tbl := &Table{
		Title:   "T",
		Columns: []string{"a", "longcolumn"},
		Rows:    [][]string{{"wide-cell-value", "x"}, {"y", "z"}},
	}
	var buf bytes.Buffer
	tbl.Write(&buf)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("unexpected line count %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "T") {
		t.Fatalf("missing title: %q", lines[0])
	}
	// All data lines have equal width (aligned columns).
	if len(lines[1]) != len(lines[3]) || len(lines[3]) != len(lines[4]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}
