package fault

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "re-bless testdata/snippets.golden")

// TestSnippetGolden pins every fault kind's snippet byte for byte: under
// the campaign matrix's type guard and under a windowed, globbed,
// probabilistic guard as the fuzzer renders it, at two parameters each, bare
// and with a gene's state suffix. Every generated filter script is built
// from these, so a drift here moves every pin downstream.
func TestSnippetGolden(t *testing.T) {
	guards := []struct{ label, expr, suffix string }{
		{"type", `[msg_type cur_msg] eq "HEARTBEAT"`, ""},
		{"window", Guard(1500*time.Millisecond, 30*time.Second, "APPEND_*", 0.25), "_g2"},
	}
	var b strings.Builder
	for _, k := range Kinds() {
		for _, g := range guards {
			for _, p := range []int{3, 1500} {
				s, err := k.Snippet(g.expr, p, g.suffix)
				if err != nil {
					t.Fatalf("%v: %v", k, err)
				}
				fmt.Fprintf(&b, "== %s guard=%s param=%d suffix=%q\n%s", k, g.label, p, g.suffix, s)
			}
		}
	}
	path := filepath.Join("testdata", "snippets.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (re-run with -update to create the golden)", err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("snippets drifted from %s:\n%s", path, got)
	}
}
