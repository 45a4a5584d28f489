package trace

import (
	"strings"
	"testing"
	"time"

	"pfi/internal/simtime"
)

func sampleEntries() []Entry {
	return []Entry{
		{At: 0, Node: "vendor", Kind: "send", Type: "SYN", Seq: 0, Note: ""},
		{At: simtime.Time(2 * time.Millisecond), Node: "xkernel", Kind: "recv", Type: "SYN", Seq: 0, Note: "handshake"},
		{At: simtime.Time(64 * time.Second), Node: "vendor", Kind: "retransmit", Type: "DATA", Seq: 31, Note: "rto=64s backoff"},
	}
}

func TestCanonicalRoundTrip(t *testing.T) {
	want := sampleEntries()
	var b strings.Builder
	if err := WriteCanonical(&b, want); err != nil {
		t.Fatal(err)
	}
	got, err := ParseCanonical(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := Diff(want, got, 0); len(diffs) != 0 {
		t.Fatalf("round trip not identical:\n%s", strings.Join(diffs, "\n"))
	}
}

func TestCanonicalSanitizesNotes(t *testing.T) {
	in := []Entry{{Node: "n", Kind: "k", Type: "T", Note: "a\tb\nc"}}
	var b strings.Builder
	if err := WriteCanonical(&b, in); err != nil {
		t.Fatal(err)
	}
	got, err := ParseCanonical(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Note != "a b c" {
		t.Fatalf("note not sanitized: %+v", got)
	}
}

func TestParseCanonicalRejectsGarbage(t *testing.T) {
	for _, src := range []string{
		"not a trace line",
		"xyz\tn\tk\tT\t0\t",
		"0\tn\tk\tT\tnotanumber\t",
	} {
		if _, err := ParseCanonical(strings.NewReader(src)); err == nil {
			t.Errorf("ParseCanonical(%q): want error", src)
		}
	}
}

func TestDiffReportsAllMismatchKinds(t *testing.T) {
	a := sampleEntries()
	// Changed entry.
	b := sampleEntries()
	b[2].At += simtime.Time(time.Second)
	if diffs := Diff(a, b, 0); len(diffs) != 1 || !strings.Contains(diffs[0], "entry 2") {
		t.Fatalf("changed entry: got %v", diffs)
	}
	// Missing tail.
	if diffs := Diff(a, a[:2], 0); len(diffs) != 1 || !strings.Contains(diffs[0], "missing") {
		t.Fatalf("missing entry: got %v", diffs)
	}
	// Extra tail.
	if diffs := Diff(a[:2], a, 0); len(diffs) != 1 || !strings.Contains(diffs[0], "unexpected") {
		t.Fatalf("extra entry: got %v", diffs)
	}
	// Limit.
	c := make([]Entry, len(a))
	for i := range a {
		c[i] = a[i]
		c[i].Node = "other"
	}
	if diffs := Diff(a, c, 2); len(diffs) != 2 {
		t.Fatalf("limit: got %d diffs", len(diffs))
	}
	if diffs := Diff(a, sampleEntries(), 0); len(diffs) != 0 {
		t.Fatalf("identical traces: got %v", diffs)
	}
}

// The Entries shared-slice footgun: callers mutating the returned slice must
// not corrupt the log.
func TestEntriesReturnsACopy(t *testing.T) {
	l := NewLog()
	l.Addf(0, "n", "send", "DATA", 1, "original")
	es := l.Entries()
	es[0].Note = "mutated"
	es[0].Node = "attacker"
	if got := l.Entries()[0]; got.Note != "original" || got.Node != "n" {
		t.Fatalf("log corrupted by caller mutation: %+v", got)
	}
}
