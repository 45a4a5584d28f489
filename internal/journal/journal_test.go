package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "re-bless the pinned journal golden")

func open(t *testing.T, path string) *Log {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l
}

func appendT(t *testing.T, l *Log, typ string, v any) {
	t.Helper()
	if err := l.Append(typ, v); err != nil {
		t.Fatalf("Append(%s): %v", typ, err)
	}
}

type fact struct {
	Cell int    `json:"cell"`
	Note string `json:"note,omitempty"`
}

func TestAppendRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l := open(t, path)
	appendT(t, l, "meta", map[string]int{"n": 3})
	for i := 0; i < 3; i++ {
		appendT(t, l, "verdict", fact{Cell: i, Note: "ok"})
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2 := open(t, path)
	defer l2.Close()
	recs := l2.Records()
	if len(recs) != 4 {
		t.Fatalf("recovered %d records, want 4", len(recs))
	}
	if recs[0].Type != "meta" || recs[3].Type != "verdict" {
		t.Fatalf("record types: %q ... %q", recs[0].Type, recs[3].Type)
	}
	var f fact
	if err := Decode(recs[3], "verdict", &f); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if f.Cell != 2 || f.Note != "ok" {
		t.Fatalf("decoded %+v", f)
	}
	if err := Decode(recs[3], "meta", &f); err == nil {
		t.Fatal("Decode with wrong type tag should fail")
	}
}

// A crash mid-write leaves a torn frame; Open must drop exactly the
// tail and leave an appendable log.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []string{"header", "payload"} {
		t.Run(cut, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			l := open(t, path)
			appendT(t, l, "verdict", fact{Cell: 0})
			appendT(t, l, "verdict", fact{Cell: 1})
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			frame, err := EncodeFrame(Record{Type: "verdict", Data: json.RawMessage(`{"cell":2}`)})
			if err != nil {
				t.Fatal(err)
			}
			n := 3 // mid-header
			if cut == "payload" {
				n = frameHeader + 2
			}
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(frame[:n])
			f.Close()
			whole := fileSize(t, path)

			l2 := open(t, path)
			recs := l2.Records()
			if len(recs) != 2 {
				t.Fatalf("recovered %d records, want 2", len(recs))
			}
			if torn := whole - fileSize(t, path); torn != int64(n) {
				t.Fatalf("truncated %d bytes, want %d", torn, n)
			}
			// The log is healthy again: append and reopen cleanly.
			appendT(t, l2, "verdict", fact{Cell: 2})
			l2.Close()
			repaired := fileSize(t, path)
			l3 := open(t, path)
			defer l3.Close()
			if got, torn := len(l3.Records()), repaired-fileSize(t, path); got != 3 || torn != 0 {
				t.Fatalf("after repair: %d records, %d torn; want 3, 0", got, torn)
			}
		})
	}
}

func TestChecksumCorruptionTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l := open(t, path)
	appendT(t, l, "verdict", fact{Cell: 0})
	appendT(t, l, "verdict", fact{Cell: 1})
	l.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff // flip a byte in the last payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2 := open(t, path)
	defer l2.Close()
	if recs := l2.Records(); len(recs) != 1 {
		t.Fatalf("recovered %d records, want 1 (corrupt tail dropped)", len(recs))
	}
}

func TestCheckpointCompacts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l := open(t, path)
	for i := 0; i < 10; i++ {
		appendT(t, l, "verdict", fact{Cell: i})
	}
	big, _ := os.Stat(path)
	// Compact 10 deltas into one summary record, then keep appending.
	sum, _ := json.Marshal(map[string]int{"cells": 10})
	if err := l.Checkpoint([]Record{{Type: "checkpoint", Data: sum}}); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	small, _ := os.Stat(path)
	if small.Size() >= big.Size() {
		t.Fatalf("checkpoint did not compact: %d -> %d bytes", big.Size(), small.Size())
	}
	appendT(t, l, "verdict", fact{Cell: 10})
	l.Close()

	l2 := open(t, path)
	defer l2.Close()
	recs := l2.Records()
	if len(recs) != 2 || recs[0].Type != "checkpoint" || recs[1].Type != "verdict" {
		t.Fatalf("after checkpoint: %d records (%v)", len(recs), recs)
	}
	// A leftover temp file from a crashed checkpoint is ignored.
	if err := os.WriteFile(path+".ckpt-crashed", []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	l3 := open(t, path)
	defer l3.Close()
	if got := len(l3.Records()); got != 2 {
		t.Fatalf("stray temp file changed recovery: %d records", got)
	}
}

func TestBadMagicRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	if err := os.WriteFile(path, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open of a foreign file should fail")
	}
}

func TestWriteFailureIsToolFault(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	l := open(t, path)
	l.Close()
	err := l.Append("verdict", fact{Cell: 0})
	if err == nil {
		t.Fatal("Append after Close should fail")
	}
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("error %T is not a *Fault", err)
	}
	if f.Op != "append" {
		t.Fatalf("Fault %q has op %q, want append", f, f.Op)
	}
}

// fileSize is the byte length of the file at path.
func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

func TestStatsCount(t *testing.T) {
	before := GetStats()
	path := filepath.Join(t.TempDir(), "j")
	l := open(t, path)
	appendT(t, l, "verdict", fact{Cell: 0})
	l.Close()
	CountResumed(3)
	after := GetStats()
	if after.RecordsWritten <= before.RecordsWritten {
		t.Fatal("RecordsWritten did not advance")
	}
	if after.BytesWritten <= before.BytesWritten {
		t.Fatal("BytesWritten did not advance")
	}
	if after.ResumedSkipped != before.ResumedSkipped+3 {
		t.Fatalf("ResumedSkipped = %d, want %d", after.ResumedSkipped, before.ResumedSkipped+3)
	}
}

// goldenRecords is the pinned journal: regenerate with -update, but any
// unintentional byte drift in the frame encoding is a format break.
func goldenRecords() []Record {
	return []Record{
		{Type: "meta", Data: json.RawMessage(`{"kind":"campaign","cells":70,"hash":"7a1d"}`)},
		{Type: "verdict", Data: json.RawMessage(`{"cell":0,"ok":true}`)},
		{Type: "verdict", Data: json.RawMessage(`{"cell":1,"ok":false,"outcome":"crash","retries":1}`)},
		{Type: "gen", Data: json.RawMessage(`{"gen":1,"runs":32,"rng":4096,"fp":"8f3c"}`)},
		{Type: "checkpoint", Data: json.RawMessage(`{"gen":8}`)},
		{Type: "epoch", Data: json.RawMessage(`{"n":1}`)},
	}
}

func TestGoldenFormat(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(magic)
	for _, rec := range goldenRecords() {
		frame, err := EncodeFrame(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(frame)
	}
	path := filepath.Join("testdata", "journal", "records.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to bless): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("journal frame encoding drifted from pinned golden (%d vs %d bytes); if intentional, bump FormatVersion and -update", buf.Len(), len(want))
	}

	// The pinned bytes must also round-trip through Open.
	jp := filepath.Join(t.TempDir(), "golden.journal")
	if err := os.WriteFile(jp, want, 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, jp)
	defer l.Close()
	recs := l.Records()
	wantRecs := goldenRecords()
	if len(recs) != len(wantRecs) {
		t.Fatalf("golden recovered %d records, want %d", len(recs), len(wantRecs))
	}
	for i, rec := range recs {
		if rec.Type != wantRecs[i].Type || !bytes.Equal(rec.Data, wantRecs[i].Data) {
			t.Fatalf("golden record %d: %s %s != %s %s", i, rec.Type, rec.Data, wantRecs[i].Type, wantRecs[i].Data)
		}
	}
}
