// Package journal is the crash-safety spine for long sweeps: an
// append-only, length-prefixed, checksummed write-ahead log that
// campaign and explore runs stream completed work into, so a killed
// process resumes from its last record instead of discarding hours of
// verdicts, corpus, and findings.
//
// On-disk layout is a fixed magic header followed by frames:
//
//	8 bytes  magic "PFIJRNL1"
//	frame*   uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// Each payload is a versioned JSON envelope {"v":1,"type":...,"data":...}.
// Open truncates a torn tail (partial frame, bad checksum, bad envelope)
// back to the last durable record — the write-ahead contract: a record
// is either fully present and checksummed or it never happened. The
// format is pinned by goldens in testdata like the fleet wire protocol.
//
// Appends are a single contiguous write each (no fsync per record; the
// page cache makes kill -9 safe and power-loss merely lossy-but-
// consistent). Sync flushes to stable storage at drain points, and
// Checkpoint atomically compacts the log (write temp, fsync, rename) so
// unbounded runs keep bounded logs. A write failure surfaces as a
// *Fault, which the run returns as its error — never a silent drop.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// FormatVersion stamps every record envelope; readers reject records
// from a future format rather than misparse them.
const FormatVersion = 1

// magic identifies a journal file; the trailing digit is the layout
// version (frame encoding), distinct from the per-record FormatVersion.
var magic = []byte("PFIJRNL1")

// MaxRecord bounds a single record payload (16 MiB, matching the fleet
// frame bound). A length prefix beyond it is corruption, not a record —
// the parser must never over-read or over-allocate on hostile input.
const MaxRecord = 16 << 20

const frameHeader = 8 // uint32 length + uint32 crc

// Record is one durable unit of work: a type tag and its payload.
type Record struct {
	V    int             `json:"v"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data,omitempty"`
}

// Fault wraps a journal I/O failure. Losing the crash-safety log is
// harness breakage: callers must surface it, never drop work silently.
type Fault struct {
	Op  string
	Err error
}

func (f *Fault) Error() string { return fmt.Sprintf("journal %s: %v", f.Op, f.Err) }
func (f *Fault) Unwrap() error { return f.Err }

// fault wraps err as a *Fault unless it already is one (or is nil).
func fault(op string, err error) error {
	if err == nil {
		return nil
	}
	var f *Fault
	if errors.As(err, &f) {
		return err
	}
	return &Fault{Op: op, Err: err}
}

// Stats are process-wide journal counters, exported on the fleet
// /metrics endpoint next to the script engine stats.
type Stats struct {
	RecordsWritten uint64 // records durably appended (incl. checkpoint rewrites)
	BytesWritten   uint64 // frame bytes appended
	ResumedSkipped uint64 // cells/generations restored from a journal instead of re-run
}

var (
	recordsWritten atomic.Uint64
	bytesWritten   atomic.Uint64
	resumedSkipped atomic.Uint64
)

// GetStats snapshots the process-wide journal counters.
func GetStats() Stats {
	return Stats{
		RecordsWritten: recordsWritten.Load(),
		BytesWritten:   bytesWritten.Load(),
		ResumedSkipped: resumedSkipped.Load(),
	}
}

// CountResumed adds n to the process-wide resumed-work counter; the
// campaign and explore resume paths call it once per skipped cell or
// restored generation.
func CountResumed(n int) {
	if n > 0 {
		resumedSkipped.Add(uint64(n))
	}
}

// Log is an open journal. All methods are safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	records []Record // records recovered by Open plus those appended since
}

// Open opens (or creates) the journal at path, replays every intact
// record, and truncates any torn tail so the next Append lands on a
// frame boundary. The recovered records are available via Records.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fault("open", err)
	}
	l := &Log{path: path, f: f}
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// OpenResumable opens the log at path on behalf of a command-line
// -journal flag: a fresh or empty log opens directly, but one that
// already holds records requires resume — a command must never silently
// resume (or clobber) a previous run's banked work.
func OpenResumable(path string, resume bool) (*Log, error) {
	l, err := Open(path)
	if err != nil {
		return nil, err
	}
	if n := len(l.Records()); n > 0 && !resume {
		l.Close()
		return nil, fmt.Errorf(
			"journal %s already holds %d record(s): pass -resume to continue that run, or remove the file to start fresh",
			path, n)
	}
	return l, nil
}

// recover scans the file from the start, keeping every intact frame and
// truncating at the first torn or corrupt one.
func (l *Log) recover() error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return fault("read", err)
	}
	if len(data) == 0 {
		// Fresh journal: stamp the magic so a torn first write is
		// distinguishable from a foreign file.
		if _, err := l.f.Write(magic); err != nil {
			return fault("write", err)
		}
		return nil
	}
	if len(data) < len(magic) || !bytes.Equal(data[:len(magic)], magic) {
		return fault("open", fmt.Errorf("%s: not a journal (bad magic)", l.path))
	}
	recs, good, _ := scan(data[len(magic):])
	good += int64(len(magic))
	l.records = recs
	if good < int64(len(data)) {
		if err := l.f.Truncate(good); err != nil {
			return fault("truncate", err)
		}
	}
	if _, err := l.f.Seek(good, io.SeekStart); err != nil {
		return fault("seek", err)
	}
	return nil
}

// scan parses frames from b, returning the intact records, the byte
// offset of the first torn/corrupt frame (== len(b) when clean), and
// the error that stopped the scan (nil when clean). It never panics and
// never reads past len(b), whatever the length prefixes claim.
func scan(b []byte) (recs []Record, good int64, err error) {
	off := 0
	for off < len(b) {
		rec, n, err := DecodeFrame(b[off:])
		if err != nil {
			return recs, int64(off), err
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, int64(off), nil
}

// DecodeFrame parses one frame from the front of b, returning the
// record and the bytes consumed. It errors on truncated input, lengths
// beyond MaxRecord, checksum mismatches, and malformed envelopes — and
// never panics or reads past b.
func DecodeFrame(b []byte) (Record, int, error) {
	if len(b) < frameHeader {
		return Record{}, 0, fmt.Errorf("journal: torn frame header (%d bytes)", len(b))
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	sum := binary.LittleEndian.Uint32(b[4:8])
	if length > MaxRecord {
		return Record{}, 0, fmt.Errorf("journal: frame length %d exceeds %d", length, MaxRecord)
	}
	end := frameHeader + int(length)
	if end > len(b) {
		return Record{}, 0, fmt.Errorf("journal: torn frame payload (%d of %d bytes)", len(b)-frameHeader, length)
	}
	payload := b[frameHeader:end]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return Record{}, 0, fmt.Errorf("journal: checksum mismatch (%08x != %08x)", got, sum)
	}
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return Record{}, 0, fmt.Errorf("journal: bad envelope: %w", err)
	}
	if dec.More() {
		return Record{}, 0, fmt.Errorf("journal: trailing data after envelope")
	}
	if rec.V != FormatVersion {
		return Record{}, 0, fmt.Errorf("journal: record version %d, want %d", rec.V, FormatVersion)
	}
	if rec.Type == "" {
		return Record{}, 0, fmt.Errorf("journal: record missing type")
	}
	return rec, end, nil
}

// EncodeFrame renders a record as one durable frame.
func EncodeFrame(rec Record) ([]byte, error) {
	if rec.V == 0 {
		rec.V = FormatVersion
	}
	payload, err := json.Marshal(rec)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("journal: record %q is %d bytes, max %d", rec.Type, len(payload), MaxRecord)
	}
	frame := make([]byte, frameHeader+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameHeader:], payload)
	return frame, nil
}

// Records returns every record recovered at Open plus those appended
// since, in order.
func (l *Log) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, len(l.records))
	copy(out, l.records)
	return out
}

// Path returns the journal's file path.
func (l *Log) Path() string { return l.path }

// Append marshals v and durably appends one record of the given type.
// The write is a single contiguous frame: a crash leaves either the
// whole record or a torn tail the next Open truncates.
func (l *Log) Append(typ string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fault("encode", err)
	}
	rec := Record{V: FormatVersion, Type: typ, Data: data}
	frame, err := EncodeFrame(rec)
	if err != nil {
		return fault("encode", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fault("append", errors.New("journal is closed"))
	}
	if _, err := l.f.Write(frame); err != nil {
		return fault("append", err)
	}
	l.records = append(l.records, rec)
	recordsWritten.Add(1)
	bytesWritten.Add(uint64(len(frame)))
	return nil
}

// Sync flushes appended records to stable storage. Called at drain
// points (signal-triggered checkpoints, round boundaries), not per
// record.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	return fault("sync", l.f.Sync())
}

// Checkpoint atomically replaces the log's contents with recs: the
// compacted state is written to a temp file, fsynced, and renamed over
// the journal, so a crash at any instant leaves either the old log or
// the new one — never a mix. Subsequent Appends extend the new log.
func (l *Log) Checkpoint(recs []Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fault("checkpoint", errors.New("journal is closed"))
	}
	tmp, err := os.CreateTemp(filepath.Dir(l.path), filepath.Base(l.path)+".ckpt*")
	if err != nil {
		return fault("checkpoint", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	var buf bytes.Buffer
	buf.Write(magic)
	kept := make([]Record, 0, len(recs))
	for _, rec := range recs {
		if rec.V == 0 {
			rec.V = FormatVersion
		}
		frame, err := EncodeFrame(rec)
		if err != nil {
			tmp.Close()
			return fault("checkpoint", err)
		}
		buf.Write(frame)
		kept = append(kept, rec)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		tmp.Close()
		return fault("checkpoint", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fault("checkpoint", err)
	}
	if err := tmp.Close(); err != nil {
		return fault("checkpoint", err)
	}
	if err := os.Rename(tmp.Name(), l.path); err != nil {
		return fault("checkpoint", err)
	}
	f, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return fault("checkpoint", err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return fault("checkpoint", err)
	}
	l.f.Close()
	l.f = f
	l.records = kept
	recordsWritten.Add(uint64(len(kept)))
	bytesWritten.Add(uint64(buf.Len()))
	return nil
}

// Close syncs and closes the journal. The Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return fault("sync", serr)
	}
	return fault("close", cerr)
}

// Decode unmarshals a record's payload into v, enforcing the record
// type first so a caller can't misread a foreign record.
func Decode(rec Record, typ string, v any) error {
	if rec.Type != typ {
		return fmt.Errorf("journal: record type %q, want %q", rec.Type, typ)
	}
	return json.Unmarshal(rec.Data, v)
}
