package explore

import (
	"encoding/json"
	"fmt"

	"pfi/internal/journal"
)

// Journal record types for fuzzing runs. A run writes one metadata
// record, then one generation record per completed generation; every
// checkpointEvery generations the log is compacted to metadata plus a
// single absolute checkpoint.
const (
	// RecFuzzMeta pins the exploration a journal belongs to.
	RecFuzzMeta = "fuzz-meta"
	// RecGen is one completed generation's delta: runs consumed, RNG
	// position, schedule keys tried, corpus admissions, findings.
	RecGen = "gen"
	// RecFuzzCheckpoint is the compacted absolute state at a boundary.
	RecFuzzCheckpoint = "fuzz-checkpoint"
)

// checkpointEvery is how many generation records accumulate before the
// log is compacted into one checkpoint.
const checkpointEvery = 8

// fuzzMeta identifies the exploration: everything that steers the
// deterministic derive/evaluate/merge cycle except the budget (a
// journal resumes under a larger -budget exactly like a longer
// uninterrupted run, since the state at each boundary is identical).
type fuzzMeta struct {
	Kind     string `json:"kind"`
	Seed     int64  `json:"seed"`
	Batch    int    `json:"batch"`
	Profile  string `json:"profile"`
	SeedHash string `json:"seed_hash"` // fnv64 over ordered gen-0 schedule keys
}

// jEntry is one admitted corpus schedule with its full coverage — the
// replay unit that reconstructs the global map and bit-hit counters.
type jEntry struct {
	Schedule Schedule  `json:"schedule"`
	Cov      []CovWord `json:"cov,omitempty"`
}

// genRecord is one generation boundary. Runs/ShrinkRuns/Gen are
// absolute totals at the boundary; the slices are this generation's
// deltas (or, in a checkpoint record, the full accumulated sets).
type genRecord struct {
	Gen        int       `json:"gen"`
	Runs       int       `json:"runs"`
	ShrinkRuns int       `json:"shrink_runs,omitempty"`
	RngMark    uint64    `json:"rng_mark"`
	Seen       []string  `json:"seen,omitempty"`
	Corpus     []jEntry  `json:"corpus,omitempty"`
	Found      []string  `json:"found,omitempty"`
	Findings   []Finding `json:"findings,omitempty"`
}

// fuzzState is the accumulated journal state at the last boundary.
type fuzzState struct {
	gen, runs, shrink int
	mark              uint64
	seen              []string
	corpus            []jEntry
	found             []string
	findings          []Finding
	genRecords        int // generation records since the last checkpoint
}

// seedHash fingerprints the ordered generation-zero schedules.
func seedHash(seeds []Schedule) string {
	var b []byte
	for _, s := range seeds {
		b = append(b, s.Key()...)
		b = append(b, 0)
	}
	return fmt.Sprintf("%016x", fnv64(string(b)))
}

// apply folds one boundary record into the state. A generation record
// appends deltas; a checkpoint replaces the accumulated sets.
func (st *fuzzState) apply(rec genRecord, absolute bool) {
	st.gen, st.runs, st.shrink, st.mark = rec.Gen, rec.Runs, rec.ShrinkRuns, rec.RngMark
	if absolute {
		st.seen, st.corpus, st.found, st.findings = rec.Seen, rec.Corpus, rec.Found, rec.Findings
		return
	}
	st.seen = append(st.seen, rec.Seen...)
	st.corpus = append(st.corpus, rec.Corpus...)
	st.found = append(st.found, rec.Found...)
	st.findings = append(st.findings, rec.Findings...)
}

// snapshotRecord renders the state as one absolute checkpoint record.
func (st *fuzzState) snapshotRecord() (journal.Record, error) {
	rec := genRecord{
		Gen: st.gen, Runs: st.runs, ShrinkRuns: st.shrink, RngMark: st.mark,
		Seen: st.seen, Corpus: st.corpus, Found: st.found, Findings: st.findings,
	}
	frame := journal.Record{V: journal.FormatVersion, Type: RecFuzzCheckpoint}
	data, err := json.Marshal(rec)
	if err != nil {
		return frame, err
	}
	frame.Data = data
	return frame, nil
}

// prepareFuzzJournal validates (or stamps) a journal against the run's
// parameters and returns the state at the last completed boundary, or
// nil when the journal holds no completed work yet.
func prepareFuzzJournal(l *journal.Log, want fuzzMeta) (*fuzzState, error) {
	sawMeta := false
	st := &fuzzState{}
	boundaries := 0
	for _, rec := range l.Records() {
		switch rec.Type {
		case RecFuzzMeta:
			var meta fuzzMeta
			if err := journal.Decode(rec, RecFuzzMeta, &meta); err != nil {
				return nil, err
			}
			if meta != want {
				return nil, fmt.Errorf("explore: journal %s belongs to a different exploration (seed %d batch %d profile %q seeds %s; this run: seed %d batch %d profile %q seeds %s)",
					l.Path(), meta.Seed, meta.Batch, meta.Profile, meta.SeedHash, want.Seed, want.Batch, want.Profile, want.SeedHash)
			}
			sawMeta = true
		case RecGen, RecFuzzCheckpoint:
			if !sawMeta {
				return nil, fmt.Errorf("explore: journal %s has generations before metadata", l.Path())
			}
			var rec2 genRecord
			typ := rec.Type
			if err := journal.Decode(rec, typ, &rec2); err != nil {
				return nil, err
			}
			st.apply(rec2, typ == RecFuzzCheckpoint)
			if typ == RecGen {
				st.genRecords++
			} else {
				st.genRecords = 0
			}
			boundaries++
		}
	}
	if !sawMeta {
		if err := l.Append(RecFuzzMeta, want); err != nil {
			return nil, err
		}
	}
	if boundaries == 0 {
		return nil, nil
	}
	return st, nil
}
