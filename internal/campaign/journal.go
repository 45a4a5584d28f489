package campaign

import (
	"fmt"
	"hash/fnv"
	"time"

	"pfi/internal/harden"
	"pfi/internal/journal"
)

// Journal record types for campaign sweeps. RunParallel is their only
// writer, whichever evaluator lands the cells, so a journal started by an
// in-process sweep resumes under a fleet coordinator and vice versa. A
// fleet coordinator adds its own epoch records to the same log; replay
// skips record types it does not own.
const (
	// RecCampaignMeta pins the sweep a journal belongs to; always the
	// first campaign record. Resuming against a different matrix is a
	// loud error, never a silent misattribution of verdicts.
	RecCampaignMeta = "campaign-meta"
	// RecVerdict is one completed cell, keyed by generation index.
	RecVerdict = "verdict"
)

// JournalMeta identifies the sweep: cell count plus a hash of the
// ordered case names.
type JournalMeta struct {
	Kind  string `json:"kind"`
	Cells int    `json:"cells"`
	Hash  string `json:"hash"`
}

// JournalVerdict is the durable projection of one cell's verdict, and —
// through JournalOf and Restore, which the fleet wire conversion also
// goes through — the single source of which verdict fields are durable:
// no wall-clock-dependent isolation stacks or local paths beyond the
// note, so restored verdicts canonicalize identically to fresh ones.
type JournalVerdict struct {
	Index     int    `json:"i"`
	Name      string `json:"name"`
	OK        bool   `json:"ok,omitempty"`
	Note      string `json:"note,omitempty"`
	Err       string `json:"err,omitempty"`
	Outcome   int    `json:"outcome,omitempty"`
	Retries   int    `json:"retries,omitempty"`
	ElapsedUS int64  `json:"elapsed_us,omitempty"`
}

// JournalOf projects a completed verdict onto its durable record.
func JournalOf(index int, v Verdict) JournalVerdict {
	jv := JournalVerdict{
		Index:     index,
		Name:      v.Case.Name,
		OK:        v.OK,
		Note:      v.Note,
		Outcome:   int(v.Outcome),
		ElapsedUS: v.Elapsed.Microseconds(),
	}
	if v.Err != nil {
		jv.Err = v.Err.Error()
	}
	if v.Isolation != nil {
		jv.Retries = v.Isolation.Retries
	}
	return jv
}

// Restore rebuilds the verdict for its locally regenerated case. The
// quarantine/retry semantics survive the round trip: a contained cell
// keeps its outcome kind, retry count, and repro note, and is not
// re-run on resume.
func (jv JournalVerdict) Restore(c Case) Verdict {
	v := Verdict{
		Case:    c,
		OK:      jv.OK,
		Note:    jv.Note,
		Outcome: harden.Kind(jv.Outcome),
		Elapsed: time.Duration(jv.ElapsedUS) * time.Microsecond,
	}
	if jv.Err != "" {
		v.Err = restoredError(jv.Err)
	}
	if jv.Retries > 0 || (v.Outcome != harden.Pass && v.Outcome != harden.Fail) {
		v.Isolation = &harden.Outcome{Kind: v.Outcome, Err: v.Err, Retries: jv.Retries}
	}
	return v
}

// restoredError preserves journaled error text through resume.
type journalErr string

func (e journalErr) Error() string { return string(e) }

func restoredError(s string) error { return journalErr(s) }

// CaseHash fingerprints a generated case matrix (ordered names) so a
// journal can refuse to resume against a different sweep.
func CaseHash(cases []Case) string {
	h := fnv.New64a()
	for _, c := range cases {
		h.Write([]byte(c.Name))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// PrepareJournal readies a journal for the given case matrix: a fresh
// journal is stamped with the sweep's metadata; an existing one is
// validated against it (cell count and case-name hash must match) and
// its completed cells are returned keyed by index. Duplicate records
// for a cell keep the first (cells are pure functions of the case, so
// any duplicate is identical). Unknown record types are skipped so
// fleet epochs and future record kinds coexist in the same log.
func PrepareJournal(l *journal.Log, cases []Case) (map[int]JournalVerdict, error) {
	want := JournalMeta{Kind: "campaign", Cells: len(cases), Hash: CaseHash(cases)}
	restored := make(map[int]JournalVerdict)
	sawMeta := false
	for _, rec := range l.Records() {
		switch rec.Type {
		case RecCampaignMeta:
			var meta JournalMeta
			if err := journal.Decode(rec, RecCampaignMeta, &meta); err != nil {
				return nil, err
			}
			if meta != want {
				return nil, fmt.Errorf("campaign: journal %s belongs to a different sweep (%d cells, hash %s; this sweep: %d cells, hash %s)",
					l.Path(), meta.Cells, meta.Hash, want.Cells, want.Hash)
			}
			sawMeta = true
		case RecVerdict:
			if !sawMeta {
				return nil, fmt.Errorf("campaign: journal %s has verdicts before metadata", l.Path())
			}
			var jv JournalVerdict
			if err := journal.Decode(rec, RecVerdict, &jv); err != nil {
				return nil, err
			}
			if jv.Index < 0 || jv.Index >= len(cases) {
				return nil, fmt.Errorf("campaign: journal cell %d out of range [0,%d)", jv.Index, len(cases))
			}
			if jv.Name != cases[jv.Index].Name {
				return nil, fmt.Errorf("campaign: journal cell %d is %q, matrix has %q", jv.Index, jv.Name, cases[jv.Index].Name)
			}
			if _, dup := restored[jv.Index]; !dup {
				restored[jv.Index] = jv
			}
		}
	}
	if !sawMeta {
		if err := l.Append(RecCampaignMeta, want); err != nil {
			return nil, err
		}
	}
	return restored, nil
}
