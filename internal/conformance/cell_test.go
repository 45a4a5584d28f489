package conformance

import (
	"strings"
	"testing"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/harden"
)

// TestCellVerdicts maps the three ways a cell's script can end onto a
// campaign verdict: every assert holds (the note is the last probe note),
// an assert fails (the note is that verdict), or the script errors.
func TestCellVerdicts(t *testing.T) {
	c := campaign.Case{Name: "APPEND_ENTRIES/drop/send", Dir: core.Send,
		Script: `if {[msg_type cur_msg] eq "APPEND_ENTRIES"} { xDrop cur_msg }`}
	for _, tc := range []struct {
		prelude, note, err string
		ok                 bool
	}{
		{prelude: "set size 3\n", ok: true, note: "proposed=3 applied=3/3"},
		{prelude: "set size 3\nproc raft_propose {data} {return 0}\n",
			note: "FAIL @1m15s      assert {$proposed > 0} — some proposal tick found a unique leader  (want expression true, got false)"},
		{prelude: "set churn bogus\n", err: "conformance: raft_cell: unknown churn bogus"},
	} {
		cell, err := NewCell("raft_cell", tc.prelude)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		var note string
		harden.Run(harden.Config{}, func(m *harden.Monitor) error {
			ok, note, err = cell.Run(m, c)
			return err
		})
		if ok != tc.ok || note != tc.note || (err == nil) != (tc.err == "") || err != nil && !strings.HasPrefix(err.Error(), tc.err) {
			t.Errorf("prelude %q: got %v %q %v, want %v %q %s", tc.prelude, ok, note, err, tc.ok, tc.note, tc.err)
		}
	}
	if _, err := NewCell("no_such_cell", ""); err == nil {
		t.Error("NewCell accepted a template that is not shipped")
	}
}
