package conformance

import (
	"fmt"
	"strings"

	"pfi/internal/campaign"
	"pfi/internal/harden"
)

// Cell is a campaign cell written as a script: a shipped template scenario
// (testdata/gmp_cell.pfi, raft_cell.pfi) with its variant picked by a
// prelude ("set size 25\nset churn partition\n"). A case reaches the
// template as two more variables, dir and filter. A cell's source, which
// is also the .pfi repro it quarantines, is the prelude, the case and the
// template, and nothing else runs. Cell is the only place that maps a
// script's outcome to a campaign verdict.
type Cell struct {
	name, prelude, template string
}

// NewCell returns the cell of the shipped template name under prelude.
func NewCell(name, prelude string) (Cell, error) {
	sc, err := Shipped(name)
	if err != nil {
		return Cell{}, err
	}
	return Cell{name: name, prelude: prelude, template: sc.Source}, nil
}

// Source returns case c's scenario source: a comment naming the case, the
// prelude, `set dir …`, `set filter {…}`, then the template.
func (cl Cell) Source(c campaign.Case) string {
	return fmt.Sprintf("# campaign case: %s\n%sset dir %s\nset filter {%s}\n%s",
		c.Name, cl.prelude, c.Dir, strings.TrimRight(c.Script, "\n"), cl.template)
}

// Run is the cell as a campaign.Scenario: it evaluates case c's source
// under m, the monitor campaign.RunCase passes in. The case holds when no
// verdict failed, and its note is then the template's last `probe note`;
// otherwise the note is the first failed verdict. A scenario error is the
// case's error.
func (cl Cell) Run(m *harden.Monitor, c campaign.Case) (bool, string, error) {
	h := newHarness(Options{}.profile())
	if err := h.eval(cl.Source(c), m); err != nil {
		return false, "", fmt.Errorf("conformance: %s: %w", cl.name, err)
	}
	for _, v := range h.verdicts {
		if !v.OK {
			return false, v.String(), nil
		}
	}
	_, note := (&Result{Trace: h.log.Filter("driver", "scenario", "")}).probe("note")
	return true, note, nil
}
