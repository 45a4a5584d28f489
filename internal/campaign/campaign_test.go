package campaign_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pfi/internal/campaign"
	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/fault"
	"pfi/internal/harden"
	"pfi/internal/netsim"
)

func TestGenerateMatrix(t *testing.T) {
	spec := campaign.Spec{
		Protocol: "demo",
		Types:    []string{"ACK", "DATA"},
	}
	cases, err := campaign.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	// 2 types x 6 faults x 2 directions.
	if len(cases) != 24 {
		t.Fatalf("generated %d cases, want 24", len(cases))
	}
	names := map[string]bool{}
	for _, c := range cases {
		if names[c.Name] {
			t.Errorf("duplicate case name %q", c.Name)
		}
		names[c.Name] = true
		if c.Script == "" {
			t.Errorf("case %q has no script", c.Name)
		}
		if !strings.Contains(c.Script, c.Type) {
			t.Errorf("case %q script does not mention its type", c.Name)
		}
	}
	if !names["ACK/drop/send"] || !names["DATA/reorder/receive"] {
		t.Errorf("expected case names missing: %v", names)
	}
}

func TestGenerateRestricted(t *testing.T) {
	spec := campaign.Spec{
		Protocol:   "demo",
		Types:      []string{"HB"},
		Faults:     []fault.Kind{fault.Drop},
		Directions: []core.Direction{core.Send},
	}
	cases, err := campaign.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(cases) != 1 || cases[0].Name != "HB/drop/send" {
		t.Fatalf("cases %v", cases)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := campaign.Generate(campaign.Spec{}); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := campaign.Generate(campaign.Spec{Types: []string{`bad"type`}}); err == nil {
		t.Error("metacharacter type accepted")
	}
	if _, err := campaign.Generate(campaign.Spec{Types: []string{"A"}, DelayMS: -1}); err == nil {
		t.Error("negative delay accepted")
	}
}

func TestGeneratedScriptsParse(t *testing.T) {
	cases, err := campaign.Generate(campaign.Spec{
		Protocol: "x",
		Types:    []string{"A", "B", "C"},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every generated script must install cleanly on a real PFI layer.
	w := netsim.NewWorld(1)
	node := w.MustAddNode("n")
	l := core.NewLayer(node.Env())
	for _, c := range cases {
		if err := c.Apply(l); err != nil {
			t.Errorf("case %q: %v", c.Name, err)
		}
	}
}

// TestCampaignAgainstGMP sweeps the generated fault matrix over a live GMP
// cluster and checks the protocol's core promise under every single-type
// single-fault attack: the two unfaulted daemons always converge to a
// common view that contains them both.
func TestCampaignAgainstGMP(t *testing.T) {
	spec := campaign.Spec{
		Protocol: "gmp",
		Types: []string{
			"HEARTBEAT", "PROCLAIM", "JOIN", "MEMBERSHIP_CHANGE",
			"ACK", "COMMIT", "RUDP-ACK",
		},
		// Corrupt would hit the rudp header byte and is covered by the
		// byzantine example; keep the sweep to the structural faults.
		Faults: []fault.Kind{
			fault.Drop, fault.DropFirstN, fault.Delay,
			fault.Duplicate, fault.Reorder,
		},
	}
	scenario := func(m *harden.Monitor, c campaign.Case) (bool, string, error) {
		r, err := exp.NewGMPRig([]string{"gmd1", "gmd2", "gmd3"})
		if err != nil {
			return false, "", err
		}
		// Fault gmd3's traffic per the generated case.
		if err := c.Apply(r.Ms["gmd3"].PFI); err != nil {
			return false, "", err
		}
		r.StartAll()
		r.W.RunFor(3 * time.Minute)

		// Success criterion: the two healthy daemons share a view that
		// contains them both (the faulted one may or may not make it in).
		g1, g2 := r.Ms["gmd1"].Gmd.Group(), r.Ms["gmd2"].Gmd.Group()
		if !g1.Equal(g2) {
			return false, fmt.Sprintf("diverged: %v vs %v", g1, g2), nil
		}
		if !g1.Contains("gmd1") || !g1.Contains("gmd2") {
			return false, fmt.Sprintf("healthy members missing from %v", g1), nil
		}
		return true, g1.String(), nil
	}

	verdicts, _, err := campaign.Run(spec, scenario)
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 7*5*2 {
		t.Fatalf("ran %d cases, want 70", len(verdicts))
	}
	if fails := campaign.Failures(verdicts); len(fails) > 0 {
		t.Errorf("%d generated cases broke the healthy-pair invariant:\n%s",
			len(fails), campaign.Summary(fails))
	}
}

func TestSummaryFormat(t *testing.T) {
	vs := []campaign.Verdict{
		{Case: campaign.Case{Name: "A/drop/send"}, OK: true, Note: "fine"},
		{Case: campaign.Case{Name: "B/delay/receive"}, OK: false, Note: "broke"},
		{Case: campaign.Case{Name: "C/corrupt/send"}, Err: fmt.Errorf("boom")},
	}
	s := campaign.Summary(vs)
	for _, want := range []string{"PASS", "FAIL", "ERROR", "1/3 cases passed"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if got := len(campaign.Failures(vs)); got != 2 {
		t.Errorf("Failures = %d, want 2", got)
	}
}
