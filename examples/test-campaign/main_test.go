package main

import (
	"strings"
	"testing"
)

// TestCampaignConverges runs the whole example, serial and parallel sweep.
// Its timings vary from run to run, so only the verdict line is pinned.
func TestCampaignConverges(t *testing.T) {
	var out strings.Builder
	if err := run(&out, 2); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "the healthy pair converged under every generated fault") {
		t.Fatalf("no convergence line in:\n%s", out.String())
	}
}
