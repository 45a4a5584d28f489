// byzantine: subject a three-machine group membership cluster to arbitrary
// (byzantine) faults — probabilistic corruption, duplication, and
// reordering of one member's traffic — using the fault kinds of the
// failure-model library from Section 2.2, and check whether view agreement
// survives.
//
// The corrupt, duplicate and reorder kinds compose into one Tcl filter
// script, each under the same fault.Guard (the first five minutes, a 10%
// coin per message and kind); nothing in the GMP code is touched. The
// protocol's defence is its message framing (a corrupted message type fails
// to decode and the message is dropped) and the reliability layer's dedup
// (duplicates are suppressed). gmd3 drops out of the view and rejoins while
// its corrupted and held messages go missing, but agreement holds: every
// committed multi-member view generation is identical across daemons.
//
// Run: go run ./examples/byzantine
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"pfi/internal/core"
	"pfi/internal/exp"
	"pfi/internal/fault"
	"pfi/internal/gmp"
	"pfi/internal/rudp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	r, err := exp.NewGMPRig([]string{"gmd1", "gmd2", "gmd3"})
	if err != nil {
		return err
	}
	type commit struct {
		node string
		view gmp.Group
	}
	var commits []commit
	for _, name := range r.Names {
		r.Ms[name].Gmd.OnCommit(func(g gmp.Group) {
			commits = append(commits, commit{node: name, view: g})
		})
	}
	r.StartAll()
	r.W.RunFor(time.Minute)
	fmt.Println("converged:", r.Ms["gmd1"].Gmd.Group())

	// For five minutes, each of gmd3's messages (both directions) is
	// corrupted, duplicated, and held for reordering, each with
	// probability 0.1. Corrupt flips the first byte past the rudp header:
	// the GMP message's type.
	guard := fault.Guard(0, 5*time.Minute, "", 0.1)
	var script strings.Builder
	var models []string
	for _, k := range []fault.Kind{fault.Corrupt, fault.Duplicate, fault.Reorder} {
		snippet, err := k.Snippet(guard, rudp.HeaderLen, "")
		if err != nil {
			return err
		}
		script.WriteString(snippet)
		models = append(models, fmt.Sprintf("%v (%v)", k, k.Model(core.Send)))
	}
	fmt.Println("\nfaults on gmd3:", strings.Join(models, ", "))
	fmt.Println("\ncompiled byzantine filter script:")
	for _, line := range strings.Split(strings.TrimSpace(script.String()), "\n") {
		fmt.Println("   ", line)
	}
	if err := r.Ms["gmd3"].PFI.SetSendScript(script.String()); err != nil {
		return err
	}
	if err := r.Ms["gmd3"].PFI.SetReceiveScript(script.String()); err != nil {
		return err
	}
	r.W.RunFor(6 * time.Minute)

	// Agreement check: all multi-member views committed for a generation
	// must be identical.
	fmt.Println("\ncommitted views during the byzantine storm:")
	byGen := map[uint32]map[string]bool{}
	for _, c := range commits {
		if len(c.view.Members) < 2 {
			continue
		}
		key := strings.Join(c.view.Members, ",")
		if byGen[c.view.Gen] == nil {
			byGen[c.view.Gen] = map[string]bool{}
		}
		byGen[c.view.Gen][key] = true
		fmt.Printf("  %s committed %v\n", c.node, c.view)
	}
	violations := 0
	for gen, sets := range byGen {
		if len(sets) > 1 {
			violations++
			fmt.Printf("  AGREEMENT VIOLATION at generation %d: %v\n", gen, sets)
		}
	}
	st := r.Ms["gmd3"].PFI.SendFilter().Stats()
	fmt.Printf("\ngmd3 send filter: %d seen, %d duplicated, %d held/reordered\n",
		st.Seen, st.Duplicated, st.Held)
	if violations == 0 {
		fmt.Println("agreement held: every generation's multi-member view was identical everywhere")
	}
	fmt.Println("final views:")
	for _, name := range r.Names {
		fmt.Printf("  %s: %v\n", name, r.Ms[name].Gmd.Group())
	}
	return nil
}
