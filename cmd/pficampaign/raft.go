package main

import (
	"fmt"
	"strconv"
	"strings"

	"pfi/internal/campaign"
	"pfi/internal/conformance"
)

// The raft sweep is a three-axis matrix: cluster size × faultload × churn.
// The faultload axis is the campaign.Case matrix (message type × fault ×
// direction) applied to one victim node's PFI filters; the other two axes
// select the registered cell, the raft_cell template under a prelude that
// sets size and churn. Sizes and churn models are a fixed grid
// so coordinator and spawned workers always share the same scenario
// registry — the scenario name is the wire contract.
var (
	raftSweepSizes = []int{3, 5, 9, 25, 50, 100, 250, 500, 1000}
	raftSweepChurn = []string{"none", "restart", "suspend", "partition"}
)

// raftCellName is the fleet registry key for one (size, churn) cell.
func raftCellName(size int, churn string) string {
	return fmt.Sprintf("raft-%d-%s", size, churn)
}

// campaignCells builds every cell this binary sweeps, keyed by its
// registry name: "gmp", and one raft_cell variant per supported (size,
// churn). The whole grid is built unconditionally at startup so a spawned
// stdio worker can resolve whatever cell the coordinator sweeps.
func campaignCells() (map[string]conformance.Cell, error) {
	gmp, err := conformance.NewCell("gmp_cell", "")
	if err != nil {
		return nil, err
	}
	m := map[string]conformance.Cell{"gmp": gmp}
	for _, n := range raftSweepSizes {
		for _, churn := range raftSweepChurn {
			cell, err := conformance.NewCell("raft_cell", fmt.Sprintf("set size %d\nset churn %s\n", n, churn))
			if err != nil {
				return nil, err
			}
			m[raftCellName(n, churn)] = cell
		}
	}
	return m, nil
}

// raftTypesDefault is the raft wire vocabulary the faultload axis targets.
const raftTypesDefault = "REQUEST_VOTE,VOTE_RESP,APPEND_ENTRIES,APPEND_RESP"

// parseRaftSizes validates the -raft size list against the supported grid.
func parseRaftSizes(s string) ([]int, error) {
	supported := map[int]bool{}
	for _, n := range raftSweepSizes {
		supported[n] = true
	}
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil || !supported[n] {
			return nil, fmt.Errorf("unsupported raft cluster size %q (supported: %v)", part, raftSweepSizes)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no raft cluster sizes selected")
	}
	return out, nil
}

// parseRaftChurn validates the churn model list.
func parseRaftChurn(s string) ([]string, error) {
	supported := map[string]bool{}
	for _, c := range raftSweepChurn {
		supported[c] = true
	}
	var out []string
	for _, part := range splitList(s) {
		if !supported[part] {
			return nil, fmt.Errorf("unknown churn model %q (known: %s)", part, strings.Join(raftSweepChurn, ", "))
		}
		out = append(out, part)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no churn models selected")
	}
	return out, nil
}

// runRaft is the -raft entry point: it sweeps the full consensus matrix,
// one sweep of the faultload case matrix per (size, churn) cell — the
// scenario name carries the cell, so in fleet mode each cell is one fleet
// round over freshly spawned workers and the wire carries case indices.
func (a *app) runRaft(sizesStr, churnStr string) error {
	sizes, err := parseRaftSizes(sizesStr)
	if err != nil {
		return err
	}
	churns, err := parseRaftChurn(churnStr)
	if err != nil {
		return err
	}
	spec, cases, err := a.spec("raft")
	if err != nil {
		return err
	}
	if a.list {
		for _, size := range sizes {
			for _, churn := range churns {
				for _, c := range cases {
					fmt.Printf("%s/%s\n", raftCellName(size, churn), c.Name)
				}
			}
		}
		return nil
	}
	if a.dump {
		return fmt.Errorf("-dump-prog disassembles against the GMP stub; run it without -raft")
	}
	if a.lc.Serve != "" {
		return fmt.Errorf("-raft sweeps run one fleet round per matrix cell; use -spawn-workers (a -serve listener cannot rebind per cell)")
	}
	total := len(sizes) * len(churns) * len(cases)
	fmt.Printf("sweeping raft matrix: %d sizes x %d churn models x %d faultloads = %d cases\n",
		len(sizes), len(churns), len(cases), total)
	var all []campaign.Verdict
	for _, size := range sizes {
		for _, churn := range churns {
			cell := raftCellName(size, churn)
			verdicts, err := a.sweep(spec, cell, cell)
			if err != nil {
				return fmt.Errorf("%s: %w", cell, err)
			}
			all = append(all, verdicts...)
		}
	}
	if fails := campaign.Failures(all); len(fails) > 0 {
		return fmt.Errorf("%d of %d raft cases failed", len(fails), total)
	}
	fmt.Printf("raft matrix clean: %d cases, both safety oracles held everywhere\n", total)
	return nil
}
