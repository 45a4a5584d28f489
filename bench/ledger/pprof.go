package ledger

import (
	"fmt"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

// protoPackages fold into share.proto.
var protoPackages = map[string]bool{"tcp": true, "gmp": true, "rudp": true, "raft": true}

var (
	// allocGC matches the runtime's allocator, collector and write barrier,
	// and the goroutine suspension the collector's stack scans go through
	// (suspendG and the preemption signal under it).
	allocGC = regexp.MustCompile(`suspendG|preemptM|signalM|tgkill|procyield|osyield|malloc|newobject|newarray|makeslice|growslice|gc[A-Z]|scan|mark|[sS]weep|mspan|mheap|mcache|mcentral|memclr|greyobject|findObject|heapBits|heapSetType|typePointers|wbBuf|wbMove|nextFree|spanOf|bulkBarrier|publicationBarrier|roundupsize|persistentalloc|sysUnused|madvise|profilealloc|mProf`)
	// mapOps matches map access and the hash functions under it.
	mapOps = regexp.MustCompile(`runtime\.(map|makemap)|^internal/runtime/maps\.|^aeshash|runtime\.(mem|str)hash`)
	// topLine is one row of `pprof -top -sample_index=samples`.
	topLine = regexp.MustCompile(`^\s*(\d+)\s+[\d.]+%\s+[\d.]+%\s+\d+\s+[\d.]+%\s+(\S+)`)
)

// LayerOf names the share bucket a profiled function belongs to.
func LayerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "pfi/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		if protoPackages[pkg] {
			return "proto"
		}
		for _, l := range ShareLayers {
			if l == pkg {
				return pkg
			}
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "container/heap."):
		return "simtime" // the event queue is the only heap in the tree
	case mapOps.MatchString(fn):
		return "runtime_map"
	case strings.HasPrefix(fn, "runtime.") && allocGC.MatchString(fn):
		return "runtime_alloc_gc"
	}
	return "other"
}

// FoldTop folds the flat sample counts of `go tool pprof -top
// -sample_index=samples` output into a share per layer. The shares sum to 1.
func FoldTop(text string) (map[string]float64, error) {
	counts := map[string]float64{}
	total := 0.0
	for _, line := range strings.Split(text, "\n") {
		m := topLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n, _ := strconv.ParseFloat(m[1], 64)
		counts[LayerOf(m[2])] += n
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("no samples in pprof output")
	}
	shares := map[string]float64{}
	for _, l := range ShareLayers {
		shares[l] = counts[l] / total
	}
	return shares, nil
}

// foldProfiles folds the CPU profiles of one binary's runs together.
func (e *Env) foldProfiles(bin string, profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-sample_index=samples", "-nodecount=1000000", "-nodefraction=0", bin}, profiles...)
	cmd := exec.Command("go", args...)
	cmd.Dir = e.work
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return FoldTop(string(out))
}
