package conformance

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pfi/internal/core"
	"pfi/internal/script"
	"pfi/internal/simtime"
	"pfi/internal/stack"
)

// maxProbeArgs is the largest argument count the arity golden tries: two
// past six, and no declared maximum in any shipped set is above six.
const maxProbeArgs = 8

// aritySet is one shipped command set, built fresh for every probe.
type aritySet struct {
	name  string
	build func() *script.Interp
	// probes are the command prefixes to try; nil means every command the
	// set has beyond the bare interpreter's.
	probes []string
}

func shellWith(world string) func() *script.Interp {
	return func() *script.Interp {
		in := NewShell(Options{}).Interp()
		if _, err := in.Eval(world); err != nil {
			panic(err)
		}
		return in
	}
}

func filterInterp() *script.Interp {
	env := &stack.Env{Sched: simtime.NewScheduler(), Node: "n"}
	return core.NewLayer(env).SendFilter().Interp()
}

// probeArity runs `prefix x x ...` with n words of x after the prefix in
// in and reports the `wrong # args` text it raised, or "-" when it raised
// something else, nothing, or panicked.
func probeArity(in *script.Interp, prefix string, n int) (got string) {
	defer func() {
		if recover() != nil {
			got = "-"
		}
	}()
	_, err := in.Eval(prefix + strings.Repeat(" x", n))
	if err == nil {
		return "-"
	}
	msg := err.Error()
	var ev *script.EvalError
	if errors.As(err, &ev) {
		msg = ev.Msg
	}
	if !strings.Contains(msg, "wrong # args") {
		return "-"
	}
	return msg
}

// TestArityGolden pins, for every command of every shipped command set and
// every argument count from 0 to maxProbeArgs, the `wrong # args` text the
// command gives, or "-" where it takes the count. Subcommands are probed
// under their own prefix. Each call runs in a fresh interpreter. The
// golden reads one line per run of counts that answer alike.
func TestArityGolden(t *testing.T) {
	var subcommands []string
	for _, sub := range []string{"length", "tolower", "toupper", "trim", "trimleft", "trimright",
		"index", "range", "first", "last", "match", "compare", "equal", "repeat", "map"} {
		subcommands = append(subcommands, "string "+sub)
	}
	subcommands = append(subcommands, "info exists", "info commands", "info procs", "info level")
	sets := []aritySet{
		{name: "script", build: script.New},
		{name: "script subcommands", build: script.New, probes: subcommands},
		{name: "script options", build: script.New, probes: []string{"puts -nonewline", "lsearch -exact",
			"lsort -integer", "switch -glob", "switch --", "if 1", "if 0 x else", "if 0 x elseif 0"}},
		{name: "core filter", build: filterInterp},
		{name: "no world", build: shellWith(""), probes: []string{"world", "world tcp", "world gmp",
			"world gmp a bugs", "world raft", "world raft 3", "world raft 3 bugs"}},
		{name: "tcp world", build: shellWith("world tcp")},
		{name: "gmp world", build: shellWith("world gmp a b c")},
		{name: "raft world", build: shellWith("world raft 3")},
		{name: "world options", build: shellWith("world tcp"), probes: []string{"tcp_dial autoconsume"}},
		{name: "raft options", build: shellWith("world raft 3"), probes: []string{"raft_expect_leader among",
			"raft_expect_committed 1 min", "expect r1 elected count"}},
	}
	builtin := map[string]bool{}
	for _, name := range script.New().CommandNames() {
		builtin[name] = true
	}
	var b strings.Builder
	for _, set := range sets {
		probes := set.probes
		if probes == nil {
			for _, name := range set.build().CommandNames() {
				if set.name == "script" || !builtin[name] {
					probes = append(probes, name)
				}
			}
			sort.Strings(probes)
		}
		fmt.Fprintf(&b, "== %s\n", set.name)
		for _, prefix := range probes {
			from, last := 0, probeArity(set.build(), prefix, 0)
			for n := 1; n <= maxProbeArgs+1; n++ {
				got := ""
				if n <= maxProbeArgs {
					got = probeArity(set.build(), prefix, n)
				}
				if got == last {
					continue
				}
				span := fmt.Sprint(from)
				if n-1 > from {
					span = fmt.Sprintf("%d-%d", from, n-1)
				}
				fmt.Fprintf(&b, "%s %s %s\n", prefix, span, last)
				from, last = n, got
			}
		}
	}
	path := filepath.Join("testdata", "arity.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if b.String() != string(want) {
		t.Errorf("arity golden differs; got:\n%s", b.String())
	}
}
