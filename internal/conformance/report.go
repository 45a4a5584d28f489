package conformance

import (
	"embed"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"pfi/internal/simtime"
	"pfi/internal/tcp"
	"pfi/internal/trace"
)

// shipped holds the scenarios under testdata, the paper's experiments among
// them, so the commands that render the paper's tables need no files on
// disk.
//
//go:embed testdata/*.pfi
var shipped embed.FS

// Shipped returns the shipped scenario name (testdata/<name>.pfi).
func Shipped(name string) (*Scenario, error) {
	src, err := shipped.ReadFile("testdata/" + name + Ext)
	if err != nil {
		return nil, fmt.Errorf("conformance: no shipped scenario %q", name)
	}
	return New(name, string(src)), nil
}

// Table is a rendered experiment table in the paper's row/column style.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "%s\n", t.Title)
	var sep strings.Builder
	for i, c := range t.Columns {
		fmt.Fprintf(w, "| %-*s ", widths[i], c)
		sep.WriteString("|")
		sep.WriteString(strings.Repeat("-", widths[i]+2))
	}
	fmt.Fprintf(w, "|\n%s|\n", sep.String())
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(w, "| %-*s ", widths[i], cell)
		}
		fmt.Fprintln(w, "|")
	}
	fmt.Fprintln(w)
}

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func durS(d time.Duration) string {
	return fmt.Sprintf("%.2fs", d.Seconds())
}

// bound renders a backoff's upper bound, Tables 1 and 2's last timing
// column.
func bound(b trace.BackoffReport) string {
	if b.PlateauReached {
		return durS(b.Plateau)
	}
	return "none established"
}

// RunShipped replays the shipped scenario name under prof, its variant
// picked by prelude: script lines that set the variables the scenario
// otherwise defaults ("set delay 3000\n"). A scenario error or a contained
// run (either sets Result.Err) is an error. A failed verdict is not: a
// buggy variant is meant to break the fixed protocol's expects.
func RunShipped(name, prelude string, prof tcp.Profile) (*Result, error) {
	sc, err := Shipped(name)
	if err != nil {
		return nil, err
	}
	r := Run(New(name, prelude+sc.Source), Options{Profile: prof})
	if r.Err != nil {
		return nil, fmt.Errorf("%w (prelude %q, profile %s)", r.Err, prelude, r.Profile)
	}
	return r, nil
}

// events returns the entries of node, kind and type ("" matches any).
func (r *Result) events(node, kind, typ string) []trace.Entry {
	var out []trace.Entry
	for i := range r.Trace {
		if r.Trace[i].Matches(node, kind, typ) {
			out = append(out, r.Trace[i])
		}
	}
	return out
}

// Times returns when each entry of node, kind and type ("" matches any)
// was logged.
func (r *Result) Times(node, kind, typ string) []simtime.Time {
	es := r.events(node, kind, typ)
	ts := make([]simtime.Time, len(es))
	for i, e := range es {
		ts[i] = e.At
	}
	return ts
}

// probeValue reports whether e is a `log probe key value` line, and its
// value. Probes carry the world state a table needs and the trace does
// not: a group view, a connection state, a timer count.
func probeValue(e trace.Entry, key string) (string, bool) {
	if e.Node != "driver" || e.Kind != "scenario" {
		return "", false
	}
	rest, ok := strings.CutPrefix(e.Note, "probe "+key)
	if !ok || rest != "" && rest[0] != ' ' {
		return "", false
	}
	return strings.TrimPrefix(rest, " "), true
}

// probes returns the values of every probe of key, in order.
func (r *Result) probes(key string) []string {
	var out []string
	for _, e := range r.Trace {
		if v, ok := probeValue(e, key); ok {
			out = append(out, v)
		}
	}
	return out
}

// probe returns the last probe of key: its index in the trace, or -1, and
// its value.
func (r *Result) probe(key string) (int, string) {
	for i := len(r.Trace) - 1; i >= 0; i-- {
		if v, ok := probeValue(r.Trace[i], key); ok {
			return i, v
		}
	}
	return -1, ""
}

// ProbeAt returns when the last probe of key was written.
func (r *Result) ProbeAt(key string) simtime.Time {
	if i, _ := r.probe(key); i >= 0 {
		return r.Trace[i].At
	}
	return 0
}

// Table1 runs Experiment 1 for every vendor profile and renders Table 1.
func Table1(w io.Writer) error {
	t := &Table{
		Title:   "Table 1: TCP Retransmission Timeout Results",
		Columns: []string{"Implementation", "Retransmissions", "First gap", "Exponential", "Upper bound", "RST sent", "Conn closed"},
	}
	for _, prof := range tcp.Profiles() {
		x, err := RunShipped("tcp_retransmission", "", prof)
		if err != nil {
			return err
		}
		rtx := x.Times("vendor", "retransmit", "DATA")
		b := trace.AnalyzeBackoff(rtx, 0.25)
		t.Rows = append(t.Rows, []string{
			prof.Name,
			strconv.Itoa(len(rtx)),
			durS(b.First),
			yesno(b.Exponential),
			bound(b),
			yesno(len(x.events("vendor", "reset", "")) > 0),
			yesno(len(x.events("vendor", "closed", "")) > 0),
		})
	}
	t.Write(w)
	return nil
}

// delayedACK runs Experiment 2 at the given ACK delay and returns the
// retransmissions of the measured segment, sent at the blackout's start,
// with the gap before the first: the adapted RTO.
func delayedACK(prof tcp.Profile, delay time.Duration) (x *Result, rtx []simtime.Time, first time.Duration, err error) {
	x, err = RunShipped("tcp_delayed_ack", fmt.Sprintf("set delay %d\n", delay.Milliseconds()), prof)
	if err != nil {
		return nil, nil, 0, err
	}
	t0 := x.ProbeAt("t0")
	for _, at := range x.Times("vendor", "retransmit", "DATA") {
		if at >= t0 {
			rtx = append(rtx, at)
		}
	}
	if len(rtx) > 0 {
		first = rtx[0].Sub(t0)
	}
	return x, rtx, first, nil
}

// Table2 runs Experiment 2 for every vendor at the given ACK delay and
// renders the Table 2 rows.
func Table2(w io.Writer, delay time.Duration) error {
	t := &Table{
		Title:   fmt.Sprintf("Table 2: TCP Retransmission Timeouts with %v Delayed ACKs", delay),
		Columns: []string{"Implementation", "First RTO", "Adapted (> delay)", "Retransmissions", "Upper bound", "Conn closed"},
	}
	for _, prof := range tcp.Profiles() {
		x, rtx, first, err := delayedACK(prof, delay)
		if err != nil {
			return err
		}
		t.Rows = append(t.Rows, []string{
			prof.Name,
			durS(first),
			yesno(first > delay),
			strconv.Itoa(len(rtx)),
			bound(trace.AnalyzeBackoff(rtx, 0.25)),
			yesno(len(x.events("vendor", "closed", "")) > 0),
		})
	}
	t.Write(w)
	return nil
}

// GlobalCounter renders the Solaris global-error-counter probe alongside a
// BSD control.
func GlobalCounter(w io.Writer) error {
	t := &Table{
		Title:   "Experiment 2 variation: global error counter probe (35 s delayed ACK of m1)",
		Columns: []string{"Implementation", "m1 retransmissions", "m2 retransmissions", "Total", "Conn closed"},
	}
	for _, prof := range []tcp.Profile{tcp.Solaris23(), tcp.SunOS413()} {
		x, err := RunShipped("tcp_global_counter", "", prof)
		if err != nil {
			return err
		}
		// m1's retransmissions are those logged from its send until m2's;
		// m2's, every one from m2's send on.
		i2, _ := x.probe("m2")
		m1At, m2At := x.ProbeAt("m1"), x.ProbeAt("m2")
		m1, m2 := 0, 0
		for i, e := range x.Trace {
			if e.Node != "vendor" || e.Kind != "retransmit" || e.Type != "DATA" {
				continue
			}
			if i < i2 && e.At >= m1At {
				m1++
			}
			if e.At >= m2At {
				m2++
			}
		}
		t.Rows = append(t.Rows, []string{
			prof.Name,
			strconv.Itoa(m1),
			strconv.Itoa(m2),
			strconv.Itoa(m1 + m2),
			yesno(len(x.events("vendor", "closed", "")) > 0),
		})
	}
	t.Write(w)
	return nil
}

// Figure4 renders the retransmission-timeout series (gap per retransmission
// number) for the no-delay, 3 s, and 8 s cases — the paper's Figure 4.
func Figure4(w io.Writer, prof tcp.Profile) error {
	fmt.Fprintf(w, "Figure 4: Retransmission timeout values — %s\n", prof.Name)
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "rtx#", "no delay", "3s delay", "8s delay")
	var series [3][]time.Duration
	rows := 0
	for i, delay := range []time.Duration{0, 3 * time.Second, 8 * time.Second} {
		_, rtx, first, err := delayedACK(prof, delay)
		if err != nil {
			return err
		}
		series[i] = append([]time.Duration{first}, trace.AnalyzeBackoff(rtx, 0.25).Gaps...)
		rows = max(rows, len(series[i]))
	}
	for i := 0; i < rows; i++ {
		cells := [3]string{"-", "-", "-"}
		for j := range series {
			if i < len(series[j]) {
				cells[j] = durS(series[j][i])
			}
		}
		fmt.Fprintf(w, "%-6d %12s %12s %12s\n", i+1, cells[0], cells[1], cells[2])
	}
	fmt.Fprintln(w)
	return nil
}

// Table3 runs Experiment 3 and renders Table 3.
func Table3(w io.Writer) error {
	t := &Table{
		Title:   "Table 3: TCP Keep-alive Results (probes dropped)",
		Columns: []string{"Implementation", "First probe", "Probes", "Spacing", "RST sent", "Conn closed", "Garbage byte"},
	}
	for _, prof := range tcp.Profiles() {
		x, err := RunShipped("tcp_keepalive", "", prof)
		if err != nil {
			return err
		}
		kas := x.events("vendor", "keepalive", "")
		var first time.Duration
		garbage := false
		if len(kas) > 0 {
			first = time.Duration(kas[0].At)
			garbage = strings.Contains(kas[0].Note, "len=1")
		}
		// Probes are spaced at a fixed retry interval (BSD's 75 s) or back
		// off exponentially (Solaris).
		gaps := trace.Intervals(x.Times("vendor", "keepalive", ""))
		fixed, backoff := len(gaps) > 1, len(gaps) > 1
		for i, g := range gaps {
			fixed = fixed && g == gaps[0]
			backoff = backoff && (i == 0 || g >= gaps[i-1]*3/2)
		}
		spacing := "n/a"
		switch {
		case fixed:
			spacing = "fixed " + durS(gaps[0])
		case backoff:
			spacing = "exponential backoff"
		}
		t.Rows = append(t.Rows, []string{
			prof.Name,
			durS(first),
			strconv.Itoa(len(kas)),
			spacing,
			yesno(len(x.events("vendor", "reset", "")) > 0),
			yesno(len(x.events("vendor", "closed", "")) > 0),
			yesno(garbage),
		})
	}
	t.Write(w)
	return nil
}

// Table4 runs Experiment 4 and renders Table 4.
func Table4(w io.Writer) error {
	t := &Table{
		Title:   "Table 4: TCP Zero Window Probe Results",
		Columns: []string{"Implementation", "Variant", "Probe interval", "Still probing", "Conn open", "Probes"},
	}
	variants := []struct{ window, name string }{
		{"acked", "probes acked"},
		{"dropped", "probes dropped 90 min"},
		{"unplugged", "ethernet unplugged 2 days"},
	}
	for _, prof := range tcp.Profiles() {
		for _, v := range variants {
			x, err := RunShipped("tcp_zero_window", "set window "+v.window+"\n", prof)
			if err != nil {
				return err
			}
			zwps := x.Times("vendor", "zwp", "")
			var steady time.Duration
			if gaps := trace.Intervals(zwps); len(gaps) > 0 {
				steady = gaps[len(gaps)-1]
			}
			still := len(zwps) > 0 && x.Elapsed.Sub(zwps[len(zwps)-1]) <= 2*prof.ZWPMax
			_, state := x.probe("tcp_state")
			t.Rows = append(t.Rows, []string{
				prof.Name,
				v.name,
				durS(steady),
				yesno(still),
				yesno(state == tcp.StateEstablished.String()),
				strconv.Itoa(len(zwps)),
			})
		}
	}
	t.Write(w)
	return nil
}

// Reorder runs Experiment 5 and renders its findings.
func Reorder(w io.Writer) error {
	t := &Table{
		Title:   "Experiment 5: Reordering of messages",
		Columns: []string{"Implementation", "OOO segment queued", "Both delivered", "In order"},
	}
	for _, prof := range tcp.Profiles() {
		x, err := RunShipped("tcp_reorder", "", prof)
		if err != nil {
			return err
		}
		// recv_len is probed before the delayed segment lands and at the end.
		recv := x.probes("recv_len")
		_, sent := x.probe("sent_len")
		_, matches := x.probe("recv_matches")
		both := len(recv) > 0 && recv[len(recv)-1] == sent
		t.Rows = append(t.Rows, []string{
			prof.Name,
			yesno(len(recv) > 0 && recv[0] == "0"),
			yesno(both),
			yesno(both && matches == "1"),
		})
	}
	t.Write(w)
	return nil
}

// viewHas reports whether the group view probed as key holds member.
func (r *Result) viewHas(key, member string) bool {
	_, v := r.probe(key)
	return slices.Contains(strings.Fields(v), member)
}

// gmpExperiment runs a GMP scenario, its daemons built with bugs.
func gmpExperiment(name, bugs string) (*Result, error) {
	prelude := ""
	if bugs != "" {
		prelude = "set bugs " + bugs + "\n"
	}
	return RunShipped(name, prelude, tcp.Profile{})
}

// Table5 runs the GMP packet interruption experiments and renders Table 5.
func Table5(w io.Writer) error {
	t := &Table{
		Title:   "Table 5: GMP Packet Interruption",
		Columns: []string{"Test", "Code", "Observation"},
	}
	const victim = "compsun3"
	for _, row := range []struct{ test, scenario, bugs string }{
		{"drop all heartbeats", "gmp_heartbeat_blackout", "self-death"},
		{"drop all heartbeats", "gmp_heartbeat_blackout", ""},
		{"suspend gmd", "gmp_suspend", "self-death"},
		{"drop outbound heartbeats", "gmp_outbound_heartbeats", ""},
		{"drop MEMBERSHIP_CHANGE ACKs", "gmp_drop_acks", ""},
		{"drop COMMITs", "gmp_drop_commits", ""},
	} {
		x, err := gmpExperiment(row.scenario, row.bugs)
		if err != nil {
			return err
		}
		// The victim's commits since the fault began, and whether each
		// left it alone in its view.
		var alone []bool
		t0 := x.ProbeAt("t0")
		for _, e := range x.events(victim, "commit", "") {
			if e.At >= t0 {
				alone = append(alone, strings.Contains(e.Note, "{"+victim+"}"))
			}
		}
		var obs string
		switch row.scenario {
		case "gmp_heartbeat_blackout", "gmp_suspend":
			_, dead := x.probe("declared_dead")
			switch {
			case dead == "1":
				obs = "gmd believes it has died; stays in group, broadcasts bad info"
			case slices.Contains(alone, true):
				obs = "self-death detected; singleton group formed (as specified)"
			default:
				obs = "no self-death observed"
			}
		case "gmp_outbound_heartbeats":
			readmitted := 0
			for i := 1; i < len(alone); i++ {
				if alone[i-1] && !alone[i] {
					readmitted++
				}
			}
			obs = fmt.Sprintf("kicked out and readmitted %d times (as specified)", readmitted)
		case "gmp_drop_acks":
			admitted := false
			for _, e := range x.events(victim, "commit", "") {
				admitted = admitted || strings.Contains(e.Note, "compsun1")
			}
			obs = fmt.Sprintf("never admitted to a group (admitted=%v, in leader view=%v)",
				admitted, x.viewHas("view/compsun1", victim))
		case "gmp_drop_commits":
			obs = fmt.Sprintf("stayed IN_TRANSITION, committed by others then kicked (in leader view=%v)",
				x.viewHas("view/compsun1", victim))
		}
		code := "fixed"
		if row.bugs != "" {
			code = "buggy"
		}
		t.Rows = append(t.Rows, []string{row.test, code, obs})
	}
	t.Write(w)
	return nil
}

// Table6 runs the partition experiments and renders Table 6.
func Table6(w io.Writer) error {
	t := &Table{
		Title:   "Table 6: Network Partition Experiment",
		Columns: []string{"Test", "Observation"},
	}
	nodes := []string{"compsun1", "compsun2", "compsun3", "compsun4", "compsun5"}
	all := strings.Join(nodes, " ")

	x, err := RunShipped("gmp_partition_heal", "set cycles 2\n", tcp.Profile{})
	if err != nil {
		return err
	}
	// Each cycle probes both sides' views after the split and every view
	// after the heal.
	a, b := x.probes("split/compsun1"), x.probes("split/compsun4")
	formed := len(a) > 0 && len(a) == len(b)
	for i := range a {
		formed = formed && a[i] == "compsun1 compsun2 compsun3" && b[i] == "compsun4 compsun5"
	}
	merged := true
	for _, n := range nodes {
		for _, v := range x.probes("healed/" + n) {
			merged = merged && v == all
		}
	}
	var a0, b0 []string
	if len(a) > 0 && len(b) > 0 {
		a0, b0 = strings.Fields(a[0]), strings.Fields(b[0])
	}
	t.Rows = append(t.Rows, []string{
		"partition into two groups",
		fmt.Sprintf("disjoint groups %v/%v formed=%v, merged after heal=%v, cycles=%d", a0, b0, formed, merged, len(a)),
	})

	if x, err = gmpExperiment("gmp_crown_prince", ""); err != nil {
		return err
	}
	others := true
	for _, n := range []string{"compsun1", "compsun3", "compsun4", "compsun5"} {
		_, v := x.probe("view/" + n)
		others = others && v == "compsun1 compsun3 compsun4 compsun5"
	}
	_, prince := x.probe("view/compsun2")
	_, leader := x.probe("view/compsun1")
	t.Rows = append(t.Rows, []string{
		"leader/crown prince separation",
		fmt.Sprintf("crown prince isolated=%v, others with original leader=%v (final view %v)",
			prince == "compsun2", others, strings.Fields(leader)),
	})
	t.Write(w)
	return nil
}

// Table7 runs the proclaim-forwarding experiment and renders Table 7.
func Table7(w io.Writer) error {
	t := &Table{
		Title:   "Table 7: Proclaim Forwarding Experiment",
		Columns: []string{"Code", "Observation"},
	}
	for _, bugs := range []string{"proclaim-forward", ""} {
		x, err := gmpExperiment("gmp_proclaim", bugs)
		if err != nil {
			return err
		}
		// The loop's signature: the leader answering the forwarder again
		// and again, not the originator.
		loops, replied := 0, false
		for _, e := range x.events("compsun1", "proclaim-respond", "") {
			if strings.Contains(e.Note, "buggy") {
				loops++
			}
			replied = replied || strings.Contains(e.Note, "to compsun3")
		}
		admitted := x.viewHas("view/compsun1", "compsun3") && x.viewHas("view/compsun3", "compsun1")
		row := []string{"fixed", fmt.Sprintf("leader replies to originator=%v, victim admitted=%v", replied, admitted)}
		if bugs != "" {
			row = []string{"buggy", fmt.Sprintf("proclaim loop between leader and forwarder (%d rounds), victim admitted=%v", loops, admitted)}
		}
		t.Rows = append(t.Rows, row)
	}
	t.Write(w)
	return nil
}

// Table8 runs the timer experiment and renders Table 8.
func Table8(w io.Writer) error {
	t := &Table{
		Title:   "Table 8: GMP Timer Test",
		Columns: []string{"Code", "Observation"},
	}
	for _, bugs := range []string{"timer-unset", ""} {
		x, err := gmpExperiment("gmp_timer", bugs)
		if err != nil {
			return err
		}
		armed := 0
		for _, v := range x.probes("armed") {
			n, _ := strconv.Atoi(v)
			armed = max(armed, n)
		}
		code := "fixed"
		if bugs != "" {
			code = "buggy"
		}
		t.Rows = append(t.Rows, []string{
			code,
			fmt.Sprintf("stray hb-expect timers in IN_TRANSITION=%d, stray timeouts fired=%d",
				armed, len(x.events("compsun2", "hb-timeout-in-transition", ""))),
		})
	}
	t.Write(w)
	return nil
}
