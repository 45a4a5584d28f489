// Package fault is the failure-model library from Section 2.2 of the paper.
//
// Each Model describes one way a protocol participant may deviate from its
// specification: crash, link crash, send/receive/general omission, timing,
// or arbitrary (byzantine) behaviour. Each Kind is one per-message
// manipulation a PFI filter performs (Section 2.1) — drop, delay, corrupt,
// … — and carries the model it realizes in each direction, the range its
// parameter is drawn from, and the filter-script snippet that injects it.
// The campaign matrix and the fault-schedule fuzzer both draw from this one
// table, so "testing a different failure scenario is accomplished simply by
// invoking different scripts".
//
// Models are ordered by severity: a protocol implementation that tolerates
// failures of a more severe model also tolerates the less severe ones
// (the faulty behaviours of the weaker model are a subset of the stronger).
package fault

import (
	"fmt"
	"strings"
	"time"

	"pfi/internal/core"
)

// Model enumerates the failure models of Section 2.2, in increasing order
// of severity.
type Model int

const (
	// ProcessCrash halts a process prematurely; it behaves correctly until
	// then and does nothing afterwards.
	ProcessCrash Model = iota + 1
	// LinkCrash makes a link lose all messages from some point on, without
	// delaying, duplicating, or corrupting anything before that.
	LinkCrash
	// SendOmission makes a process intermittently omit sending messages.
	SendOmission
	// ReceiveOmission makes a process intermittently omit receiving
	// messages that were sent to it.
	ReceiveOmission
	// GeneralOmission combines send and receive omission.
	GeneralOmission
	// Timing makes a process or link violate its timing specification:
	// a message arrives too late, or overtakes one sent before it.
	Timing
	// Byzantine allows arbitrary behaviour: corrupted content and
	// messages the sender never sent, whether forged or duplicated.
	Byzantine
)

var modelNames = map[Model]string{
	ProcessCrash:    "process-crash",
	LinkCrash:       "link-crash",
	SendOmission:    "send-omission",
	ReceiveOmission: "receive-omission",
	GeneralOmission: "general-omission",
	Timing:          "timing",
	Byzantine:       "byzantine",
}

// String implements fmt.Stringer.
func (m Model) String() string {
	if s, ok := modelNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// Severity returns the model's rank in the paper's ordering (higher is
// more severe).
func (m Model) Severity() int { return int(m) }

// Covers reports whether tolerating failures of model m implies tolerating
// failures of model other — i.e. other's faulty behaviours are a subset of
// m's. The paper presents the models in a total severity order.
func (m Model) Covers(other Model) bool {
	return ProcessCrash <= other && other.Severity() <= m.Severity() && m <= Byzantine
}

// Models returns all defined models in severity order.
func Models() []Model {
	return []Model{
		ProcessCrash, LinkCrash, SendOmission, ReceiveOmission,
		GeneralOmission, Timing, Byzantine,
	}
}

// Kind is one per-message fault a filter injects. The values are stable:
// fuzz genes print them as numbers.
type Kind int

const (
	// Drop discards every matching message.
	Drop Kind = iota + 1
	// DropFirstN discards only the first N matching messages, then passes.
	DropFirstN
	// Delay holds every matching message for a fixed interval.
	Delay
	// Duplicate forwards one extra copy of every matching message.
	Duplicate
	// Corrupt flips one byte of every matching message.
	Corrupt
	// Reorder holds pairs of matching messages and releases them swapped.
	Reorder
)

// kind is one row of the fault table. Rows are positional literals, so a
// row that leaves out a field — its model, say — does not compile.
type kind struct {
	name string
	// send and recv are the model the fault realizes in each direction.
	send, recv Model
	// A drawn parameter is base + step*Intn(n); n == 0 draws nothing and
	// the parameter is base. base is also the floor a shrink stops at.
	base, step, n int
	// render writes the snippet; see Kind.Snippet.
	render func(guard string, param int, suffix string) string
}

// kinds is the fault table, indexed by Kind; row 0 stands for every
// undefined kind.
//
// Duplicate is byzantine, not an omission or timing fault: the second copy
// is a message its sender never sent. A protocol that tolerates omission
// and timing faults alone may rightly be broken by it.
var kinds = [...]kind{
	Drop: {"drop", SendOmission, ReceiveOmission, 0, 0, 0, func(guard string, _ int, _ string) string {
		return fmt.Sprintf("if {%s} { xDrop cur_msg }\n", guard)
	}},
	DropFirstN: {"drop-first-n", SendOmission, ReceiveOmission, 1, 1, 5, func(guard string, n int, suffix string) string {
		v := "dropped" + suffix
		return fmt.Sprintf(`if {%s} {
	if {![info exists %s]} { set %s 0 }
	if {$%s < %d} {
		incr %s
		xDrop cur_msg
	}
}
`, guard, v, v, v, n, v)
	}},
	Delay: {"delay", Timing, Timing, 500, 500, 12, func(guard string, ms int, _ string) string {
		return fmt.Sprintf("if {%s} { xDelay cur_msg %d }\n", guard, ms)
	}},
	Duplicate: {"duplicate", Byzantine, Byzantine, 0, 0, 0, func(guard string, _ int, _ string) string {
		return fmt.Sprintf("if {%s} { xDuplicate cur_msg 1 }\n", guard)
	}},
	Corrupt: {"corrupt", Byzantine, Byzantine, 0, 1, 64, func(guard string, off int, _ string) string {
		return fmt.Sprintf(`if {%s} {
	if {[msg_len cur_msg] > %d} {
		msg_set_byte cur_msg %d [expr {[msg_byte cur_msg %d] ^ 0xFF}]
	}
}
`, guard, off, off, off)
	}},
	Reorder: {"reorder", Timing, Timing, 0, 0, 0, func(guard string, _ int, _ string) string {
		return fmt.Sprintf(`if {%s} {
	xHold cur_msg
	if {[held_count] >= 2} { xReleaseLIFO }
}
`, guard)
	}},
}

// Kinds returns every fault kind in table order.
func Kinds() []Kind {
	ks := make([]Kind, len(kinds)-1)
	for i := range ks {
		ks[i] = Kind(i + 1)
	}
	return ks
}

// row returns k's table row: row 0, all zero, for an undefined kind.
func (k Kind) row() *kind {
	if k < Drop || int(k) >= len(kinds) {
		return &kinds[0]
	}
	return &kinds[k]
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if r := k.row(); r.render != nil {
		return r.name
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Model returns the failure model k realizes when injected by the filter
// of direction dir, or 0 for an undefined kind.
func (k Kind) Model(dir core.Direction) Model {
	if dir == core.Receive {
		return k.row().recv
	}
	return k.row().send
}

// Draw returns a random parameter for k — the delay in milliseconds, the
// number of messages to drop, the byte offset to corrupt — making one
// rng.Intn call, or none for a kind without a parameter.
func (k Kind) Draw(rng interface{ Intn(int) int }) int {
	r := k.row()
	if r.n == 0 {
		return r.base
	}
	return r.base + r.step*rng.Intn(r.n)
}

// Floor is the smallest meaningful parameter of k, where a shrink stops.
func (k Kind) Floor() int { return k.row().base }

// Snippet renders the filter-script fragment that injects k whenever guard
// (a Tcl expr condition, such as Guard renders) holds for the current
// message. param is the kind's parameter (ignored by kinds without one).
// suffix disambiguates the filter-global state variables (the DropFirstN
// counter) when several snippets compose into one script; it must be a
// bare identifier fragment, and empty is fine for a lone snippet.
func (k Kind) Snippet(guard string, param int, suffix string) (string, error) {
	r := k.row()
	if r.render == nil {
		return "", fmt.Errorf("fault: unknown fault kind %v", k)
	}
	return r.render(guard, param, suffix), nil
}

// Guard renders a fault's activation condition — time window, message-type
// glob, per-message probability — as a Tcl expression; a fault acts only
// when it is true. The fuzzer's fault genes guard their kind's snippet with
// it. Zero start or dur leaves that side of the window open, an empty
// typeGlob matches every type, and prob outside (0,1) means every message.
func Guard(start, dur time.Duration, typeGlob string, prob float64) string {
	var conds []string
	if start > 0 {
		conds = append(conds, fmt.Sprintf("[now] >= %d", start.Milliseconds()))
	}
	if dur > 0 {
		conds = append(conds, fmt.Sprintf("[now] < %d", (start+dur).Milliseconds()))
	}
	if typeGlob != "" {
		conds = append(conds, fmt.Sprintf("[string match {%s} [msg_type cur_msg]]", typeGlob))
	}
	if prob > 0 && prob < 1 {
		conds = append(conds, fmt.Sprintf("[coin %g]", prob))
	}
	if len(conds) == 0 {
		return "1"
	}
	return strings.Join(conds, " && ")
}
