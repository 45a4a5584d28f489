// Package fault is the failure-model library from Section 2.2 of the paper.
//
// Each Model describes one way a protocol participant may deviate from its
// specification: crash, link crash, send/receive/general omission, timing,
// or arbitrary (byzantine) behaviour. A Plan parameterizes a model and
// compiles it into PFI filter scripts, so "testing a different failure
// scenario is accomplished simply by invoking different scripts".
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
	// Timing makes a process or link violate its timing specification
	// (too slow or too fast).
	Timing
	// Byzantine allows arbitrary behaviour: spurious messages, corruption,
	// duplication, and reordering.
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

// Valid reports whether m is a defined model.
func (m Model) Valid() bool { return m >= ProcessCrash && m <= Byzantine }

// Severity returns the model's rank in the paper's ordering (higher is
// more severe).
func (m Model) Severity() int { return int(m) }

// Covers reports whether tolerating failures of model m implies tolerating
// failures of model other — i.e. other's faulty behaviours are a subset of
// m's. The paper presents the models in a total severity order.
func (m Model) Covers(other Model) bool {
	return m.Valid() && other.Valid() && m.Severity() >= other.Severity()
}

// Plan parameterizes a failure model for injection into one PFI layer.
// The zero value of each field means "use the model's default".
type Plan struct {
	// Model selects the failure model. Required.
	Model Model

	// Prob is the per-message fault probability for omission and byzantine
	// models. Defaults to 1 (every message).
	Prob float64

	// Start delays activation: the participant behaves correctly until
	// this much virtual time has elapsed (measured by the `now` command).
	// This is what makes crash failures "correct until they halt".
	Start time.Duration

	// Duration bounds the faulty period (0 = forever). Omission and timing
	// faults stop after Start+Duration; crashes never recover.
	Duration time.Duration

	// TypeGlob restricts the fault to message types matching this Tcl glob
	// pattern (empty = all messages).
	TypeGlob string

	// MeanDelay/DelayVariance parameterize timing failures (milliseconds).
	MeanDelay     time.Duration
	DelayVariance time.Duration

	// Corrupt, Duplicate, Reorder enable the byzantine sub-behaviours
	// (corruption flips a byte, duplication forwards an extra copy,
	// reordering holds then LIFO-releases pairs). At least one must be set
	// for Byzantine plans; all default to corruption-only when none are.
	Corrupt   bool
	Duplicate bool
	Reorder   bool
}

// Validate checks the plan's parameters.
func (p Plan) Validate() error {
	if !p.Model.Valid() {
		return fmt.Errorf("fault: invalid model %v", p.Model)
	}
	if p.Prob < 0 || p.Prob > 1 {
		return fmt.Errorf("fault: probability %v out of [0,1]", p.Prob)
	}
	if p.Start < 0 || p.Duration < 0 || p.MeanDelay < 0 || p.DelayVariance < 0 {
		return fmt.Errorf("fault: negative duration parameter")
	}
	if p.Model == Timing && p.MeanDelay == 0 {
		return fmt.Errorf("fault: timing failure needs MeanDelay")
	}
	return nil
}

// Guard renders a fault's activation condition — time window, message-type
// glob, per-message probability — as a Tcl expression; a fault acts only
// when it is true. It is the one renderer of this vocabulary: Plan.Scripts
// and the fuzzer's fault genes both go through it. Zero start or dur leaves
// that side of the window open, an empty typeGlob matches every type, and
// prob outside (0,1) means every message.
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

// Scripts compiles the plan into (sendScript, receiveScript) Tcl sources.
// An empty script means "leave that filter alone".
func (p Plan) Scripts() (send, recv string, err error) {
	if err := p.Validate(); err != nil {
		return "", "", err
	}
	guard := Guard(p.Start, p.Duration, p.TypeGlob, p.Prob)
	drop := fmt.Sprintf("if {%s} { xDrop cur_msg }\n", guard)
	switch p.Model {
	case ProcessCrash:
		// A crashed process neither sends nor receives. Crashes never
		// recover, so Duration is ignored.
		crashDrop := fmt.Sprintf("if {%s} { xDrop cur_msg }\n", Guard(p.Start, 0, p.TypeGlob, p.Prob))
		return crashDrop, crashDrop, nil
	case LinkCrash:
		// The link loses messages in transit: model at the sender's wire
		// side. Like a crash, a dead link stays dead unless Duration says
		// otherwise (an operator replacing the cable).
		return drop, "", nil
	case SendOmission:
		return drop, "", nil
	case ReceiveOmission:
		return "", drop, nil
	case GeneralOmission:
		return drop, drop, nil
	case Timing:
		delay := fmt.Sprintf(
			"if {%s} { xDelay cur_msg [expr {abs([dst_normal %d %d])}] }\n",
			guard, p.MeanDelay.Milliseconds(), p.DelayVariance.Milliseconds())
		return delay, delay, nil
	case Byzantine:
		byz := p.byzantineScript(guard)
		return byz, byz, nil
	default:
		return "", "", fmt.Errorf("fault: unhandled model %v", p.Model)
	}
}

func (p Plan) byzantineScript(guard string) string {
	corrupt, duplicate, reorder := p.Corrupt, p.Duplicate, p.Reorder
	if !corrupt && !duplicate && !reorder {
		corrupt = true
	}
	var b strings.Builder
	fmt.Fprintf(&b, "if {%s} {\n", guard)
	var arms []string
	if corrupt {
		arms = append(arms, `
		set len [msg_len cur_msg]
		if {$len > 0} {
			msg_set_byte cur_msg [rand_int $len] [rand_int 256]
		}`)
	}
	if duplicate {
		arms = append(arms, `
		xDuplicate cur_msg 1`)
	}
	if reorder {
		arms = append(arms, `
		xHold cur_msg
		if {[held_count] >= 2} { xReleaseLIFO }`)
	}
	// Pick one arm per message, uniformly.
	fmt.Fprintf(&b, "\tswitch [rand_int %d] {\n", len(arms))
	for i, arm := range arms {
		fmt.Fprintf(&b, "\t%d {%s\n\t}\n", i, arm)
	}
	b.WriteString("\t}\n}\n")
	return b.String()
}

// Apply compiles the plan and installs the scripts on the PFI layer.
// Filters whose script would be empty are left untouched, so plans for
// different directions compose on one layer.
func (p Plan) Apply(l *core.Layer) error {
	send, recv, err := p.Scripts()
	if err != nil {
		return err
	}
	if send != "" {
		if err := l.SetSendScript(send); err != nil {
			return fmt.Errorf("fault: %v send script: %w", p.Model, err)
		}
	}
	if recv != "" {
		if err := l.SetReceiveScript(recv); err != nil {
			return fmt.Errorf("fault: %v receive script: %w", p.Model, err)
		}
	}
	return nil
}

// Models returns all defined models in severity order.
func Models() []Model {
	return []Model{
		ProcessCrash, LinkCrash, SendOmission, ReceiveOmission,
		GeneralOmission, Timing, Byzantine,
	}
}
