// Package gmp implements the strong group membership protocol the paper's
// Section 4.2 tests: a group of daemons with a unique leader (lowest id),
// heartbeat failure detection, PROCLAIM/JOIN solicitation, and a two-phase
// MEMBERSHIP_CHANGE/ACK/COMMIT agreement that makes all members see
// membership changes in the same order.
//
// The paper's subject was a student implementation containing three real
// bugs that the PFI experiments uncovered. All three are reproduced behind
// options so each experiment can demonstrate the discovery and the fix:
//
//   - WithSelfDeathBug: a daemon that stops hearing its own heartbeats
//     announces its own death instead of forming a singleton group, and its
//     proclaim-forwarding path silently loses packets (a parameter-passing
//     bug in the original).
//   - WithProclaimForwardBug: the leader answers a forwarded PROCLAIM's
//     sender instead of its originator, creating the proclaim loop of
//     Experiment 3.
//   - WithTimerUnsetBug: the timeout-unregistration logic is inverted
//     (NULL unregisters one instead of all), so entering IN_TRANSITION
//     leaves stray heartbeat-expect timers armed — Experiment 4's finding.
package gmp

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"pfi/internal/message"
)

// Message types.
const (
	TypeHeartbeat  = 1
	TypeProclaim   = 2
	TypeJoin       = 3
	TypeMembership = 4 // MEMBERSHIP_CHANGE, phase 1
	TypeAck        = 5
	TypeNak        = 6
	TypeCommit     = 7 // phase 2
	TypeDeadReport = 8
	TypeDepart     = 9 // graceful leave (scheduled maintenance)
)

// typeNames is the one name<->id table: TypeName and decodeMsg index it,
// the stub's Generate searches it, so every type that can be recognized
// can be generated.
var typeNames = [...]string{
	TypeHeartbeat:  "HEARTBEAT",
	TypeProclaim:   "PROCLAIM",
	TypeJoin:       "JOIN",
	TypeMembership: "MEMBERSHIP_CHANGE",
	TypeAck:        "ACK",
	TypeNak:        "NAK",
	TypeCommit:     "COMMIT",
	TypeDeadReport: "DEAD_REPORT",
	TypeDepart:     "DEPART",
}

// TypeName renders a message type constant.
func TypeName(t uint8) string {
	if int(t) < len(typeNames) && typeNames[t] != "" {
		return typeNames[t]
	}
	return fmt.Sprintf("TYPE(%d)", t)
}

// typeID is TypeName's inverse; it reports false for an unknown name.
func typeID(name string) (uint8, bool) {
	for id, n := range typeNames {
		if n != "" && n == name {
			return uint8(id), true
		}
	}
	return 0, false
}

// Msg is one GMP protocol message.
type Msg struct {
	Type uint8
	// Gen is the group generation the message refers to.
	Gen uint32
	// Origin is the daemon the message is about/from originally; it
	// survives forwarding.
	Origin string
	// Sender is the daemon that transmitted this copy (differs from Origin
	// for forwarded PROCLAIMs). Experiment 3's bug is answering Sender.
	Sender string
	// Members carries the proposed/committed membership (MEMBERSHIP_CHANGE,
	// COMMIT) or the dead node (DEAD_REPORT).
	Members []string
}

// TypeName renders the message's type.
func (m Msg) TypeName() string { return TypeName(m.Type) }

// Encode serializes the message.
func (m Msg) Encode() []byte { return m.AppendTo(message.NewWriter(m.EncodedLen())).Done() }

// EncodedLen is the number of bytes AppendTo writes (fewer if a name is
// longer than the 255 bytes its length prefix can say).
func (m Msg) EncodedLen() int {
	n := 8 + len(m.Origin) + len(m.Sender)
	for _, mem := range m.Members {
		n += 1 + len(mem)
	}
	return n
}

// AppendTo serializes the message behind whatever w already holds — the
// RUDP header of a raw frame, so a heartbeat is encoded once.
func (m Msg) AppendTo(w message.Writer) message.Writer {
	w = w.U8(m.Type).U32(m.Gen).Str8(m.Origin).Str8(m.Sender).U8(uint8(len(m.Members)))
	for _, mem := range m.Members {
		w = w.Str8(mem)
	}
	return w
}

// decodeMsg parses a GMP message from raw payload bytes for a receiver that
// knows who it may hear from and about: a name that spells src (the
// datagram's network source — Sender always, Origin unless forwarded) or
// one of peers reuses that string instead of allocating a copy; any other
// name is a copy, so the result shares nothing with raw. msgType has
// checked the layout, so the reads below cannot run short.
func decodeMsg(raw []byte, src string, peers []string) (Msg, error) {
	if _, err := msgType(raw); err != nil {
		return Msg{}, err
	}
	r := message.NewReader(raw)
	m := Msg{Type: r.U8(), Gen: r.U32(), Origin: r.Name(src, peers), Sender: r.Name(src, peers)}
	if n := int(r.U8()); n > 0 {
		m.Members = make([]string, n)
		for i := range m.Members {
			m.Members[i] = r.Name(src, peers)
		}
	}
	return m, nil
}

// msgType is the one walk of the wire layout — type, generation, origin,
// sender, member count, members — and reports the type of the GMP message
// in raw without building a string. It refuses a message cut short
// anywhere in that walk, or of an unknown type.
func msgType(raw []byte) (uint8, error) {
	off, names := 5, 2 // past the type and generation; origin and sender
	for i := 0; i < names; i++ {
		if off >= len(raw) || off+1+int(raw[off]) > len(raw) {
			return 0, errShortMsg
		}
		off += 1 + int(raw[off])
		if i == 1 { // the member count follows the sender
			if off >= len(raw) {
				return 0, errShortMsg
			}
			names += int(raw[off])
			off++
		}
	}
	if t := raw[0]; int(t) < len(typeNames) && typeNames[t] != "" {
		return t, nil
	}
	return 0, fmt.Errorf("gmp: unknown message type %d", raw[0])
}

var errShortMsg = errors.New("gmp: short message")

// IntField reads the one numeric header field, gen, for PFI filter scripts.
func (m Msg) IntField(name string) (int64, bool) {
	return int64(m.Gen), name == "gen"
}

// Field exposes one header field to PFI filter scripts.
func (m Msg) Field(name string) string {
	switch name {
	case "origin":
		return m.Origin
	case "sender":
		return m.Sender
	case "gen":
		return strconv.FormatUint(uint64(m.Gen), 10)
	case "members":
		return strings.Join(m.Members, ",")
	}
	return ""
}

// Group is a committed membership view.
type Group struct {
	Gen     uint32
	Members []string // sorted ascending
}

// NewGroup builds a normalized (sorted, deduplicated) group.
func NewGroup(gen uint32, members []string) Group {
	seen := make(map[string]bool, len(members))
	var out []string
	for _, m := range members {
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	sort.Strings(out)
	return Group{Gen: gen, Members: out}
}

// Leader returns the member with the lowest id ("a group of processors
// have a unique leader based on the processor id").
func (g Group) Leader() string {
	if len(g.Members) == 0 {
		return ""
	}
	return g.Members[0]
}

// Contains reports membership.
func (g Group) Contains(id string) bool {
	for _, m := range g.Members {
		if m == id {
			return true
		}
	}
	return false
}

// Without returns a copy of the member list excluding the given ids.
func (g Group) Without(ids ...string) []string {
	out := make([]string, 0, len(g.Members))
	for _, m := range g.Members {
		drop := false
		for _, id := range ids {
			if m == id {
				drop = true
				break
			}
		}
		if !drop {
			out = append(out, m)
		}
	}
	return out
}

// Equal reports deep equality.
func (g Group) Equal(o Group) bool {
	if g.Gen != o.Gen || len(g.Members) != len(o.Members) {
		return false
	}
	for i := range g.Members {
		if g.Members[i] != o.Members[i] {
			return false
		}
	}
	return true
}

// String renders "gen=N {a b c}".
func (g Group) String() string {
	return fmt.Sprintf("gen=%d {%s}", g.Gen, strings.Join(g.Members, " "))
}
