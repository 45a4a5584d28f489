// Package raft implements a Raft-style consensus layer — leader election,
// log replication, a commit index, and term/vote persistence — as a stack
// protocol layer over the simulated network. It is the scale workload the
// roadmap's consensus item calls for: where the paper's TCP and GMP
// subjects run on a handful of machines, this layer runs at 100–1000
// simulated nodes under partitions, message loss/corruption/reorder,
// suspend/resume churn, and per-node clock skew, so every execution mode
// (conformance, explore, campaign, fleet) gains a workload whose failure
// surface — split votes, lost commits, divergent logs — is exactly what
// fault injection is for.
//
// Two historical-bug hooks mirror the repo's GMP treatment: each seeded bug
// stays behind an option so the explore oracles can demonstrate catching it.
//
//   - Bugs.SkipVotePersist: the current-term vote is not persisted across a
//     restart, so a rebooted node can vote twice in one term — the classic
//     way two leaders share a term (election-safety violation).
//   - Bugs.AckBeforeQuorum: the leader applies (acknowledges) an entry the
//     moment it is appended locally, before a quorum replicates it — a
//     minority-partitioned leader then acks entries a future leader
//     overwrites (commit-safety violation).
package raft

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
	"strconv"
	"strings"

	"pfi/internal/message"
)

// Message types.
const (
	TypeRequestVote = 1
	TypeVoteResp    = 2
	TypeAppend      = 3 // AppendEntries; empty Entries is the heartbeat
	TypeAppendResp  = 4
)

// typeNames is the one name<->id table: TypeName indexes it,
// the stub's Generate searches it.
var typeNames = [...]string{
	TypeRequestVote: "REQUEST_VOTE",
	TypeVoteResp:    "VOTE_RESP",
	TypeAppend:      "APPEND_ENTRIES",
	TypeAppendResp:  "APPEND_RESP",
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

// LogEntry is one replicated log slot. Index is implicit: the log is
// 1-based, entry i of a node's log has index i+1.
type LogEntry struct {
	Term uint64
	Data string
}

// Msg is one raft protocol message. Only the fields relevant to Type are
// encoded on the wire.
type Msg struct {
	Type uint8
	Term uint64
	From string

	// REQUEST_VOTE: the candidate's log position.
	LastIndex uint64
	LastTerm  uint64

	// VOTE_RESP.
	Granted bool

	// APPEND_ENTRIES.
	PrevIndex uint64
	PrevTerm  uint64
	Commit    uint64
	Entries   []LogEntry

	// APPEND_RESP: Success plus the follower's highest matching index (on
	// failure, a backtrack hint for the leader's next probe).
	Success bool
	Match   uint64

	// from and to are peer positions plus one, 0 when unknown; neither is
	// on the wire. from is the sender's position among the receiver's
	// peers, which the layer learns at decode when the network's source
	// number names the peer From names; to is the destination's position
	// among the sender's peers, which the layer hands the network as the
	// destination's number. (Every rig lists peers in world order, where
	// the two agree; in any other order the network's check by name turns
	// the hint down, and a lookup by name does the work.)
	from, to int
}

// TypeName renders the message's type.
func (m *Msg) TypeName() string { return TypeName(m.Type) }

// getStr reads a length-prefixed string, reusing first or one of rest when
// the bytes spell it (message.Reader.Name).
func getStr(r *message.Reader, first string, rest []string) (string, error) {
	s := r.Name(first, rest)
	if err := r.Err(); err != nil {
		return "", fmt.Errorf("raft: short string: %w", err)
	}
	return s, nil
}

func boolByte(v bool) uint8 {
	if v {
		return 1
	}
	return 0
}

// checksum is CRC-32C (Castagnoli) over the frame body. Raft assumes a
// non-Byzantine network: deployments run it over checksummed transports, so
// a corrupted frame manifests as loss, which the protocol tolerates by
// design. Without this, a single flipped bit in a VOTE_RESP would forge a
// vote and the fault injector could "break" election safety in a correct
// implementation. CRC-32C detects every burst of up to 32 bits.
func checksum(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encode serializes the message for the wire into a message of its own; the
// layer builds what it ships from the world's free list.
func (m *Msg) Encode() *message.Message { return m.writeTo(message.Build(m.encodedLen())) }

// encodedLen is 4 checksum + 1 type + 8 term + 1+len(From), then the
// largest fixed body (APPEND_ENTRIES: 3×8 + 2) and each entry's 8 +
// 1+len(Data): a Build of this size never regrows.
func (m *Msg) encodedLen() int {
	n := 14 + len(m.From) + 26
	for _, e := range m.Entries {
		n += 9 + len(e.Data)
	}
	return n
}

// writeTo writes the frame into w, a Build of encodedLen bytes: a 4-byte
// checksum followed by the frame body. It finishes the message.
func (m *Msg) writeTo(w message.Writer) *message.Message {
	w = w.U32(0) // checksum placeholder
	w = w.U8(m.Type).U64(m.Term).Str8(m.From)
	switch m.Type {
	case TypeRequestVote:
		w = w.U64(m.LastIndex).U64(m.LastTerm)
	case TypeVoteResp:
		w = w.U8(boolByte(m.Granted))
	case TypeAppend:
		w = w.U64(m.PrevIndex).U64(m.PrevTerm).U64(m.Commit).U16(uint16(len(m.Entries)))
		for _, e := range m.Entries {
			w = w.U64(e.Term).Str8(e.Data)
		}
	case TypeAppendResp:
		w = w.U8(boolByte(m.Success)).U64(m.Match)
	}
	sm := w.Message()
	buf := sm.Bytes()
	binary.BigEndian.PutUint32(buf, checksum(buf[4:]))
	return sm
}

// Decode parses a raft message without consuming the stack message. The
// result shares nothing with the message's bytes.
func Decode(sm *message.Message) (Msg, error) {
	var m Msg
	if err := m.decode(sm.Bytes(), sm.Src(), nil); err != nil {
		return Msg{}, err
	}
	return m, nil
}

// decode parses a raft frame from raw payload bytes into m, in place,
// verifying the leading checksum. Every field is overwritten, and
// APPEND_ENTRIES reuses m's Entries storage, so a Msg decoded over and over
// allocates only its entries' Data, which share nothing with raw. A From
// that spells src (the datagram's network source — nearly always) or one of
// peers reuses that string instead of allocating a copy. On an error m
// holds what was read before it, the same whatever m held before.
func (m *Msg) decode(raw []byte, src string, peers []string) error {
	ents := m.Entries[:0]
	*m = Msg{}
	m.Entries = ents
	if len(raw) < 5 {
		return fmt.Errorf("raft: frame too short: %d bytes", len(raw))
	}
	r := message.NewReader(raw)
	if sum := r.U32(); sum != checksum(raw[4:]) {
		return fmt.Errorf("raft: checksum mismatch")
	}
	m.Type, m.Term = r.U8(), r.U64()
	var err error
	if m.From, err = getStr(r, src, peers); err != nil {
		return err
	}
	switch m.Type {
	case TypeRequestVote:
		m.LastIndex, m.LastTerm = r.U64(), r.U64()
	case TypeVoteResp:
		m.Granted = r.U8() != 0
	case TypeAppend:
		m.PrevIndex, m.PrevTerm, m.Commit = r.U64(), r.U64(), r.U64()
		if n := int(r.U16()); n > 0 {
			// A corrupted count must not size an allocation: the frame
			// cannot hold more entries than it has bytes left.
			m.Entries = slices.Grow(m.Entries, min(n, r.Remaining()))
			for i := 0; i < n; i++ {
				term := r.U64()
				data, err := getStr(r, "", nil)
				if err != nil {
					return err
				}
				m.Entries = append(m.Entries, LogEntry{Term: term, Data: data})
			}
		}
	case TypeAppendResp:
		m.Success = r.U8() != 0
		m.Match = r.U64()
	default:
		return fmt.Errorf("raft: unknown message type %d", m.Type)
	}
	if err := r.Err(); err != nil {
		return fmt.Errorf("raft: short message: %w", err)
	}
	return nil
}

// numField reads one numeric header field (a flag reads 0 or 1); ok is
// false for a field the message's type does not carry, and for the two
// that are text.
func (m *Msg) numField(name string) (v uint64, ok bool) {
	if name == "term" {
		return m.Term, true
	}
	switch m.Type {
	case TypeRequestVote:
		switch name {
		case "last_index":
			return m.LastIndex, true
		case "last_term":
			return m.LastTerm, true
		}
	case TypeVoteResp:
		if name == "granted" {
			return uint64(boolByte(m.Granted)), true
		}
	case TypeAppend:
		switch name {
		case "prev_index":
			return m.PrevIndex, true
		case "prev_term":
			return m.PrevTerm, true
		case "commit":
			return m.Commit, true
		case "entries":
			return uint64(len(m.Entries)), true
		}
	case TypeAppendResp:
		switch name {
		case "success":
			return uint64(boolByte(m.Success)), true
		case "match":
			return m.Match, true
		}
	}
	return 0, false
}

// IntField reads one numeric header field for PFI filter scripts. A term
// or index past int64 (only a forged frame carries one) is left to Field.
func (m *Msg) IntField(name string) (int64, bool) {
	v, ok := m.numField(name)
	return int64(v), ok && v <= math.MaxInt64
}

// Field exposes one header field to PFI filter scripts; a field the
// message's type does not carry reads "".
func (m *Msg) Field(name string) string {
	if v, ok := m.numField(name); ok {
		return strconv.FormatUint(v, 10)
	}
	switch {
	case name == "from":
		return m.From
	case name == "data" && m.Type == TypeAppend:
		vals := make([]string, len(m.Entries))
		for i, e := range m.Entries {
			vals[i] = e.Data
		}
		return strings.Join(vals, ",")
	}
	return ""
}
