package raft

import (
	"fmt"
	"strconv"
	"strings"

	"pfi/internal/core"
	"pfi/internal/message"
)

// PFIStub is the raft packet recognition/generation stub. The PFI layer
// sits directly below the raft layer, so recognition sees raft frames
// as-is (no reliability wrapper to look through).
type PFIStub struct{}

var _ core.HeaderStub = PFIStub{}

// Protocol implements core.Stub.
func (PFIStub) Protocol() string { return "raft" }

// Recognize implements core.Stub.
func (PFIStub) Recognize(m *message.Message) (core.Info, error) {
	rm := new(Msg)
	typ, err := rm.Recognize(m)
	if err != nil {
		return core.Info{}, err
	}
	return core.Info{Type: typ, Fields: rm}, nil
}

// NewHeader implements core.HeaderStub: a filter decodes every frame it
// sees over one Msg of its own.
func (PFIStub) NewHeader() core.Header { return new(Msg) }

// Recognize implements core.Header.
func (m *Msg) Recognize(sm *message.Message) (string, error) {
	rm, err := Decode(sm)
	if err != nil {
		return "", fmt.Errorf("raft stub: %w", err)
	}
	*m = rm
	return m.TypeName(), nil
}

// Generate implements core.Stub: it builds a validly checksummed raft
// frame from filter-script fields.
func (PFIStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	t, ok := typeID(typ)
	if !ok {
		return nil, fmt.Errorf("raft stub: cannot generate %q", typ)
	}
	m := &Msg{Type: t, From: fields["from"]}
	num := func(key string) (uint64, error) {
		s := fields[key]
		if s == "" {
			return 0, nil
		}
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("raft stub: bad %s %q", key, s)
		}
		return v, nil
	}
	var err error
	if m.Term, err = num("term"); err != nil {
		return nil, err
	}
	switch t {
	case TypeRequestVote:
		if m.LastIndex, err = num("last_index"); err != nil {
			return nil, err
		}
		if m.LastTerm, err = num("last_term"); err != nil {
			return nil, err
		}
	case TypeVoteResp:
		m.Granted = fields["granted"] == "1"
	case TypeAppend:
		if m.PrevIndex, err = num("prev_index"); err != nil {
			return nil, err
		}
		if m.PrevTerm, err = num("prev_term"); err != nil {
			return nil, err
		}
		if m.Commit, err = num("commit"); err != nil {
			return nil, err
		}
		if data := fields["data"]; data != "" {
			for _, d := range strings.Split(data, ",") {
				m.Entries = append(m.Entries, LogEntry{Term: m.Term, Data: d})
			}
		}
	case TypeAppendResp:
		m.Success = fields["success"] == "1"
		if m.Match, err = num("match"); err != nil {
			return nil, err
		}
	}
	return m.Encode(), nil
}
