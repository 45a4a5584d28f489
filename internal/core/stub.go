// Package core implements the paper's contribution: the script-driven
// probe/fault-injection (PFI) layer.
//
// A PFI layer sits between two consecutive layers of a protocol stack,
// listed there when stack.New builds it. Every message passed down runs the
// layer's *send filter* script; every message passed up runs its *receive
// filter* script. A filter is a script and nothing else, so testing another
// failure scenario means installing another script. Scripts are Tcl
// (internal/script) and can:
//
//   - filter: inspect messages via recognition stubs (msg_type, msg_field),
//   - manipulate: drop, delay, reorder, duplicate, and corrupt messages
//     (xDrop, xDelay, xHold/xRelease, xDuplicate, msg_set_byte),
//   - inject: introduce spontaneous probe messages (xInject) built by
//     generation stubs.
//
// Filter interpreter state persists across messages, filters of one layer
// can exchange state (peer_set/peer_get), and layers on different nodes can
// synchronize through a SyncBus (sync_signal/sync_wait) — the paper's
// "synchronizing scripts executed by PFI layers running on different
// nodes".
package core

import (
	"fmt"

	"pfi/internal/message"
)

// Info is what a recognition stub reports about a message: its
// protocol-level type (e.g. "ACK", "COMMIT") and its decoded header.
type Info struct {
	Type string
	// Fields is the decoded header; nil when the stub exposes no fields.
	Fields FieldSource
}

// Field returns a decoded header field ("" when absent).
func (i Info) Field(name string) string {
	if i.Fields == nil {
		return ""
	}
	return i.Fields.Field(name)
}

// FieldSource is a decoded header that renders its fields on demand. A
// stub returns the header it decoded (by value, captured at recognition
// time) rather than a map of every field rendered as a string: msg_field
// renders exactly the field a script asks for, and a message whose fields
// are never read costs no rendering at all. A source may alias the
// message's bytes; it is valid only for the filter run that recognized it.
type FieldSource interface {
	// Field renders one header field ("" when the header has none by that
	// name).
	Field(name string) string
}

// Header is decoded-header storage a filter owns. A filter whose stub is a
// HeaderStub asks it for one Header, once, and decodes every message it
// recognizes into that same storage — so recognition allocates nothing per
// message, and what FieldSource already says holds strictly: the header a
// run reads is overwritten by the filter's next run. The PFI layer never
// reads it outside the run.
type Header interface {
	FieldSource
	// Recognize decodes m into the header, replacing what it held, and
	// reports the message's protocol-level type. It must not consume bytes
	// from m.
	Recognize(m *message.Message) (typ string, err error)
	// IntField reads a numeric field as the number it is, so msg_field can
	// hand a script an integer instead of its digits. ok is false for a
	// field that is text or absent, or does not fit an int64; Field still
	// renders it.
	IntField(name string) (n int64, ok bool)
}

// HeaderStub is a Stub that can also recognize into storage its caller
// owns. Stubs of protocols with real traffic volume implement it; Stub
// alone remains a complete stub.
type HeaderStub interface {
	Stub
	// NewHeader returns empty header storage for one filter.
	NewHeader() Header
}

// FieldMap is a FieldSource over a ready-made map, for stubs whose
// protocol has a field or two and no traffic volume to speak of.
type FieldMap map[string]string

// Field implements FieldSource.
func (m FieldMap) Field(name string) string { return m[name] }

// Stub is a packet recognition/generation stub: the protocol-specific
// knowledge plugged into a PFI layer. Stubs are "written by people who know
// the packet formats of the target protocol" — here, each target protocol
// package exports one.
type Stub interface {
	// Protocol names the protocol the stub understands.
	Protocol() string
	// Recognize decodes the message's type and header fields. It must not
	// consume bytes from m.
	Recognize(m *message.Message) (Info, error)
	// Generate builds a new message of the given type from header fields.
	// Only messages whose generation requires no protocol state may be
	// generated here (the paper's spurious-ACK example); stateful sends
	// belong to the driver layer above the target.
	Generate(typ string, fields map[string]string) (*message.Message, error)
}

// NopStub recognizes every message as type "UNKNOWN" and generates nothing.
// It lets a PFI layer run content-independent scripts (pure drop/delay/
// duplicate faults) against protocols without a stub.
type NopStub struct{}

// Protocol implements Stub.
func (NopStub) Protocol() string { return "unknown" }

// Recognize implements Stub.
func (NopStub) Recognize(m *message.Message) (Info, error) {
	return Info{Type: "UNKNOWN"}, nil
}

// Generate implements Stub.
func (NopStub) Generate(typ string, fields map[string]string) (*message.Message, error) {
	return nil, fmt.Errorf("core: NopStub cannot generate %q messages", typ)
}

var _ Stub = NopStub{}
