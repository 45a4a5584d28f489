//go:build race

package message

// Under the race detector nothing is reused: a released message is poisoned
// where it lies, so a layer that kept the pointer (or a slice of the bytes)
// without calling Keep decodes 0xDB garbage, reads a zero ID and no
// addressing, and shows up as a decode error, a golden diff or a moved
// fingerprint in `make race` instead of as a heisenbug in a normal build.

// take returns nil: every message is allocated fresh.
func (*Pool) take(bool) *Message { return nil }

// put is Release for a message nobody kept.
func (*Pool) put(m *Message) {
	buf := m.buf[:cap(m.buf)]
	for i := range buf {
		buf[i] = 0xDB
	}
	m.id, m.src, m.dst = 0, "", ""
}
