//go:build race

package message

// Under the race detector nothing is reused: a released message is poisoned
// where it lies, so a layer that kept the pointer (or a slice of the bytes)
// without calling Keep decodes 0xDB garbage, reads a zero ID and no
// addressing, and shows up as a decode error, a golden diff or a moved
// fingerprint in `make race` instead of as a heisenbug in a normal build.

// recycled returns nil: every message is allocated fresh.
func recycled() *Message { return nil }

// recycle is Release for a message nobody kept.
func recycle(m *Message) {
	buf := m.buf[:cap(m.buf)]
	for i := range buf {
		buf[i] = 0xDB
	}
	m.id, m.origin, m.src, m.dst = 0, 0, "", ""
}
