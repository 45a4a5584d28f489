//go:build !race

package message

import "sync"

// pool holds released messages. It is package-level so that encoders keep
// calling Build(n) with no world to name, and a sync.Pool so that campaign
// workers on several goroutines share it without a lock of our own; the
// collector empties it, so it never holds more than one GC cycle's worth.
var pool sync.Pool

// recycled returns a released message, or nil when there is none.
func recycled() *Message {
	m, _ := pool.Get().(*Message)
	return m
}

// recycle is Release for a message nobody kept. The addressing goes now, so
// that a pooled message pins no strings; alloc sets everything else.
func recycle(m *Message) {
	m.src, m.dst = "", ""
	pool.Put(m)
}
