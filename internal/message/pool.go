//go:build !race

package message

// take unlinks a released message of the asked class from p's list, or
// returns nil when there is none.
func (p *Pool) take(spilled bool) *Message {
	if p == nil {
		return nil
	}
	head := &p.inline
	if spilled {
		head = &p.spilled
	}
	m := *head
	if m != nil {
		*head, m.next = m.next, nil
	}
	return m
}

// put is Release for a message nobody kept: it joins the list of its class
// (a spill buffer is one of more than InlineCap bytes), and its addressing
// goes now so that a free message pins no strings; alloc sets the rest.
func (p *Pool) put(m *Message) {
	if p == nil {
		return
	}
	m.src, m.dst, m.srcNo, m.dstNo = "", "", 0, 0
	head := &p.inline
	if cap(m.buf) > InlineCap {
		head = &p.spilled
	}
	m.next, *head = *head, m
}
