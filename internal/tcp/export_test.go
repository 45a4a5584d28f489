package tcp

// OldestUnackedPayload exposes the payload of the oldest segment awaiting
// acknowledgment, for the aliasing check in TestStreamBytesAreHandedOver.
func (c *Conn) OldestUnackedPayload() []byte { return c.unacked[0].seg.Payload }

// Consume removes up to n bytes from the receive buffer of a connection
// that does not auto-consume and, if that reopens the window, tells the
// peer: an application reading its socket.
func (c *Conn) Consume(n int) {
	n = min(n, len(c.recvQ))
	c.recvQ = c.recvQ[n:]
	if c.state == StateEstablished && n > 0 {
		c.sendACK()
	}
}

// RecvBuffered reports bytes accepted but not yet consumed.
func (c *Conn) RecvBuffered() int { return len(c.recvQ) }
