package tcp

// OldestUnackedPayload exposes the payload of the oldest segment awaiting
// acknowledgment, for the aliasing check in TestStreamBytesAreHandedOver.
func (c *Conn) OldestUnackedPayload() []byte { return c.unacked[0].seg.Payload }
