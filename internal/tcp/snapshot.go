package tcp

import (
	"time"

	"pfi/internal/simtime"
)

// This file makes the TCP layer snapshot-capable (see internal/snapshot).
// Connections and tracked segments are retained by pointer — a
// connection's timers are fixed parts of the same *Conn, and the scheduler
// restores their events — while every field the state machine mutates is
// saved by value and written back on restore.

// estState is the RTO estimator's mutable state (the configuration fields
// are immutable).
type estState struct {
	srtt    time.Duration
	rttvar  time.Duration
	sampled bool
}

// sentSegState saves the fields a retransmission mutates in place on a
// tracked segment: the retry counter plus the refreshed ACK/window.
type sentSegState struct {
	ss          *sentSeg
	retransmits int
	ack         uint32
	window      uint16
}

// connState is one connection's mutable state.
type connState struct {
	est   estState
	state State

	iss    uint32
	sndUna uint32
	sndNxt uint32
	sndWnd int

	sendQ   [][]byte // the unsent chunks, shared: only their headers are copied
	unsent  int
	unacked []sentSegState

	rtxCount  int
	globalErr int
	backoff   int

	timingValid  bool
	timedEnd     uint32
	timedAt      simtime.Time
	timedRetrans bool

	irs         uint32
	rcvNxt      uint32
	recvBufSize int
	recvQ       []byte
	oooQ        map[uint32][]byte
	autoConsume bool

	keepAlive bool
	kaProbing bool
	kaRetrans int

	zwpCount int
	zwpEver  bool

	delackPending int

	onEstablished func()
	onData        func(data []byte)
	onClose       func(reason string)

	closeReason string
}

func (c *Conn) snapshotState() *connState {
	st := &connState{
		est:           estState{srtt: c.est.srtt, rttvar: c.est.rttvar, sampled: c.est.sampled},
		state:         c.state,
		iss:           c.iss,
		sndUna:        c.sndUna,
		sndNxt:        c.sndNxt,
		sndWnd:        c.sndWnd,
		sendQ:         append([][]byte(nil), c.sendQ[c.sendHead:]...),
		unsent:        c.unsent,
		rtxCount:      c.rtxCount,
		globalErr:     c.globalErr,
		backoff:       c.backoff,
		timingValid:   c.timingValid,
		timedEnd:      c.timedEnd,
		timedAt:       c.timedAt,
		timedRetrans:  c.timedRetrans,
		irs:           c.irs,
		rcvNxt:        c.rcvNxt,
		recvBufSize:   c.recvBufSize,
		recvQ:         append([]byte(nil), c.recvQ...),
		autoConsume:   c.autoConsume,
		keepAlive:     c.keepAlive,
		kaProbing:     c.kaProbing,
		kaRetrans:     c.kaRetrans,
		zwpCount:      c.zwpCount,
		zwpEver:       c.zwpEver,
		delackPending: c.delackPending,
		onEstablished: c.onEstablished,
		onData:        c.onData,
		onClose:       c.onClose,
		closeReason:   c.closeReason,
	}
	st.unacked = make([]sentSegState, len(c.unacked))
	for i, ss := range c.unacked {
		st.unacked[i] = sentSegState{ss: ss, retransmits: ss.retransmits,
			ack: ss.seg.Ack, window: ss.seg.Window}
	}
	// Out-of-order payloads are stored as fresh copies and never mutated in
	// place (draining deletes the entry), so a shallow map copy suffices.
	st.oooQ = make(map[uint32][]byte, len(c.oooQ))
	for k, v := range c.oooQ {
		st.oooQ[k] = v
	}
	return st
}

func (c *Conn) restoreState(st *connState) {
	c.est.srtt, c.est.rttvar, c.est.sampled = st.est.srtt, st.est.rttvar, st.est.sampled
	c.state = st.state
	c.iss, c.sndUna, c.sndNxt, c.sndWnd = st.iss, st.sndUna, st.sndNxt, st.sndWnd
	clear(c.sendQ)
	c.sendQ, c.sendHead, c.unsent = append(c.sendQ[:0], st.sendQ...), 0, st.unsent
	c.unacked = c.unacked[:0]
	for _, sv := range st.unacked {
		sv.ss.retransmits = sv.retransmits
		sv.ss.seg.Ack = sv.ack
		sv.ss.seg.Window = sv.window
		c.unacked = append(c.unacked, sv.ss)
	}
	c.rtxCount, c.globalErr, c.backoff = st.rtxCount, st.globalErr, st.backoff
	c.timingValid, c.timedEnd, c.timedAt, c.timedRetrans = st.timingValid, st.timedEnd, st.timedAt, st.timedRetrans
	c.irs, c.rcvNxt, c.recvBufSize = st.irs, st.rcvNxt, st.recvBufSize
	c.recvQ = append(c.recvQ[:0], st.recvQ...)
	c.oooQ = make(map[uint32][]byte, len(st.oooQ))
	for k, v := range st.oooQ {
		c.oooQ[k] = v
	}
	c.autoConsume = st.autoConsume
	c.keepAlive, c.kaProbing, c.kaRetrans = st.keepAlive, st.kaProbing, st.kaRetrans
	c.zwpCount, c.zwpEver = st.zwpCount, st.zwpEver
	c.delackPending = st.delackPending
	c.onEstablished, c.onData, c.onClose = st.onEstablished, st.onData, st.onClose
	c.closeReason = st.closeReason
}

// layerState is the TCP layer's mutable state.
type layerState struct {
	conns      map[connKey]*Conn
	connStates map[connKey]*connState
	listeners  map[uint16]bool
	acceptFns  map[uint16]func(*Conn)
	iss        uint32
	ephemeral  uint16
}

// SnapshotState captures the layer for the snapshot registry.
func (l *Layer) SnapshotState() any {
	st := &layerState{
		conns:      make(map[connKey]*Conn, len(l.conns)),
		connStates: make(map[connKey]*connState, len(l.conns)),
		listeners:  make(map[uint16]bool, len(l.listeners)),
		acceptFns:  make(map[uint16]func(*Conn), len(l.acceptFns)),
		iss:        l.iss,
		ephemeral:  l.ephemeral,
	}
	for k, c := range l.conns {
		st.conns[k] = c
		st.connStates[k] = c.snapshotState()
	}
	for k, v := range l.listeners {
		st.listeners[k] = v
	}
	for k, v := range l.acceptFns {
		st.acceptFns[k] = v
	}
	return st
}

// RestoreState rewinds the layer. Connections opened since the capture
// vanish (their timers are gone from the restored scheduler queue, so their
// closures never fire again); connections closed since the capture reappear
// with their timers re-armed by the scheduler's own restore.
func (l *Layer) RestoreState(state any) {
	st := state.(*layerState)
	l.conns = make(map[connKey]*Conn, len(st.conns))
	for k, c := range st.conns {
		c.restoreState(st.connStates[k])
		l.conns[k] = c
	}
	l.listeners = make(map[uint16]bool, len(st.listeners))
	for k, v := range st.listeners {
		l.listeners[k] = v
	}
	l.acceptFns = make(map[uint16]func(*Conn), len(st.acceptFns))
	for k, v := range st.acceptFns {
		l.acceptFns[k] = v
	}
	l.iss, l.ephemeral = st.iss, st.ephemeral
}
