package rudp

// Snapshot support (see internal/snapshot): peers and pending sends are
// retained by pointer — a pending send is its own retransmission event, and
// the timeout identity-checks it against the pending map — and their
// mutable fields are saved by value (the scheduler saves the event's).

import "maps"

// peerSaved is one peer's sequence bookkeeping.
type peerSaved struct {
	p       *peerState
	nextSeq uint32
	floor   uint32
	above   map[uint32]bool
}

// pendingSaved is one unacknowledged reliable frame.
type pendingSaved struct {
	ps      *pendingSend
	retries int
}

// layerState is the rudp layer's mutable state.
type layerState struct {
	peers    map[string]peerSaved
	pending  map[string]map[uint32]pendingSaved
	deliver  DeliverFunc
	onGiveUp func(dst string, payload []byte)
	stats    Stats
}

// SnapshotState captures the layer for the snapshot registry.
func (l *Layer) SnapshotState() any {
	st := &layerState{
		peers:    make(map[string]peerSaved, len(l.peers)),
		pending:  make(map[string]map[uint32]pendingSaved, len(l.pending)),
		deliver:  l.deliver,
		onGiveUp: l.onGiveUp,
		stats:    l.stats,
	}
	for name, p := range l.peers {
		st.peers[name] = peerSaved{p: p, nextSeq: p.nextSeq, floor: p.floor, above: maps.Clone(p.above)}
	}
	for dst, m := range l.pending {
		mm := make(map[uint32]pendingSaved, len(m))
		for seq, ps := range m {
			mm[seq] = pendingSaved{ps: ps, retries: ps.retries}
		}
		st.pending[dst] = mm
	}
	return st
}

// RestoreState rewinds the layer. A send acknowledged since the capture
// re-enters the pending map with its retransmission timer restored by the
// scheduler; a send issued since the capture vanishes along with its timer.
func (l *Layer) RestoreState(state any) {
	st := state.(*layerState)
	l.peers = make(map[string]*peerState, len(st.peers))
	for name, sv := range st.peers {
		sv.p.nextSeq, sv.p.floor, sv.p.above = sv.nextSeq, sv.floor, maps.Clone(sv.above)
		l.peers[name] = sv.p
	}
	l.pending = make(map[string]map[uint32]*pendingSend, len(st.pending))
	for dst, m := range st.pending {
		mm := make(map[uint32]*pendingSend, len(m))
		for seq, sv := range m {
			sv.ps.retries = sv.retries
			mm[seq] = sv.ps
		}
		l.pending[dst] = mm
	}
	l.deliver = st.deliver
	l.onGiveUp = st.onGiveUp
	l.stats = st.stats
}
