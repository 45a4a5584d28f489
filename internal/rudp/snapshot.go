package rudp

// Snapshot support (see internal/snapshot): peers and pending sends are
// retained by pointer — a pending send is its own retransmission event — and
// their mutable fields are saved by value (the scheduler saves the event's).
// A capture pins every pending send it sees, so the layer never reuses one a
// restore may bring back.

import "maps"

// peerSaved is one peer's sequence bookkeeping and its window.
type peerSaved struct {
	p       *peer
	nextSeq uint32
	floor   uint32
	above   map[uint32]bool
	window  []pendingSaved
}

// pendingSaved is one unacknowledged reliable frame.
type pendingSaved struct {
	ps      *pendingSend
	retries int
}

// layerState is the rudp layer's mutable state.
type layerState struct {
	peers   []peerSaved // in the layer's order
	deliver DeliverFunc
}

// SnapshotState captures the layer for the snapshot registry.
func (l *Layer) SnapshotState() any {
	st := &layerState{peers: make([]peerSaved, len(l.peers)), deliver: l.deliver}
	for i, p := range l.peers {
		sv := peerSaved{p: p, nextSeq: p.nextSeq, floor: p.floor, above: maps.Clone(p.above)}
		if len(p.window) > 0 {
			sv.window = make([]pendingSaved, len(p.window))
			for j, ps := range p.window {
				ps.pinned = true
				sv.window[j] = pendingSaved{ps: ps, retries: ps.retries}
			}
		}
		st.peers[i] = sv
	}
	return st
}

// RestoreState rewinds the layer. A send acknowledged since the capture
// re-enters its window with its retransmission timer restored by the
// scheduler; a send issued since the capture vanishes along with its timer.
func (l *Layer) RestoreState(state any) {
	st := state.(*layerState)
	n := len(l.peers)
	l.peers = l.peers[:0]
	for _, sv := range st.peers {
		p := sv.p
		p.nextSeq, p.floor, p.above = sv.nextSeq, sv.floor, maps.Clone(sv.above)
		n := len(p.window)
		p.window = p.window[:0]
		for _, pv := range sv.window {
			pv.ps.p, pv.ps.retries = p, pv.retries
			p.window = append(p.window, pv.ps)
		}
		if k := len(p.window); k < n {
			clear(p.window[k:n]) // no dropped send stays reachable
		}
		l.peers = append(l.peers, p)
	}
	if k := len(l.peers); k < n {
		clear(l.peers[k:n])
	}
	l.deliver = st.deliver
}
