package consensus

import (
	"repro/internal/core"
	"repro/internal/transport"
)

// Proposer drives the Locking module's proposer side (Figure 15 lines
// 1-10): in the initial view it sends prepare directly; when elected
// later it runs the consult phase (new_view → quorum of acks → choose)
// before preparing. It is a step function: Propose and HandleEnvelope
// each handle one event to completion, and the caller owns their
// serialization.
type Proposer struct {
	id    core.ProcessID
	rqs   *core.RQS
	elems []core.Set
	ring  *Keyring
	topo  Topology
	port  transport.Port

	value     Value
	proposed  bool
	view      int
	viewProof []SignedViewChange

	// Consult-phase collection state.
	collecting bool
	acks       VProof
	faulty     map[core.Set]bool

	// View-change messages per next-view.
	vcs map[int]map[core.ProcessID]SignedViewChange
}

// NewProposer builds a proposer.
func NewProposer(rqs *core.RQS, topo Topology, port transport.Port, ring *Keyring) *Proposer {
	return &Proposer{
		id:     port.ID(),
		rqs:    rqs,
		elems:  rqs.AdversaryElements(),
		ring:   ring,
		topo:   topo,
		port:   port,
		view:   InitView,
		faulty: make(map[core.Set]bool),
		vcs:    make(map[int]map[core.ProcessID]SignedViewChange),
	}
}

// Propose stores the proposer's value and acts on it: in the initial
// view, which every proposer leads, the prepare goes out at once; a
// proposer already elected to a later view starts that view's consult
// phase. A later election (onViewChange) consults with the stored value.
func (p *Proposer) Propose(v Value) {
	p.value = v
	p.proposed = true
	if p.view == InitView {
		ProposeInitial(p.port, p.topo, v)
	} else {
		p.startConsult()
	}
}

// ProposeInitial is the initial-view propose (Figure 15 lines 1-10 with
// the consult phase skipped, Figure 9): every proposer leads view 0, so
// it wakes the acceptors' election timers and sends prepare directly.
// It keeps no state, so a host that never runs later views — the
// pipelined smr proposer — calls it per slot without building a
// Proposer.
func ProposeInitial(port transport.Port, topo Topology, v Value) {
	transport.Broadcast(port, topo.Acceptors, SyncMsg{})
	transport.Broadcast(port, topo.Acceptors, PrepareMsg{V: v, View: InitView})
}

// HandleEnvelope processes one incoming envelope: a view_change
// towards an election, or a new_view_ack of the consult phase.
func (p *Proposer) HandleEnvelope(env transport.Envelope) {
	switch m := env.Payload.(type) {
	case SignedViewChange:
		p.onViewChange(env.From, m)
	case NewViewAck:
		p.onNewViewAck(m)
	}
}

// onViewChange collects signed view_change messages; a quorum for a view
// this proposer leads elects it (Figure 14 lines 10-13).
func (p *Proposer) onViewChange(from core.ProcessID, m SignedViewChange) {
	nv := m.Body.NextView
	if nv <= p.view || p.topo.Leader(nv) != p.id {
		return
	}
	if from != m.Acceptor || !p.topo.Acceptors.Contains(from) || !p.ring.VerifyViewChange(m) {
		return
	}
	if p.vcs[nv] == nil {
		p.vcs[nv] = make(map[core.ProcessID]SignedViewChange)
	}
	p.vcs[nv][from] = m
	var signers core.Set
	for id := range p.vcs[nv] {
		signers = signers.Add(id)
	}
	if _, ok := p.rqs.ContainedQuorum(signers, core.Class3); !ok {
		return
	}
	p.view = nv
	p.viewProof = make([]SignedViewChange, 0, len(p.vcs[nv]))
	for _, vc := range p.vcs[nv] {
		p.viewProof = append(p.viewProof, vc)
	}
	if p.proposed {
		p.startConsult()
	}
}

// startConsult begins the consult phase for the current view (lines 2-8).
func (p *Proposer) startConsult() {
	p.collecting = true
	p.acks = make(VProof)
	p.faulty = make(map[core.Set]bool)
	transport.Broadcast(p.port, p.topo.Acceptors, NewViewMsg{View: p.view, ViewProof: p.viewProof})
}

// onNewViewAck accumulates acks; once a quorum of valid acks (not yet
// marked faulty) is present, choose() picks the value to prepare. An
// abort marks the quorum faulty and waits for a different one (Lemma 28
// guarantees a correct quorum never aborts).
func (p *Proposer) onNewViewAck(m NewViewAck) {
	if !p.collecting || m.Body.View != p.view {
		return
	}
	if !p.topo.Acceptors.Contains(m.Acceptor) || !p.ring.VerifyAck(m) {
		return
	}
	p.acks[m.Acceptor] = m

	var responded core.Set
	for id := range p.acks {
		responded = responded.Add(id)
	}
	for _, q := range p.rqs.ContainedQuorums(responded, core.Class3) {
		if p.faulty[q] {
			continue
		}
		vProof := make(VProof, q.Count())
		for _, id := range q.Members() {
			vProof[id] = p.acks[id]
		}
		if !ValidateVProof(p.ring, p.rqs, p.view, vProof, q) {
			p.faulty[q] = true
			continue
		}
		res := Choose(p.rqs, p.elems, p.value, vProof, q)
		if res.Abort {
			p.faulty[q] = true
			continue
		}
		p.collecting = false
		transport.Broadcast(p.port, p.topo.Acceptors,
			PrepareMsg{V: res.V, View: p.view, VProof: vProof, Q: q})
		return
	}
}
