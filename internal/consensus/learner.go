package consensus

import (
	"repro/internal/core"
	"repro/internal/transport"
)

// Learn is a learned value together with the decision rule that fired:
// Step is the update step of lines 51-53 (1, 2 or 3; step m is the
// (m+1)-delay path of a class-m quorum) and View the view of the update
// messages that satisfied it, or Step is 0 when the value arrived as
// decision gossip, which names no view. How many message delays
// learning took is the driver's to count (sim.Lockstep).
type Learn struct {
	V    Value
	Step int
	View int
}

// Learner learns the decided value (Figure 10 right column and Figure 15
// lines 60 and 101-103). It is a step function: HandleEnvelope holds the
// decision rules, and the driver that calls it also schedules Pull.
type Learner struct {
	rqs  *core.RQS
	topo Topology
	port transport.Port

	dec          decider
	decisionFrom votes
	hasLearned   bool
}

// NewLearner builds a learner.
func NewLearner(rqs *core.RQS, topo Topology, port transport.Port) *Learner {
	return &Learner{
		rqs:  rqs,
		topo: topo,
		port: port,
		dec:  newDecider(rqs),
	}
}

// Reset readies the learner for a new instance, like Acceptor.Reset.
func (l *Learner) Reset() {
	*l = Learner{rqs: l.rqs, topo: l.topo, port: l.port, dec: l.dec.reset(), decisionFrom: l.decisionFrom.reset()}
}

// Pull asks every acceptor to re-send its decision (Figure 15 line 60):
// the driver calls it on an unlearned learner once a preset time has
// passed.
func (l *Learner) Pull() {
	transport.Broadcast(l.port, l.topo.Acceptors, DecisionPullMsg{})
}

// HandleEnvelope processes one incoming envelope synchronously and
// reports the learned value the first time the learner learns; every
// later envelope is ignored.
func (l *Learner) HandleEnvelope(env transport.Envelope) (Learn, bool) {
	if l.hasLearned || !l.topo.Acceptors.Contains(env.From) {
		return Learn{}, false
	}
	var res Learn
	switch m := env.Payload.(type) {
	case UpdateMsg:
		if !l.dec.record(env.From, m) {
			return Learn{}, false
		}
		res = Learn{V: m.V, Step: m.Step, View: m.View}
	case DecisionMsg:
		r := l.decisionFrom.count(env.From, voteKey{v: m.V})
		if r == nil || !core.IsBasic(r.seen, l.rqs.Adversary()) {
			return Learn{}, false
		}
		res = Learn{V: m.V}
	default:
		return Learn{}, false
	}
	l.hasLearned = true
	return res, true
}
