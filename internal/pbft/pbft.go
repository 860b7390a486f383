// Package pbft implements the comparison baseline for the consensus
// experiments: a single-shot, PBFT-style [7] Byzantine agreement without a
// fast path. The leader pre-prepares, acceptors echo (prepare) and commit
// in fixed phases, and learners learn after the commit quorum — always
// four message delays (pre-prepare → prepare → commit → learner), no
// matter how many acceptors are correct.
//
// It uses the same Port interface and the same n = 3t+1 threshold quorum
// logic classic PBFT assumes, which is exactly the PBFTStyleRQS
// instantiation of Example 6 without its class-1 fast path. Acceptors
// and learners are synchronous HandleEnvelope actors with no goroutine
// of their own; a driver such as sim.Lockstep delivers to them through
// Cluster.Deliver and counts the delays.
package pbft

import (
	"repro/internal/core"
	"repro/internal/transport"
)

// Value is a proposal value.
type Value = string

// PrePrepare is the leader's proposal.
type PrePrepare struct{ V Value }

// Prepare is an acceptor's echo of the proposal.
type Prepare struct{ V Value }

// Commit is an acceptor's commit vote after a prepare quorum.
type Commit struct{ V Value }

// Reply carries a locally committed value to the learners; learners learn
// on t+1 matching replies.
type Reply struct{ V Value }

// Topology fixes the roles: acceptors 0..N-1, then the leader, then
// learners.
type Topology struct {
	Acceptors core.Set
	Leader    core.ProcessID
	Learners  core.Set
}

// Quorum returns the 2t+1 quorum size for n = 3t+1 acceptors.
func (t Topology) Quorum() int {
	n := t.Acceptors.Count()
	return n - (n-1)/3
}

// Acceptor is a baseline acceptor.
type Acceptor struct {
	topo      Topology
	port      transport.Port
	prepared  map[Value]core.Set
	committed map[Value]core.Set
	sentPrep  bool
	sentCmt   bool
	replied   bool
}

// NewAcceptor builds an acceptor that sends through port.
func NewAcceptor(topo Topology, port transport.Port) *Acceptor {
	return &Acceptor{
		topo:      topo,
		port:      port,
		prepared:  make(map[Value]core.Set),
		committed: make(map[Value]core.Set),
	}
}

// HandleEnvelope processes one incoming envelope synchronously.
func (a *Acceptor) HandleEnvelope(env transport.Envelope) {
	switch m := env.Payload.(type) {
	case PrePrepare:
		if env.From != a.topo.Leader || a.sentPrep {
			return
		}
		a.sentPrep = true
		transport.Broadcast(a.port, a.topo.Acceptors, Prepare{V: m.V})
	case Prepare:
		if !a.topo.Acceptors.Contains(env.From) || a.sentCmt {
			return
		}
		a.prepared[m.V] = a.prepared[m.V].Add(env.From)
		if a.prepared[m.V].Count() >= a.topo.Quorum() {
			a.sentCmt = true
			transport.Broadcast(a.port, a.topo.Acceptors, Commit{V: m.V})
		}
	case Commit:
		if !a.topo.Acceptors.Contains(env.From) || a.replied {
			return
		}
		a.committed[m.V] = a.committed[m.V].Add(env.From)
		if a.committed[m.V].Count() >= a.topo.Quorum() {
			a.replied = true
			transport.Broadcast(a.port, a.topo.Learners, Reply{V: m.V})
		}
	}
}

// Learner learns after t+1 matching replies, which guarantee one comes
// from a correct acceptor.
type Learner struct {
	topo    Topology
	replies map[Value]core.Set
	learned bool
}

// NewLearner builds a learner.
func NewLearner(topo Topology) *Learner {
	return &Learner{topo: topo, replies: make(map[Value]core.Set)}
}

// HandleEnvelope processes one incoming envelope synchronously and
// reports the learned value the first time the learner learns.
func (l *Learner) HandleEnvelope(env transport.Envelope) (Value, bool) {
	m, isReply := env.Payload.(Reply)
	if !isReply || !l.topo.Acceptors.Contains(env.From) || l.learned {
		return "", false
	}
	l.replies[m.V] = l.replies[m.V].Add(env.From)
	if l.replies[m.V].Count() < (l.topo.Acceptors.Count()-1)/3+1 {
		return "", false
	}
	l.learned = true
	return m.V, true
}

// Propose runs the leader's side: broadcast the pre-prepare.
func Propose(topo Topology, port transport.Port, v Value) {
	transport.Broadcast(port, topo.Acceptors, PrePrepare{V: v})
}

// Cluster bundles a baseline deployment: n acceptors on IDs 0..n-1, the
// leader on n, then the learners.
type Cluster struct {
	Topo      Topology
	Acceptors []*Acceptor
	Learners  []*Learner
	leader    transport.Port
}

// NewCluster builds n acceptors, one leader and nLearners learners,
// each sending through port(id).
func NewCluster(n, nLearners int, port func(core.ProcessID) transport.Port) *Cluster {
	topo := Topology{Acceptors: core.FullSet(n), Leader: n}
	for i := 0; i < nLearners; i++ {
		topo.Learners = topo.Learners.Add(n + 1 + i)
	}
	c := &Cluster{Topo: topo, leader: port(n)}
	for i := 0; i < n; i++ {
		c.Acceptors = append(c.Acceptors, NewAcceptor(topo, port(i)))
	}
	for i := 0; i < nLearners; i++ {
		c.Learners = append(c.Learners, NewLearner(topo))
	}
	return c
}

// Propose has the leader propose v.
func (c *Cluster) Propose(v Value) { Propose(c.Topo, c.leader, v) }

// Deliver hands env to the actor it is addressed to and reports the
// value a learner learned, if env made one learn.
func (c *Cluster) Deliver(env transport.Envelope) (Value, bool) {
	switch n := len(c.Acceptors); {
	case env.To >= 0 && env.To < n:
		c.Acceptors[env.To].HandleEnvelope(env)
	case env.To > n && env.To <= n+len(c.Learners):
		return c.Learners[env.To-n-1].HandleEnvelope(env)
	}
	return "", false
}
