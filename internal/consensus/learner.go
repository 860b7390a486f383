package consensus

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// Learn is a learned value together with the decision rule that fired:
// Step is the update step of lines 51-53 (1, 2 or 3; step m is the
// (m+1)-delay path of a class-m quorum), or 0 when the value arrived as
// decision gossip rather than through the update stream. How many
// message delays learning took is the driver's to count (sim.Lockstep).
type Learn struct {
	V    Value
	Step int
}

// Learner learns the decided value (Figure 10 right column and Figure 15
// lines 60 and 101-103). HandleEnvelope holds the decision rules; Start
// runs them on the learner's own goroutine, and a host pipelining many
// instances (the smr log) calls HandleEnvelope from its own loop instead.
type Learner struct {
	id   core.ProcessID
	rqs  *core.RQS
	topo Topology
	port transport.Port

	dec          decider
	decisionFrom map[Value]core.Set // created on first decision message
	hasLearned   bool
	pullEvery    time.Duration

	// Loop plumbing, created by Start (nil on an inline-driven learner).
	learned  chan Learn
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NewLearner builds a learner. pullEvery is the "preset time" after which
// a started, unlearned learner starts pulling decisions (0 disables
// pulling); hosts driving HandleEnvelope schedule Pull themselves.
func NewLearner(rqs *core.RQS, topo Topology, port transport.Port, pullEvery time.Duration) *Learner {
	return &Learner{
		id:        port.ID(),
		rqs:       rqs,
		topo:      topo,
		port:      port,
		dec:       newDecider(rqs),
		pullEvery: pullEvery,
	}
}

// Start launches the learner loop.
func (l *Learner) Start() {
	l.learned = make(chan Learn, 1)
	l.stop = make(chan struct{})
	l.done = make(chan struct{})
	go l.run()
}

// Stop terminates the loop and waits for exit.
func (l *Learner) Stop() {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
}

// Wait blocks until the started learner learns or the timeout elapses.
func (l *Learner) Wait(timeout time.Duration) (Learn, bool) {
	select {
	case v, ok := <-l.learned:
		return v, ok && v.V != None
	case <-time.After(timeout):
		return Learn{}, false
	}
}

// Pull asks every acceptor to re-send its decision (Figure 15 line 60).
func (l *Learner) Pull() {
	transport.Broadcast(l.port, l.topo.Acceptors, DecisionPullMsg{})
}

// HandleEnvelope processes one incoming envelope synchronously and
// reports the learned value the first time the learner learns; every
// later envelope is ignored. The caller owns serialization: it must not
// be mixed with Start.
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
		res = Learn{V: m.V, Step: m.Step}
	case DecisionMsg:
		if l.decisionFrom == nil {
			l.decisionFrom = make(map[Value]core.Set)
		}
		l.decisionFrom[m.V] = l.decisionFrom[m.V].Add(env.From)
		if !core.IsBasic(l.decisionFrom[m.V], l.rqs.Adversary()) {
			return Learn{}, false
		}
		res = Learn{V: m.V}
	default:
		return Learn{}, false
	}
	// Shed the per-instance protocol state: a learned learner ignores
	// everything, so a host pipelining many instances keeps live heap
	// proportional to unlearned ones.
	l.hasLearned = true
	l.dec = decider{}
	l.decisionFrom = nil
	return res, true
}

func (l *Learner) run() {
	defer close(l.done)
	defer close(l.learned)
	var pull <-chan time.Time
	if l.pullEvery > 0 {
		ticker := time.NewTicker(l.pullEvery)
		defer ticker.Stop()
		pull = ticker.C
	}
	for {
		select {
		case <-l.stop:
			return
		case <-pull:
			l.Pull()
		case env, ok := <-l.port.Inbox():
			if !ok {
				return
			}
			if res, ok := l.HandleEnvelope(env); ok {
				l.learned <- res
				pull = nil
			}
		}
	}
}
