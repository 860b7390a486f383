package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// Lockstep is a single-threaded, round-by-round driver for actors whose
// handlers are synchronous (HandleEnvelope). Every envelope sent while
// round r is delivered — or before Run, for round 1 — is delivered in
// round r+1, and all of round r's envelopes are delivered, in a seeded
// permutation, before any of round r+1's. That is the synchronous
// execution the paper states its best-case bounds for, so the round in
// which an actor reacts is exactly the message delays since the first
// send, whatever the Go scheduler does.
//
// Crashed and Drop are the scenario inputs of Network.Crash and
// Network.SetFilter: envelopes to or from a crashed process, and those
// Drop reports true for, are discarded undelivered.
type Lockstep struct {
	Crashed core.Set
	Drop    func(transport.Envelope) bool
	Seed    int64 // orders the envelopes within each round

	round int
	sent  []transport.Envelope // awaiting delivery in the next round
}

// Port returns id's capturing port: its sends queue for the next round.
// It has no inbox; Run hands envelopes to the deliver function instead.
func (l *Lockstep) Port(id core.ProcessID) transport.Port {
	return lockstepPort{l: l, id: id}
}

// Round is the round being delivered: 0 before Run, then 1, 2, ...
func (l *Lockstep) Round() int { return l.round }

// Run delivers rounds until one sends nothing, calling deliver for each
// envelope that survives Crashed and Drop.
func (l *Lockstep) Run(deliver func(transport.Envelope)) {
	rng := rand.New(rand.NewSource(l.Seed))
	for len(l.sent) > 0 {
		l.round++
		cur := l.sent
		l.sent = nil
		rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		for _, env := range cur {
			if l.Crashed.Contains(env.From) || l.Crashed.Contains(env.To) || (l.Drop != nil && l.Drop(env)) {
				continue
			}
			deliver(env)
		}
	}
}

type lockstepPort struct {
	l  *Lockstep
	id core.ProcessID
}

func (p lockstepPort) ID() core.ProcessID { return p.id }

func (p lockstepPort) Send(to core.ProcessID, payload transport.Message) {
	p.l.sent = append(p.l.sent, transport.Envelope{From: p.id, To: to, Payload: payload})
}

func (p lockstepPort) SendHop(to core.ProcessID, payload transport.Message, _ int) {
	p.Send(to, payload)
}

func (p lockstepPort) SendBatch(to core.ProcessID, payloads []transport.Message, _ int) {
	for _, pl := range payloads {
		p.Send(to, pl)
	}
}

func (p lockstepPort) Broadcast(dst core.Set, payload transport.Message, _ int) {
	for _, to := range dst.Members() {
		p.Send(to, payload)
	}
}

func (p lockstepPort) Inbox() <-chan transport.Envelope { return nil }

// LockstepLearn is one learner's outcome under LockstepConsensus.
// Delays is the round it learned in — the message delays since the
// proposal — and 0 if it never learned.
type LockstepLearn struct {
	consensus.Learn
	Delays int
}

// LockstepConsensus runs one initial-view consensus instance over rqs
// under ls — acceptors on IDs 0..n-1, the proposer on n, then the
// learners: the proposer proposes v, and every acceptor and learner is
// driven through its HandleEnvelope. It returns each learner's outcome,
// in topology order, and the acceptors, whose decisions the caller may
// inspect.
func LockstepConsensus(rqs *core.RQS, learners int, ls *Lockstep, v consensus.Value) ([]LockstepLearn, []*consensus.Acceptor, error) {
	nA := rqs.N()
	proposer := nA
	topo := consensus.Topology{Acceptors: rqs.Universe(), Proposers: []core.ProcessID{proposer}}
	for i := 0; i < learners; i++ {
		topo.Learners = topo.Learners.Add(nA + 1 + i)
	}
	ring, signers, err := consensus.GenKeys(rqs.Universe())
	if err != nil {
		return nil, nil, fmt.Errorf("lockstep consensus: %w", err)
	}
	acceptors := make([]*consensus.Acceptor, nA)
	for _, id := range rqs.Universe().Members() {
		acceptors[id] = consensus.NewAcceptor(rqs, topo, ls.Port(id), ring, signers[id], consensus.ElectionConfig{})
	}
	lrs := make([]*consensus.Learner, learners)
	for i := range lrs {
		lrs[i] = consensus.NewLearner(rqs, topo, ls.Port(nA+1+i), 0)
	}
	out := make([]LockstepLearn, learners)
	consensus.ProposeInitial(ls.Port(proposer), topo, v)
	ls.Run(func(env transport.Envelope) {
		switch {
		case env.To < nA:
			acceptors[env.To].HandleEnvelope(env)
		case env.To > proposer:
			if res, ok := lrs[env.To-nA-1].HandleEnvelope(env); ok {
				out[env.To-nA-1] = LockstepLearn{Learn: res, Delays: ls.Round()}
			}
		}
	})
	return out, acceptors, nil
}
