package sim

import (
	"fmt"
	"math/rand"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/storage"
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
// Drop reports true for, are discarded undelivered. Both may change
// between Runs.
type Lockstep struct {
	Crashed core.Set
	Drop    func(transport.Envelope) bool
	Seed    int64 // orders the envelopes within each round

	rng    *rand.Rand
	round  int
	sent   []transport.Envelope // awaiting delivery in the next round
	timers []lockstepTimer      // armed, in expiry order
}

type lockstepTimer struct {
	at   int // fires after this round's deliveries
	fire func()
}

// Port returns id's capturing port: its sends queue for the next round.
// It has no inbox; Run hands envelopes to the deliver function instead.
func (l *Lockstep) Port(id core.ProcessID) transport.Port {
	return lockstepPort{l: l, id: id}
}

// Round is the round being delivered: 0 before Run, then 1, 2, ...
func (l *Lockstep) Round() int { return l.round }

// after arms a 2Δ timer: fire runs once round Round()+2 has been
// delivered — a request sent now is delivered in the next round and
// its reply in the one after, so by then every correct server's reply
// is in.
func (l *Lockstep) after(fire func()) {
	l.timers = append(l.timers, lockstepTimer{at: l.round + 2, fire: fire})
}

// Run delivers rounds until one sends nothing and no timer is armed,
// calling deliver for each envelope that survives Crashed and Drop and
// firing each timer after its round's deliveries.
func (l *Lockstep) Run(deliver func(transport.Envelope)) {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.Seed))
	}
	for len(l.sent) > 0 || len(l.timers) > 0 {
		l.round++
		cur := l.sent
		l.sent = nil
		l.rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		for _, env := range cur {
			if l.Crashed.Contains(env.From) || l.Crashed.Contains(env.To) || (l.Drop != nil && l.Drop(env)) {
				continue
			}
			deliver(env)
		}
		// Timers armed now fire two rounds later, so the queue stays in
		// expiry order.
		for len(l.timers) > 0 && l.timers[0].at == l.round {
			t := l.timers[0]
			l.timers = l.timers[1:]
			t.fire()
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

// LockstepStorage is a storage deployment under a Lockstep driver:
// volatile servers on IDs 0..n-1, served through HandleEnvelope, and
// clients above them whose operations are driven step by step — a
// step's round is broadcast through the client's capturing port, and
// its 2Δ timer fires once that round's replies are in. Operations
// started between Runs see the servers' state as earlier Runs left it.
type LockstepStorage struct {
	Servers []*storage.Server

	rqs     *core.RQS
	ls      *Lockstep
	clients map[storage.Op]core.ProcessID
	running []*LockstepOp // by client ID - n; nil when idle
}

// LockstepOp is one operation under LockstepStorage. Inv is the round
// its first requests are delivered in and Resp the round it completed
// in, 0 while it is pending.
type LockstepOp struct {
	Inv, Resp int
	op        storage.Op
	client    core.ProcessID
	rounds    int // rounds started; an older round's expiry is ignored
}

// Done reports whether the operation completed.
func (o *LockstepOp) Done() bool { return o.Resp > 0 }

// NewLockstepStorage places rqs's servers under ls, with the given
// Byzantine hooks.
func NewLockstepStorage(rqs *core.RQS, ls *Lockstep, hooks map[core.ProcessID]storage.Hooks) *LockstepStorage {
	s := &LockstepStorage{
		rqs:     rqs,
		ls:      ls,
		clients: make(map[storage.Op]core.ProcessID),
	}
	for id := 0; id < rqs.N(); id++ {
		s.Servers = append(s.Servers, storage.NewServer(ls.Port(id), hooks[id]))
	}
	return s
}

// Writer returns a writer on the next client ID. Its timeout is unused:
// the lockstep timer stands in for it.
func (s *LockstepStorage) Writer() *storage.Writer {
	id := s.nextClient()
	w := storage.NewWriter(s.rqs, s.ls.Port(id), 0)
	s.clients[w] = id
	return w
}

// Reader returns a reader with the given options on the next client ID.
func (s *LockstepStorage) Reader(opts storage.ReaderOptions) *storage.Reader {
	id := s.nextClient()
	r := storage.NewReaderOpts(s.rqs, s.ls.Port(id), opts)
	s.clients[r] = id
	return r
}

func (s *LockstepStorage) nextClient() core.ProcessID {
	s.running = append(s.running, nil)
	return s.rqs.N() + len(s.running) - 1
}

// Start begins op, a client of this deployment, with its first step;
// its rounds run at the next Run. A client runs one operation at a
// time.
func (s *LockstepStorage) Start(op storage.Op, first storage.Step) *LockstepOp {
	id, ok := s.clients[op]
	if !ok {
		panic("sim: LockstepStorage.Start on a foreign client")
	}
	o := &LockstepOp{op: op, Inv: s.ls.Round() + 1, client: id}
	s.running[id-s.rqs.N()] = o
	s.step(o, first)
	return o
}

// Run delivers rounds until the network is quiescent and no timer is
// armed, and returns the operations still pending — those a correct
// quorum never answered.
func (s *LockstepStorage) Run() []*LockstepOp {
	n := s.rqs.N()
	s.ls.Run(func(env transport.Envelope) {
		if env.To < n {
			s.Servers[env.To].HandleEnvelope(env)
		} else if o := s.running[env.To-n]; o != nil {
			s.step(o, o.op.Deliver(env))
		}
	})
	var pending []*LockstepOp
	for i, o := range s.running {
		if o != nil {
			pending = append(pending, o)
			s.running[i] = nil
		}
	}
	return pending
}

// step applies one step of o: completion, or a new round.
func (s *LockstepStorage) step(o *LockstepOp, st storage.Step) {
	switch {
	case st.Done:
		o.Resp = s.ls.Round()
		s.running[o.client-s.rqs.N()] = nil
	case st.Send != nil:
		o.rounds++
		transport.Broadcast(s.ls.Port(o.client), s.rqs.Universe(), st.Send)
		if st.Timer {
			r := o.rounds
			s.ls.after(func() {
				if o.rounds == r && !o.Done() {
					s.step(o, o.op.Expire())
				}
			})
		}
	}
}
