package sim

import (
	"math/rand"
	"slices"

	"repro/internal/adversary"
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
//
// Timers count rounds: one armed for d rounds fires once round
// Round()+d has been delivered, so a timer of the paper's kΔ is one of k
// rounds.
type Lockstep struct {
	Crashed core.Set
	Drop    func(transport.Envelope) bool
	Seed    int64 // orders the envelopes within each round

	rng    *rand.Rand
	round  int
	sent   []transport.Envelope // awaiting delivery in the next round
	timers []*lockstepTimer     // armed, in expiry order
}

// maxRounds bounds one Run: a deployment whose timers keep re-arming
// (a suspect timer, a learner's pull) returns after this many rounds
// instead of running forever.
const maxRounds = 1000

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

// after arms a timer of d rounds: fire runs once round Round()+d has
// been delivered, after the timers armed earlier for the same round.
func (l *Lockstep) after(d int, fire func()) *lockstepTimer {
	t := &lockstepTimer{at: l.round + d, fire: fire}
	i := len(l.timers)
	for i > 0 && l.timers[i-1].at > t.at {
		i--
	}
	l.timers = slices.Insert(l.timers, i, t)
	return t
}

// cancel disarms t; a nil or already fired t is ignored.
func (l *Lockstep) cancel(t *lockstepTimer) {
	if i := slices.Index(l.timers, t); i >= 0 {
		l.timers = slices.Delete(l.timers, i, i+1)
	}
}

// Run delivers rounds until one sends nothing and no timer is armed, or
// for maxRounds rounds, calling deliver for each envelope that survives
// Crashed and Drop and firing each timer after its round's deliveries.
func (l *Lockstep) Run(deliver func(transport.Envelope)) {
	if l.rng == nil {
		l.rng = rand.New(rand.NewSource(l.Seed))
	}
	for end := l.round + maxRounds; (len(l.sent) > 0 || len(l.timers) > 0) && l.round < end; {
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

// NewLockstepStorage places rqs's servers under ls, each behind its
// wrapper in byz, if it has one.
func NewLockstepStorage(rqs *core.RQS, ls *Lockstep, byz map[core.ProcessID]adversary.Wrap) *LockstepStorage {
	s := &LockstepStorage{
		rqs:     rqs,
		ls:      ls,
		clients: make(map[storage.Op]core.ProcessID),
	}
	for id := 0; id < rqs.N(); id++ {
		s.Servers = append(s.Servers, storage.NewServer(byzantine(byz, id, ls.Port(id)), storage.Hooks{}))
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
			// 2Δ: the round's requests are delivered in the next round
			// and their replies in the one after, so by then every
			// correct server's reply is in.
			s.ls.after(2, func() {
				if o.rounds == r && !o.Done() {
					s.step(o, o.op.Expire())
				}
			})
		}
	}
}
