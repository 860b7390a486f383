// Package smr layers a replicated command log on top of the single-shot
// consensus of Section 4 — the "general state machine replication (SMR)
// framework of [34]" that motivates the paper's consensus algorithm.
//
// Each log slot is one consensus instance, but slots are pipelined over
// one shared consensus deployment: a deployment performs one key
// generation and stands up one process per role (Replica hosting
// acceptors, Proposer hosting proposers, Log hosting learners).
// Consensus messages travel wrapped in SlotMsg, and each host
// demultiplexes them on its one goroutine, driving lazily created
// per-slot protocol instances synchronously: no host creates a
// goroutine, channel, timer or ticker per slot or per burst. A host
// handles its inbox in bursts — the envelope it woke for plus whatever
// is already queued behind it — and its slot instances' sends collect
// in the host's outbox, which is flushed at the end of the burst as
// one envelope per destination (a SlotBatch, or a bare SlotMsg when it
// holds one message): with many slots in flight, one burst carries
// messages for many of them, and per-envelope transport cost, not
// protocol work, bounds pipelined throughput. Deciding a command
// therefore costs one consensus round over an already-running cluster
// instead of a full cluster setup — the amortization BenchmarkSMRPipelined
// measures against the per-slot-setup baseline.
//
// Slots decide in the initial view: the replica never calls an
// acceptor's Expire, so the hosts run no Election module. View changes
// run on single instances under the lockstep sim.ConsensusCluster,
// whose driver counts the suspect timers in rounds.
//
// Proposer.Append allocates log slots; many slots may be in flight at
// once and commit out of order, with Log.Prefix exposing the gap-free
// committed prefix. Each pull tick sends its length to the replicas
// (PrefixMsg), and a replica drops every slot below the smallest prefix
// over all learners, which no learner asks for again: a replica holds
// recent slots, not the whole log. The sim package assembles a whole
// in-memory deployment as sim.SMRCluster.
package smr

import (
	"maps"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/transport"
)

// SlotMsg wraps a consensus message with its log-slot index.
type SlotMsg struct {
	Slot    int
	Payload transport.Message
}

// SlotBatch is one envelope's worth of slot messages from one host's
// inbox burst to one destination, in send order.
type SlotBatch struct {
	Msgs []SlotMsg
}

// PrefixMsg is a learner's contiguous learned prefix: it has learned
// every slot below Upto.
type PrefixMsg struct {
	Upto int
}

// hostBurst bounds how many inbox envelopes a host handles before it
// flushes its outbox, so a flooded host still sends its reactions.
const hostBurst = 64

// outbox collects, in send order, every slot message a host's slot
// instances send while the host handles one inbox burst; flush sends
// them as one envelope per destination.
type outbox struct {
	port    transport.Port
	msgs    []SlotMsg
	dsts    []core.Set // dsts[i] is where msgs[i] goes
	scratch []SlotMsg  // one destination's share of a mixed flush
}

func (o *outbox) add(dst core.Set, m SlotMsg) {
	o.msgs = append(o.msgs, m)
	o.dsts = append(o.dsts, dst)
}

// flush sends the collected messages and empties the outbox. When every
// message has the same destination set — the usual case: an acceptor's
// update targets, a log host's acceptors — the batch goes out in one
// broadcast; otherwise each destination gets its own share, in order.
func (o *outbox) flush() {
	if len(o.msgs) == 0 {
		return
	}
	dst, uniform := o.dsts[0], true
	var all core.Set
	for _, d := range o.dsts {
		uniform = uniform && d == dst
		all = all.Union(d)
	}
	if uniform {
		o.send(dst, o.msgs)
	} else {
		for v := uint64(all); v != 0; v &= v - 1 {
			to := bits.TrailingZeros64(v)
			o.scratch = o.scratch[:0]
			for i, d := range o.dsts {
				if d.Contains(to) {
					o.scratch = append(o.scratch, o.msgs[i])
				}
			}
			o.send(core.Set(0).Add(to), o.scratch)
		}
		clear(o.scratch)
	}
	clear(o.msgs)
	o.msgs, o.dsts = o.msgs[:0], o.dsts[:0]
}

// send puts msgs on the wire to dst as one envelope: a lone message
// travels bare, so an isolated send pays no wrapper.
func (o *outbox) send(dst core.Set, msgs []SlotMsg) {
	if len(msgs) == 1 {
		transport.Broadcast(o.port, dst, msgs[0])
		return
	}
	transport.Broadcast(o.port, dst, SlotBatch{Msgs: append([]SlotMsg(nil), msgs...)})
}

// eachSlotMsg calls deliver for every slot message env carries, in send
// order, with the message's payload on the envelope.
func eachSlotMsg(env transport.Envelope, deliver func(slot int, env transport.Envelope)) {
	switch m := env.Payload.(type) {
	case SlotMsg:
		env.Payload = m.Payload
		deliver(m.Slot, env)
	case SlotBatch:
		for i := range m.Msgs {
			sm := &m.Msgs[i]
			env.Payload = sm.Payload
			deliver(sm.Slot, env)
		}
	}
}

// burst handles env and then every envelope already queued behind it,
// up to hostBurst envelopes; it reports false once the inbox has closed.
func burst(inbox <-chan transport.Envelope, env transport.Envelope, handle func(transport.Envelope)) bool {
	handle(env)
	for n := 1; n < hostBurst; n++ {
		select {
		case env, ok := <-inbox:
			if !ok {
				return false
			}
			handle(env)
		default:
			return true
		}
	}
	return true
}

// slotPort is one slot's view of its host: every send wraps the payload
// in a SlotMsg and appends it to the host's outbox. It has no inbox —
// the host feeds the slot's instance from its own demultiplexing loop.
type slotPort struct {
	out  *outbox
	slot int
}

var _ transport.Port = (*slotPort)(nil)

func (p *slotPort) ID() core.ProcessID { return p.out.port.ID() }

func (p *slotPort) Send(to core.ProcessID, payload transport.Message) {
	p.Broadcast(core.Set(0).Add(to), payload, 0)
}

func (p *slotPort) SendHop(to core.ProcessID, payload transport.Message, _ int) {
	p.Send(to, payload)
}

func (p *slotPort) SendBatch(to core.ProcessID, payloads []transport.Message, _ int) {
	for _, pl := range payloads {
		p.Send(to, pl)
	}
}

func (p *slotPort) Broadcast(dst core.Set, payload transport.Message, _ int) {
	p.out.add(dst, SlotMsg{Slot: p.slot, Payload: payload})
}

func (p *slotPort) Inbox() <-chan transport.Envelope { return nil }

// Replica hosts the acceptor role for every slot: a slot's acceptor is
// created when the slot's first message other than a decision pull
// arrives and is driven synchronously on the replica's one goroutine.
type Replica struct {
	rqs    *core.RQS
	topo   consensus.Topology
	ring   *consensus.Keyring
	signer *consensus.Signer
	hooks  consensus.Hooks // installed on every slot acceptor (chaos injection)
	port   transport.Port
	done   chan struct{}

	// Owned by the replica's goroutine.
	out     outbox
	slots   map[int]*slotState
	learned map[core.ProcessID]int // latest PrefixMsg.Upto per learner
	floor   int                    // min of learned over all learners; no slot below it is held
}

// slotState is a slot's live acceptor or, once the slot has decided,
// only the value a decided acceptor answers decision pulls with.
type slotState struct {
	acc *consensus.Acceptor // nil once decided
	v   consensus.Value
}

// NewReplica starts the acceptor host on the given port.
func NewReplica(rqs *core.RQS, topo consensus.Topology, port transport.Port,
	ring *consensus.Keyring, signer *consensus.Signer) *Replica {
	return NewReplicaHooks(rqs, topo, port, ring, signer, consensus.Hooks{})
}

// NewReplicaHooks is NewReplica with a Byzantine fault-injection
// surface (consensus.Hooks) installed on every slot acceptor this
// replica creates — the chaos matrix's handle for forging or
// equivocating protocol messages below the SMR slot driver. Hooks must
// be supplied at construction: slot acceptors are created lazily on
// the replica's goroutine, so a later setter would race.
func NewReplicaHooks(rqs *core.RQS, topo consensus.Topology, port transport.Port,
	ring *consensus.Keyring, signer *consensus.Signer, hooks consensus.Hooks) *Replica {
	r := &Replica{
		rqs: rqs, topo: topo, ring: ring, signer: signer, hooks: hooks,
		port: port, done: make(chan struct{}),
		out:     outbox{port: port},
		slots:   make(map[int]*slotState),
		learned: make(map[core.ProcessID]int),
	}
	go r.run()
	return r
}

// run executes every slot's acceptor on this one goroutine, one inbox
// burst at a time, and sends each burst's reactions as one envelope per
// destination. The slot map needs no lock — nothing else touches it.
func (r *Replica) run() {
	defer close(r.done)
	for env := range r.port.Inbox() {
		open := burst(r.port.Inbox(), env, r.handle)
		r.out.flush()
		if !open {
			return
		}
	}
}

// handle hands slot messages to deliver. A topology learner's prefix
// (the network stamps From) that grew raises the floor to the smallest
// prefix over all learners and drops every slot below it.
func (r *Replica) handle(env transport.Envelope) {
	m, ok := env.Payload.(PrefixMsg)
	if !ok {
		eachSlotMsg(env, r.deliver)
		return
	}
	if !r.topo.Learners.Contains(env.From) || m.Upto <= r.learned[env.From] {
		return
	}
	r.learned[env.From] = m.Upto
	r.floor = m.Upto
	for v := uint64(r.topo.Learners); v != 0; v &= v - 1 {
		r.floor = min(r.floor, r.learned[bits.TrailingZeros64(v)])
	}
	maps.DeleteFunc(r.slots, func(n int, _ *slotState) bool { return n < r.floor })
}

// deliver hands one slot message to the slot's acceptor. An acceptor
// that adopted a decision early stops forwarding update steps, but by
// then a full quorum has already broadcast every step and its decision,
// so lagging acceptors and learners still converge through decision
// messages.
func (r *Replica) deliver(n int, env transport.Envelope) {
	if n < r.floor {
		return // every learner has learned the slot
	}
	_, isPull := env.Payload.(consensus.DecisionPullMsg)
	s, ok := r.slots[n]
	if !ok {
		if isPull {
			return // a fresh acceptor has no decision to answer with
		}
		s = &slotState{acc: consensus.NewAcceptor(r.rqs, r.topo,
			&slotPort{out: &r.out, slot: n}, r.ring, r.signer)}
		s.acc.SetHooks(r.hooks)
		r.slots[n] = s
	}
	if s.acc == nil {
		if isPull {
			r.out.add(core.Set(0).Add(env.From), SlotMsg{Slot: n, Payload: consensus.DecisionMsg{V: s.v}})
		}
		return
	}
	s.acc.HandleEnvelope(env)
	if v, ok := s.acc.Decided(); ok {
		*s = slotState{v: v}
	}
}

// Stop waits for the replica's goroutine to exit. Call after the
// network closes.
func (r *Replica) Stop() { <-r.done }

// Proposer hosts the proposer role across slots. A slot's proposer has
// exactly one duty — the initial-view prepare broadcast — so Propose
// performs it synchronously (consensus.ProposeInitial) and retains
// nothing per slot.
type Proposer struct {
	topo consensus.Topology
	port transport.Port
	next atomic.Int64 // next slot Append hands out
	done chan struct{}
}

// NewProposer starts the proposer host on the given port.
func NewProposer(topo consensus.Topology, port transport.Port) *Proposer {
	p := &Proposer{topo: topo, port: port, done: make(chan struct{})}
	// Nothing addresses the proposer host (view-change traffic is the
	// only proposer-bound kind), but the inbox must still drain so
	// unexpected senders cannot wedge.
	go func() {
		defer close(p.done)
		for range port.Inbox() {
		}
	}()
	return p
}

// Propose submits a command for a log slot. Its sync and prepare travel
// as one batch per acceptor; the outbox is the call's own, so concurrent
// calls share nothing.
func (p *Proposer) Propose(slot int, cmd consensus.Value) {
	out := outbox{port: p.port}
	consensus.ProposeInitial(&slotPort{out: &out, slot: slot}, p.topo, cmd)
	out.flush()
}

// Append allocates the next free log slot, proposes cmd into it, and
// returns the slot. Safe for concurrent use; slots commit independently
// and possibly out of order. Callers mixing Append with explicit
// Propose own the collision risk — Append only counts its own
// allocations.
func (p *Proposer) Append(cmd consensus.Value) int {
	slot := int(p.next.Add(1) - 1)
	p.Propose(slot, cmd)
	return slot
}

// Stop waits for the proposer host's goroutine to exit. Call after the
// network closes.
func (p *Proposer) Stop() { <-p.done }

// Log hosts the learner role and assembles the committed command log.
// A slot's learner is created when the slot's first message arrives,
// driven synchronously on the log's one goroutine, and dropped once the
// slot's entry is recorded; later messages for the slot are discarded.
type Log struct {
	rqs       *core.RQS
	topo      consensus.Topology
	port      transport.Port
	pullEvery time.Duration
	done      chan struct{}
	out       outbox            // owned by the host's goroutine
	learners  map[int]unlearned // owned by the host's goroutine

	mu       sync.Mutex
	entries  map[int]consensus.Value
	watchers map[int][]chan consensus.Value
	prefix   int // every slot below it is recorded; written only by the host's goroutine
}

// NewLog starts the learner host on the given port. Every pullEvery it
// asks the acceptors to re-send their decision for each slot that has
// gone unlearned for at least that long, so a log host that missed a
// slot's update stream catches up, and sends them its learned prefix,
// so they can retire the slots below it. pullEvery 0 disables both: no
// pulls, and the replicas keep every slot they decide.
func NewLog(rqs *core.RQS, topo consensus.Topology, port transport.Port, pullEvery time.Duration) *Log {
	l := &Log{
		rqs: rqs, topo: topo, port: port, pullEvery: pullEvery,
		done:     make(chan struct{}),
		out:      outbox{port: port},
		learners: make(map[int]unlearned),
		entries:  make(map[int]consensus.Value),
		watchers: make(map[int][]chan consensus.Value),
	}
	go l.run()
	return l
}

// unlearned is a slot the log host has heard of but not yet learned.
type unlearned struct {
	lr    *consensus.Learner
	since time.Time
}

func (l *Log) run() {
	defer close(l.done)
	var pull <-chan time.Time
	if l.pullEvery > 0 {
		ticker := time.NewTicker(l.pullEvery)
		defer ticker.Stop()
		pull = ticker.C
	}
	for {
		select {
		case now := <-pull:
			for _, u := range l.learners {
				if now.Sub(u.since) >= l.pullEvery {
					u.lr.Pull()
				}
			}
			l.out.flush()
			transport.Broadcast(l.port, l.topo.Acceptors, PrefixMsg{Upto: l.prefix})
		case env, ok := <-l.port.Inbox():
			if !ok {
				return
			}
			open := burst(l.port.Inbox(), env, func(env transport.Envelope) { eachSlotMsg(env, l.deliver) })
			l.out.flush()
			if !open {
				return
			}
		}
	}
}

// deliver hands one slot message to the slot's learner.
func (l *Log) deliver(slot int, env transport.Envelope) {
	u, ok := l.learners[slot]
	if !ok {
		if slot < l.prefix { // a straggler: no need for l.mu
			return
		}
		if _, done := l.Get(slot); done {
			return // a straggler for a slot recorded past a gap
		}
		u = unlearned{
			lr:    consensus.NewLearner(l.rqs, l.topo, &slotPort{out: &l.out, slot: slot}),
			since: time.Now(),
		}
		l.learners[slot] = u
	}
	if res, ok := u.lr.HandleEnvelope(env); ok {
		delete(l.learners, slot)
		l.record(slot, res.V)
	}
}

// record commits a slot's entry and releases its waiters.
func (l *Log) record(slot int, v consensus.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[slot] = v
	for _, ok := l.entries[l.prefix]; ok; _, ok = l.entries[l.prefix] {
		l.prefix++
	}
	for _, w := range l.watchers[slot] {
		w <- v // buffered; each watcher receives exactly one value
	}
	delete(l.watchers, slot)
}

// Get returns the committed command of a slot, if any.
func (l *Log) Get(slot int) (consensus.Value, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	v, ok := l.entries[slot]
	return v, ok
}

// Wait blocks until a slot commits or the timeout elapses. A Wait that
// times out leaves nothing behind.
func (l *Log) Wait(slot int, timeout time.Duration) (consensus.Value, bool) {
	l.mu.Lock()
	if v, ok := l.entries[slot]; ok {
		l.mu.Unlock()
		return v, true
	}
	ch := make(chan consensus.Value, 1)
	l.watchers[slot] = append(l.watchers[slot], ch)
	l.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case v := <-ch:
		return v, true
	case <-timer.C:
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if v, ok := l.entries[slot]; ok { // committed as the timer fired
		return v, true
	}
	ws := l.watchers[slot]
	for i, w := range ws {
		if w == ch {
			ws = append(ws[:i], ws[i+1:]...)
			break
		}
	}
	if len(ws) == 0 {
		delete(l.watchers, slot)
	} else {
		l.watchers[slot] = ws
	}
	return consensus.None, false
}

// Prefix returns the longest gap-free committed prefix starting at slot 0.
func (l *Log) Prefix() []consensus.Value {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []consensus.Value
	for slot := 0; slot < l.prefix; slot++ {
		out = append(out, l.entries[slot])
	}
	return out
}

// Stop waits for the log host's goroutine to exit. Call after the
// network closes.
func (l *Log) Stop() { <-l.done }
