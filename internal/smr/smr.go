// Package smr layers a replicated command log on top of the single-shot
// consensus of Section 4 — the "general state machine replication (SMR)
// framework of [34]" that motivates the paper's consensus algorithm.
//
// Each log slot is one consensus instance, but slots are pipelined over
// one shared deployment: one key generation and one process per role
// (Replica hosting acceptors, Proposer hosting proposers, Log hosting
// learners). Consensus messages travel wrapped in SlotMsg. Each host
// demultiplexes them on its one goroutine into a slot window indexed by
// slot − floor, and drives each slot's acceptor or learner
// synchronously; an instance whose slot decides or falls below the
// floor is reset and reused for a later slot. No host creates a
// goroutine, channel, timer or ticker per slot. A host handles its inbox
// in bursts — the envelope it woke for plus whatever is queued behind
// it — and flushes its instances' sends at the end of the burst as one
// envelope per destination (a SlotBatch, or a bare SlotMsg): with many
// slots in flight, per-envelope transport cost, not protocol work,
// bounds throughput. A command costs one consensus round over a running
// cluster — the amortization BenchmarkSMRPipelined measures.
//
// Slots decide in the initial view: the replica never calls an
// acceptor's Expire, so the hosts run no Election module. View changes
// run on single instances under the lockstep sim.ConsensusCluster,
// whose driver counts the suspect timers in rounds.
//
// Proposer.Append allocates log slots; slots commit out of order, and
// Log.Prefix is the gap-free committed prefix. Each time the prefix
// grows by announceEvery slots the log host sends it to the replicas
// (PrefixMsg), and a replica's floor is the smallest prefix over all
// learners: a replica holds recent slots, not the whole log. Neither
// host opens state for a slot maxAhead or more above its floor. The sim
// package assembles a whole in-memory deployment as sim.SMRCluster.
package smr

import (
	"math/bits"
	"slices"
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

// outbox is the port a host's slot instances send through: the host
// sets slot before it steps an instance, and each send is collected as
// a SlotMsg for slot, in order, until flush sends the burst's messages
// as one envelope per destination. It has no inbox: the host feeds
// each instance from its own demultiplexing loop.
type outbox struct {
	port    transport.Port
	slot    int
	msgs    []SlotMsg
	dsts    []core.Set // dsts[i] is where msgs[i] goes
	scratch []SlotMsg  // one destination's share of a mixed flush
}

var _ transport.Port = (*outbox)(nil)

func (o *outbox) ID() core.ProcessID { return o.port.ID() }

func (o *outbox) Send(to core.ProcessID, payload transport.Message) {
	o.Broadcast(core.Set(0).Add(to), payload, 0)
}

func (o *outbox) SendHop(to core.ProcessID, payload transport.Message, _ int) {
	o.Send(to, payload)
}

func (o *outbox) SendBatch(to core.ProcessID, payloads []transport.Message, _ int) {
	for _, pl := range payloads {
		o.Send(to, pl)
	}
}

func (o *outbox) Broadcast(dst core.Set, payload transport.Message, _ int) {
	o.msgs = append(o.msgs, SlotMsg{Slot: o.slot, Payload: payload})
	o.dsts = append(o.dsts, dst)
}

func (o *outbox) Inbox() <-chan transport.Envelope { return nil }

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

// maxAhead bounds the window: a message for slot floor+maxAhead or
// later is dropped, so a forged slot number cannot make a host allocate
// in proportion to its distance.
const maxAhead = 1 << 16

// window is the one place a host keeps per-slot state: s[i] belongs to
// slot floor+i.
type window[T any] struct {
	floor int
	s     []T
}

// at returns slot n's state, or nil when n lies outside [floor,
// floor+maxAhead) or, unless open extends the window to it, past its end.
func (w *window[T]) at(n int, open bool) *T {
	i := n - w.floor
	if i < 0 || i >= maxAhead || i >= len(w.s) && !open {
		return nil
	}
	if i >= len(w.s) {
		w.s = append(w.s, make([]T, i+1-len(w.s))...)
	}
	return &w.s[i]
}

// advance raises the floor to f, handing retire (if any) each state it
// drops; the states above move down in place.
func (w *window[T]) advance(f int, retire func(*T)) {
	k := min(max(f-w.floor, 0), len(w.s))
	for i := 0; i < k && retire != nil; i++ {
		retire(&w.s[i])
	}
	n := copy(w.s, w.s[k:])
	clear(w.s[n:])
	w.s, w.floor = w.s[:n], max(w.floor, f)
}

// free is a host's stack of reset slot instances.
type free[T interface{ Reset() }] []T

// take pops a reset instance, or builds one when none is free.
func (f *free[T]) take(build func() T) T {
	if k := len(*f) - 1; k >= 0 {
		x := (*f)[k]
		*f = (*f)[:k]
		return x
	}
	return build()
}

// put resets x and keeps it for a later slot.
func (f *free[T]) put(x T) {
	x.Reset()
	*f = append(*f, x)
}

// Replica hosts the acceptor role for every slot. A slot's acceptor is
// opened by its first message from a proposer or an acceptor, driven on
// the replica's one goroutine, and recycled once the slot decides or
// falls below the floor.
type Replica struct {
	rqs    *core.RQS
	topo   consensus.Topology
	ring   *consensus.Keyring
	signer *consensus.Signer
	port   transport.Port
	done   chan struct{}

	// Owned by the replica's goroutine.
	out     outbox
	slots   window[slotState] // floor: min of learned over all learners
	free    free[*consensus.Acceptor]
	learned map[core.ProcessID]int // latest PrefixMsg.Upto per learner
}

// slotState is a slot's live acceptor or, once the slot has decided,
// only the value a decided acceptor answers decision pulls with.
type slotState struct {
	acc     *consensus.Acceptor
	v       consensus.Value
	decided bool
}

// NewReplica starts the acceptor host on the given port.
func NewReplica(rqs *core.RQS, topo consensus.Topology, port transport.Port,
	ring *consensus.Keyring, signer *consensus.Signer) *Replica {
	r := &Replica{
		rqs: rqs, topo: topo, ring: ring, signer: signer,
		port: port, done: make(chan struct{}),
		out:     outbox{port: port},
		learned: make(map[core.ProcessID]int),
	}
	go r.run()
	return r
}

// run executes every slot's acceptor on this one goroutine, one inbox
// burst at a time, and sends each burst's reactions as one envelope per
// destination. The slot window needs no lock — nothing else touches it.
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
	floor := m.Upto
	for v := uint64(r.topo.Learners); v != 0; v &= v - 1 {
		floor = min(floor, r.learned[bits.TrailingZeros64(v)])
	}
	r.slots.advance(floor, func(s *slotState) {
		if s.acc != nil {
			r.free.put(s.acc)
		}
	})
}

// deliver hands one slot message to the slot's acceptor. An acceptor
// that adopted a decision early stops forwarding update steps, but by
// then a full quorum has already broadcast every step and its decision,
// so lagging acceptors and learners still converge through decision
// messages.
func (r *Replica) deliver(n int, env transport.Envelope) {
	// A pull never opens a slot (a fresh acceptor has no decision), nor
	// a prepare from anyone but a proposer.
	_, pull := env.Payload.(consensus.DecisionPullMsg)
	_, prep := env.Payload.(consensus.PrepareMsg)
	open := !pull && (slices.Contains(r.topo.Proposers, env.From) || !prep && r.topo.Acceptors.Contains(env.From))
	switch s := r.slots.at(n, open); {
	case s == nil:
	case s.decided:
		if pull {
			r.out.slot = n
			r.out.Send(env.From, consensus.DecisionMsg{V: s.v})
		}
	case s.acc != nil || open:
		if s.acc == nil {
			s.acc = r.free.take(r.newAcceptor)
		}
		r.out.slot = n
		s.acc.HandleEnvelope(env)
		if v, ok := s.acc.Decided(); ok {
			r.free.put(s.acc)
			*s = slotState{v: v, decided: true}
		}
	}
}

func (r *Replica) newAcceptor() *consensus.Acceptor {
	return consensus.NewAcceptor(r.rqs, r.topo, &r.out, r.ring, r.signer)
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
	outs sync.Pool    // *outbox, one per Propose call in progress
	done chan struct{}
}

// NewProposer starts the proposer host on the given port.
func NewProposer(topo consensus.Topology, port transport.Port) *Proposer {
	p := &Proposer{topo: topo, port: port, done: make(chan struct{})}
	p.outs.New = func() any { return &outbox{port: port} }
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
// as one batch per acceptor, built in an outbox the call takes from a
// pool: concurrent calls share nothing, and buffers are reused.
func (p *Proposer) Propose(slot int, cmd consensus.Value) {
	out := p.outs.Get().(*outbox)
	out.slot = slot
	consensus.ProposeInitial(out, p.topo, cmd)
	out.flush()
	p.outs.Put(out)
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

// announceEvery is how far the log host's learned prefix grows between
// two PrefixMsg announcements to the replicas.
const announceEvery = 256

// Log hosts the learner role and assembles the committed command log.
// A slot's learner is opened by its first message from an acceptor,
// driven on the log's one goroutine, and recycled once the slot's entry
// is recorded; later messages for the slot are discarded.
type Log struct {
	rqs       *core.RQS
	topo      consensus.Topology
	port      transport.Port
	pullEvery time.Duration
	done      chan struct{}

	// Owned by the host's goroutine.
	out       outbox
	learners  window[learnerSlot] // floor: prefix
	free      free[*consensus.Learner]
	announced int // the prefix last sent to the replicas

	mu       sync.Mutex
	entries  []entry // by slot
	watchers map[int][]chan consensus.Value
	prefix   int // every slot below it is recorded; written only by the host's goroutine
}

// learnerSlot is a slot's learner, or marks the slot recorded.
type learnerSlot struct {
	lr       *consensus.Learner
	since    time.Time // when lr was opened
	recorded bool
}

type entry struct {
	v        consensus.Value
	recorded bool
}

// NewLog starts the learner host on the given port. Every pullEvery it
// asks the acceptors to re-send their decision for each slot that has
// gone unlearned for at least that long, so a log host that missed a
// slot's update stream catches up; pullEvery 0 disables the pulls.
// Each time its learned prefix grows by announceEvery slots, it sends
// the prefix to the replicas, which retire the slots below it.
func NewLog(rqs *core.RQS, topo consensus.Topology, port transport.Port, pullEvery time.Duration) *Log {
	l := &Log{
		rqs: rqs, topo: topo, port: port, pullEvery: pullEvery,
		done:     make(chan struct{}),
		out:      outbox{port: port},
		watchers: make(map[int][]chan consensus.Value),
	}
	go l.run()
	return l
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
			for i := range l.learners.s {
				if u := &l.learners.s[i]; u.lr != nil && now.Sub(u.since) >= l.pullEvery {
					l.out.slot = l.learners.floor + i
					u.lr.Pull()
				}
			}
			l.out.flush()
		case env, ok := <-l.port.Inbox():
			if !ok {
				return
			}
			open := burst(l.port.Inbox(), env, func(env transport.Envelope) { eachSlotMsg(env, l.deliver) })
			l.out.flush()
			if l.prefix >= l.announced+announceEvery {
				l.announced = l.prefix
				transport.Broadcast(l.port, l.topo.Acceptors, PrefixMsg{Upto: l.prefix})
			}
			if !open {
				return
			}
		}
	}
}

// deliver hands one slot message to the slot's learner.
func (l *Log) deliver(slot int, env transport.Envelope) {
	if !l.topo.Acceptors.Contains(env.From) {
		return // a learner hears only acceptors
	}
	u := l.learners.at(slot, true)
	if u == nil || u.recorded {
		return
	}
	if u.lr == nil {
		u.lr, u.since = l.free.take(l.newLearner), time.Now()
	}
	l.out.slot = slot
	if res, ok := u.lr.HandleEnvelope(env); ok {
		l.free.put(u.lr)
		*u = learnerSlot{recorded: true}
		l.record(slot, res.V)
		l.learners.advance(l.prefix, nil)
	}
}

func (l *Log) newLearner() *consensus.Learner { return consensus.NewLearner(l.rqs, l.topo, &l.out) }

// record commits a slot's entry and releases its waiters.
func (l *Log) record(slot int, v consensus.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if slot >= len(l.entries) {
		l.entries = append(l.entries, make([]entry, slot+1-len(l.entries))...)
	}
	l.entries[slot] = entry{v: v, recorded: true}
	for l.prefix < len(l.entries) && l.entries[l.prefix].recorded {
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
	return l.lookup(slot)
}

// lookup is Get with l.mu held.
func (l *Log) lookup(slot int) (consensus.Value, bool) {
	if slot < 0 || slot >= len(l.entries) {
		return consensus.None, false
	}
	return l.entries[slot].v, l.entries[slot].recorded
}

// Wait blocks until a slot commits or the timeout elapses. A Wait that
// times out leaves nothing behind.
func (l *Log) Wait(slot int, timeout time.Duration) (consensus.Value, bool) {
	l.mu.Lock()
	if v, ok := l.lookup(slot); ok {
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
	if v, ok := l.lookup(slot); ok { // committed as the timer fired
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
	out := make([]consensus.Value, l.prefix)
	for slot := range out {
		out[slot] = l.entries[slot].v
	}
	return out
}

// Stop waits for the log host's goroutine to exit. Call after the
// network closes.
func (l *Log) Stop() { <-l.done }
