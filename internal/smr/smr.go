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
// goroutine, channel, timer or ticker per slot. Deciding a command
// therefore costs one consensus round over an already-running cluster
// instead of a full cluster setup — the amortization BenchmarkSMRPipelined
// measures against the per-slot-setup baseline.
//
// Slots decide in the initial view: the hosts do not run the Election
// module, whose view changes the consensus package and
// sim.ConsensusCluster exercise on single instances.
//
// Proposer.Append allocates log slots; many slots may be in flight at
// once and commit out of order, with Log.Prefix exposing the gap-free
// committed prefix. The sim package assembles a whole in-memory
// deployment as sim.SMRCluster.
package smr

import (
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

// slotPort is one slot's view of its host's port: sends wrap payloads
// in SlotMsg on the shared port. It has no inbox — the host feeds the
// slot's instance from its own demultiplexing loop.
type slotPort struct {
	real transport.Port
	slot int
}

var _ transport.Port = (*slotPort)(nil)

func (p *slotPort) ID() core.ProcessID { return p.real.ID() }

func (p *slotPort) Send(to core.ProcessID, payload transport.Message) {
	p.real.Send(to, SlotMsg{Slot: p.slot, Payload: payload})
}

func (p *slotPort) SendHop(to core.ProcessID, payload transport.Message, hop int) {
	p.real.SendHop(to, SlotMsg{Slot: p.slot, Payload: payload}, hop)
}

func (p *slotPort) SendBatch(to core.ProcessID, payloads []transport.Message, hop int) {
	wrapped := make([]transport.Message, len(payloads))
	for i, pl := range payloads {
		wrapped[i] = SlotMsg{Slot: p.slot, Payload: pl}
	}
	p.real.SendBatch(to, wrapped, hop)
}

// Broadcast wraps the payload once and fans it out through the real
// port's batched broadcast, so a consensus instance's per-quorum
// fan-out costs one transport acceptance per burst even when
// multiplexed by slot.
func (p *slotPort) Broadcast(dst core.Set, payload transport.Message, hop int) {
	p.real.Broadcast(dst, SlotMsg{Slot: p.slot, Payload: payload}, hop)
}

func (p *slotPort) Inbox() <-chan transport.Envelope { return nil }

// Replica hosts the acceptor role for every slot: a slot's acceptor is
// created when the slot's first message arrives and is driven
// synchronously on the replica's one goroutine.
type Replica struct {
	rqs    *core.RQS
	topo   consensus.Topology
	ring   *consensus.Keyring
	signer *consensus.Signer
	hooks  consensus.Hooks // installed on every slot acceptor (chaos injection)
	port   transport.Port
	done   chan struct{}
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
	}
	go r.run()
	return r
}

// run demultiplexes and executes every slot's acceptor on this one
// goroutine. The slot maps need no lock — nothing else touches them.
//
// Decided slots are retired: the acceptor's whole protocol state is
// replaced by a tombstone holding its decided value, which is all a
// decided acceptor ever uses again (answering decision pulls). A
// tombstone is kept for every slot the replica ever decided. An
// acceptor that adopted a decision early stops forwarding update
// steps, but by then a full quorum has already broadcast every step
// and its decision, so lagging acceptors and learners still converge
// through decision messages.
func (r *Replica) run() {
	defer close(r.done)
	acceptors := make(map[int]*consensus.Acceptor)
	decided := make(map[int]consensus.Value)
	for env := range r.port.Inbox() {
		sm, ok := env.Payload.(SlotMsg)
		if !ok {
			continue
		}
		// Live slots first: the tombstone map holds every slot ever
		// decided, so probing it for each message costs cache misses.
		a, ok := acceptors[sm.Slot]
		if !ok {
			if v, ok := decided[sm.Slot]; ok {
				if _, isPull := sm.Payload.(consensus.DecisionPullMsg); isPull {
					r.port.Send(env.From, SlotMsg{Slot: sm.Slot, Payload: consensus.DecisionMsg{V: v}})
				}
				continue
			}
			a = consensus.NewAcceptor(r.rqs, r.topo,
				&slotPort{real: r.port, slot: sm.Slot}, r.ring, r.signer, consensus.ElectionConfig{})
			a.SetHooks(r.hooks)
			acceptors[sm.Slot] = a
		}
		env.Payload = sm.Payload
		a.HandleEnvelope(env)
		if v, ok := a.Decided(); ok {
			decided[sm.Slot] = v
			delete(acceptors, sm.Slot)
		}
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

// Propose submits a command for a log slot.
func (p *Proposer) Propose(slot int, cmd consensus.Value) {
	consensus.ProposeInitial(&slotPort{real: p.port, slot: slot}, p.topo, cmd)
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
	learners  map[int]unlearned // owned by the host's goroutine

	mu       sync.Mutex
	entries  map[int]consensus.Value
	watchers map[int][]chan consensus.Value
}

// NewLog starts the learner host on the given port. Every pullEvery
// (0 disables pulling) it asks the acceptors to re-send their decision
// for each slot that has gone unlearned for at least that long, so a
// log host that missed a slot's update stream catches up.
func NewLog(rqs *core.RQS, topo consensus.Topology, port transport.Port, pullEvery time.Duration) *Log {
	l := &Log{
		rqs: rqs, topo: topo, port: port, pullEvery: pullEvery,
		done:     make(chan struct{}),
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
		case env, ok := <-l.port.Inbox():
			if !ok {
				return
			}
			sm, ok := env.Payload.(SlotMsg)
			if !ok {
				continue
			}
			u, ok := l.learners[sm.Slot]
			if !ok {
				if _, done := l.Get(sm.Slot); done {
					continue // a straggler for a recorded slot
				}
				u = unlearned{
					lr:    consensus.NewLearner(l.rqs, l.topo, &slotPort{real: l.port, slot: sm.Slot}, 0),
					since: time.Now(),
				}
				l.learners[sm.Slot] = u
			}
			env.Payload = sm.Payload
			if res, ok := u.lr.HandleEnvelope(env); ok {
				delete(l.learners, sm.Slot)
				l.record(sm.Slot, res.V)
			}
		}
	}
}

// record commits a slot's entry and releases its waiters.
func (l *Log) record(slot int, v consensus.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries[slot] = v
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
	for slot := 0; ; slot++ {
		v, ok := l.entries[slot]
		if !ok {
			return out
		}
		out = append(out, v)
	}
}

// Stop waits for the log host's goroutine to exit. Call after the
// network closes.
func (l *Log) Stop() { <-l.done }
