package consensus

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Durability layer of the acceptor: a wal.Log under the promise/accept
// state of Figure 15. Consensus safety rests on an acceptor never
// forgetting a promise it echoed — if prep/update state evaporates in
// a kill -9, a recovered acceptor can help a later view decide a
// conflicting value. The rule here is therefore write-ahead in the
// strict sense: every outgoing message a handler produces is deferred
// (queued on a port wrapper) until the state that message vouches for
// has been fsynced; if the log fails, the queued messages are dropped
// and the acceptor goes mute, which is indistinguishable from a crash
// and always safe.
//
// Each record is the complete AcceptorState (it is a few hundred bytes
// — view numbers, one value per step, view sets), so replay keeps only
// the last record and compaction is trivial: the newest record IS the
// snapshot. Not persisted, deliberately:
//   - old (which update messages were sent): forgetting it only
//     makes the recovered acceptor refuse to countersign old updates
//     (onSignReq), which errs on the safe, mute side.
//   - updateQ / updateproof / upd2From: quorum bookkeeping and signature
//     sets that peers re-supply; losing them costs extra round trips
//     after a new-view, never safety.
//   - election timers/backoff: liveness state, re-armed on traffic.

// AcceptorState is the durable promise/accept state of one acceptor:
// everything the safety argument requires a recovering acceptor to
// remember.
type AcceptorState struct {
	View       int
	Prep       Value
	Prepview   []int
	Update     [2]Value
	Updateview [2][]int
	Decided    bool
	DecidedVal Value
}

var registerConsensusWALOnce sync.Once

func registerConsensusWALTypes() {
	registerConsensusWALOnce.Do(func() { transport.Register(AcceptorState{}) })
}

// NewDurableAcceptor builds an acceptor whose promise/accept state is
// backed by a write-ahead log in dir, recovering any state a previous
// incarnation committed there. Outgoing messages are deferred until
// the state they witness is durable. The log stays open for the
// acceptor's lifetime.
func NewDurableAcceptor(rqs *core.RQS, topo Topology, port transport.Port, ring *Keyring, signer *Signer, dir string) (*Acceptor, error) {
	registerConsensusWALTypes()
	dp := &deferPort{inner: port}
	a := NewAcceptor(rqs, topo, dp, ring, signer)
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	restore := func(b []byte) error {
		m, err := transport.DecodeMessage(b)
		if err != nil {
			return err
		}
		st, ok := m.(AcceptorState)
		if !ok {
			return fmt.Errorf("consensus: wal record holds %T, want AcceptorState", m)
		}
		a.restoreState(st) // last record wins
		return nil
	}
	if err := l.Replay(restore, restore); err != nil {
		l.Close()
		return nil, err
	}
	a.wal = l
	a.dp = dp
	a.maxSegments = 4
	return a, nil
}

// PersistentState captures the durable slice of the acceptor's state.
// It is what each WAL record holds; exported for recovery assertions
// in tests. Like every step, the caller serializes it with the
// acceptor's other calls.
func (a *Acceptor) PersistentState() AcceptorState {
	st := AcceptorState{
		View:       a.view,
		Prep:       a.prep,
		Prepview:   sortedViews(a.prepview),
		Update:     a.update,
		Decided:    a.hasDecided,
		DecidedVal: a.decidedVal,
	}
	for s := 0; s < 2; s++ {
		st.Updateview[s] = sortedViews(a.updateview[s])
	}
	return st
}

func (a *Acceptor) restoreState(st AcceptorState) {
	a.view = st.View
	a.prep = st.Prep
	a.prepview = viewSet(st.Prepview)
	a.update = st.Update
	for s := 0; s < 2; s++ {
		a.updateview[s] = viewSet(st.Updateview[s])
	}
	a.hasDecided = st.Decided
	a.decidedVal = st.DecidedVal
	a.nextView = st.View
}

func viewSet(views []int) flatSet[int] {
	var s flatSet[int]
	for _, w := range views {
		s.add(w)
	}
	return s
}

// persistAndFlush runs after every step: if the event dirtied
// durable state, append + fsync one full-state record, then release
// the deferred sends. On a volatile acceptor it is a no-op (the port
// is not wrapped, sends already left inline).
func (a *Acceptor) persistAndFlush() {
	if a.dp == nil {
		return
	}
	if a.walFailed {
		a.dp.drop()
		return
	}
	if a.dirty {
		a.dirty = false
		rec, err := transport.EncodeMessage(a.walBuf[:0], a.PersistentState())
		if err == nil {
			a.walBuf = rec
			a.wal.Append(rec)
			err = a.wal.Sync()
		}
		if err != nil {
			// Never let a message vouch for state that did not commit:
			// drop this event's sends and every later one (mute ≡ crash).
			a.walFailed = true
			a.dp.drop()
			return
		}
		if a.wal.Segments() > a.maxSegments {
			_ = a.wal.Compact(rec) // newest record is the snapshot
		}
	}
	a.dp.flush()
}

// deferPort queues outgoing traffic until the handler's state change
// is durable. Inbox and ID pass through; sends replay in order on
// flush, each as a broadcast to its destination set.
type deferPort struct {
	inner transport.Port
	queue []deferredSend
}

type deferredSend struct {
	dst     core.Set
	payload transport.Message
}

func (p *deferPort) ID() core.ProcessID               { return p.inner.ID() }
func (p *deferPort) Inbox() <-chan transport.Envelope { return p.inner.Inbox() }

func (p *deferPort) Send(to core.ProcessID, payload transport.Message) {
	p.Broadcast(core.Set(0).Add(to), payload, 0)
}

func (p *deferPort) SendHop(to core.ProcessID, payload transport.Message, _ int) {
	p.Send(to, payload)
}

func (p *deferPort) SendBatch(to core.ProcessID, payloads []transport.Message, _ int) {
	for _, pl := range payloads {
		p.Send(to, pl)
	}
}

func (p *deferPort) Broadcast(dst core.Set, payload transport.Message, _ int) {
	p.queue = append(p.queue, deferredSend{dst: dst, payload: payload})
}

func (p *deferPort) flush() {
	for _, s := range p.queue {
		transport.Broadcast(p.inner, s.dst, s.payload)
	}
	p.drop()
}

func (p *deferPort) drop() {
	clear(p.queue)
	p.queue = p.queue[:0]
}
