// Package adversary models Byzantine processes the way the paper's
// adversary structure does: as arbitrary senders. A wrapper turns one
// process Byzantine by rewriting what it sends through its
// transport.Port, while the process itself runs the honest protocol
// code unchanged. A lockstep port (sim.Lockstep) is a Port too, so the
// same wrappers serve the seeded step-function runs, the goroutine
// clusters on both transports and the chaos matrix.
package adversary

import (
	"strings"
	"sync"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/smr"
	"repro/internal/storage"
	"repro/internal/transport"
)

// Wrap turns one process Byzantine: it wraps the process's honest port.
type Wrap func(transport.Port) transport.Port

// Rewrite decides what a Byzantine process sends to `to` in place of m:
// it calls send once per message sent, or not at all to withhold m.
type Rewrite func(to core.ProcessID, m transport.Message, send func(transport.Message))

// Port returns p with every message it sends passed through rw, one
// destination at a time: a broadcast becomes one send per member, so a
// rewrite can tell each destination something different.
func Port(p transport.Port, rw Rewrite) transport.Port { return &port{Port: p, rw: rw} }

type port struct {
	transport.Port
	rw Rewrite
}

func (p *port) Send(to core.ProcessID, m transport.Message) { p.SendHop(to, m, 0) }

func (p *port) SendHop(to core.ProcessID, m transport.Message, hop int) {
	p.rw(to, m, func(m transport.Message) { p.Port.SendHop(to, m, hop) })
}

func (p *port) SendBatch(to core.ProcessID, ms []transport.Message, hop int) {
	for _, m := range ms {
		p.SendHop(to, m, hop)
	}
}

func (p *port) Broadcast(dst core.Set, m transport.Message, hop int) {
	for _, to := range dst.Members() {
		p.SendHop(to, m, hop)
	}
}

// ForgeReadAcks makes a storage server ship f's rows in each SWMR read
// ack instead of its history suffix: forged, stripped of their quorum
// ids, or none. f may rewrite the rows it is given but must not write
// through their Sets slices, which the server's history shares.
func ForgeReadAcks(p transport.Port, f func(to core.ProcessID, rows []storage.TSRow) []storage.TSRow) transport.Port {
	return Port(p, func(to core.ProcessID, m transport.Message, send func(transport.Message)) {
		if a, ok := m.(storage.ReadAck); ok {
			a.Rows = f(to, a.Rows)
			m = a
		}
		send(m)
	})
}

// ForgeMWReadAcks makes a storage server send f's ack in place of each
// MWMR read ack: a stale tag denies completed writes, a fabricated one
// invents them. A forger holds no writer's key, so on an authenticated
// deployment verifying clients discard what it forges.
func ForgeMWReadAcks(p transport.Port, f func(to core.ProcessID, ack storage.MWReadAck) storage.MWReadAck) transport.Port {
	return Port(p, func(to core.ProcessID, m transport.Message, send func(transport.Message)) {
		if a, ok := m.(storage.MWReadAck); ok {
			m = f(to, a)
		}
		send(m)
	})
}

// ReplayMWReadAcks makes a storage server answer every MWMR read of a
// key, once it has served one full read of that key, with the first
// ack it sent for the key, only the Seq rewritten: an old, once-valid
// reply re-served as fresh. The writer signature on the stale pair
// still verifies; the server countersignature binds the original Seq,
// which exposes the replay to an authenticated client.
//
// An ack names no key, so the wrapper reads the requests off the inbox
// it relays to the server: the server must consume Inbox (Start), not
// be driven through HandleEnvelope. The relay goroutine is p's only
// reader until p's inbox closes.
func ReplayMWReadAcks(p transport.Port) transport.Port {
	in := p.Inbox()
	// As deep as the inbox it relays, so a burst still queues in full.
	r := &replay{inbox: make(chan transport.Envelope, cap(in)),
		reads: make(map[readID]storage.MWReadReq), first: make(map[string]storage.MWReadAck)}
	r.port = port{Port: p, rw: r.rewrite}
	go r.relay(in)
	return r
}

type replay struct {
	port
	inbox chan transport.Envelope

	mu    sync.Mutex
	reads map[readID]storage.MWReadReq // unanswered reads
	first map[string]storage.MWReadAck // the first full ack, by key
}

// readID names one read: clients number their own requests.
type readID struct {
	from core.ProcessID
	seq  int64
}

func (r *replay) Inbox() <-chan transport.Envelope { return r.inbox }

// relay hands the server its inbox, noting each MWMR read on the way.
func (r *replay) relay(in <-chan transport.Envelope) {
	defer close(r.inbox)
	for env := range in {
		if req, ok := env.Payload.(storage.MWReadReq); ok {
			req.Key = strings.Clone(req.Key) // may alias a receive arena
			r.mu.Lock()
			r.reads[readID{env.From, req.Seq}] = req
			r.mu.Unlock()
		}
		r.inbox <- env
	}
}

func (r *replay) rewrite(to core.ProcessID, m transport.Message, send func(transport.Message)) {
	if a, ok := m.(storage.MWReadAck); ok {
		r.mu.Lock()
		req, known := r.reads[readID{to, a.Seq}]
		delete(r.reads, readID{to, a.Seq})
		if first, ok := r.first[req.Key]; known && ok {
			first.Seq = a.Seq
			m = first
		} else if known && !req.TagOnly {
			r.first[req.Key] = a
		}
		r.mu.Unlock()
	}
	send(m)
}

// ForgeSlotMsgs makes an SMR replica rewrite, per destination, every
// consensus update and decision inside the SlotMsg and SlotBatch
// envelopes it sends: f returns the message to send in m's place, or
// nil to withhold it. A replica that tells different peers different
// values equivocates; the class-3 intersection masks it.
func ForgeSlotMsgs(p transport.Port, f func(to core.ProcessID, m transport.Message) transport.Message) transport.Port {
	forge := func(to core.ProcessID, sm smr.SlotMsg) (smr.SlotMsg, bool) {
		switch sm.Payload.(type) {
		case consensus.UpdateMsg, consensus.DecisionMsg:
			sm.Payload = f(to, sm.Payload)
		}
		return sm, sm.Payload != nil
	}
	return Port(p, func(to core.ProcessID, m transport.Message, send func(transport.Message)) {
		switch e := m.(type) {
		case smr.SlotMsg:
			if sm, ok := forge(to, e); ok {
				send(sm)
			}
		case smr.SlotBatch:
			var out []smr.SlotMsg
			for _, sm := range e.Msgs {
				if sm, ok := forge(to, sm); ok {
					out = append(out, sm)
				}
			}
			if len(out) > 0 {
				send(smr.SlotBatch{Msgs: out})
			}
		default:
			send(m)
		}
	})
}

// EquivocatePrepare makes a proposer follow each prepare of the given
// view that it sends to a member of dst with a second one for v,
// carrying the same proof: a leader that prepares twice in one view.
// Only the one-prepare-per-view guard of Figure 15 (line 31) keeps an
// honest acceptor from echoing both.
func EquivocatePrepare(p transport.Port, view int, dst core.Set, v consensus.Value) transport.Port {
	return Port(p, func(to core.ProcessID, m transport.Message, send func(transport.Message)) {
		send(m)
		if pm, ok := m.(consensus.PrepareMsg); ok && pm.View == view && dst.Contains(to) {
			pm.V = v
			send(pm)
		}
	})
}
