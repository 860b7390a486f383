package consensus

import (
	"math/bits"

	"repro/internal/core"
)

// Topology names the three process roles of the framework (Section 4.1):
// acceptors form the RQS universe; proposers and learners are disjoint
// from them.
type Topology struct {
	Acceptors core.Set
	Proposers []core.ProcessID
	Learners  core.Set
}

// Leader returns the leader of a view: proposers[view mod |proposers|].
func (t Topology) Leader(view int) core.ProcessID {
	return t.Proposers[view%len(t.Proposers)]
}

// decider tracks received update messages and fires the decision rules of
// lines 51-53 (Figure 10), shared by acceptors and learners:
//
//	update1〈v, view, *〉 from a class-1 quorum → decide v (2 delays)
//	update2〈v, view, Q2〉 from exactly Q2 ∈ QC2 → decide v (3 delays)
//	update3〈v, view, *〉 from any quorum       → decide v (4 delays)
//
// Quorum containment is tracked incrementally per (value, view) key, so
// each received update costs O(quorums-containing-sender) instead of a
// rescan of the quorum list. The per-step maps are created on first
// write: a pipelined host builds one decider per slot and retires the
// slot once it decides, often before any step-2 or step-3 message.
type decider struct {
	rqs *core.RQS
	idx *core.QuorumIndex
	// senders[step][key] records who sent which update and at what hop.
	upd1 map[vwKey]*senderRec
	upd2 map[vwqKey]*senderRec
	upd3 map[vwKey]*senderRec
}

type vwKey struct {
	v Value
	w int
}

type vwqKey struct {
	v Value
	w int
	q core.Set
}

// senderRec records who sent one particular update message, and the
// lowest hop each sender's copy arrived at. Tracker-backed records
// (upd1/upd3) also feed the senders to a quorum tracker; upd2 only
// needs an O(1) subset test against the named quorum, so it has none.
type senderRec struct {
	tr   *core.QuorumTracker // nil when containment isn't needed (upd2)
	seen core.Set
	hops [core.MaxProcesses]int // hops[id] is meaningful iff seen ∋ id
}

func newDecider(rqs *core.RQS) decider {
	return decider{rqs: rqs, idx: rqs.Index()}
}

// add records from's copy. from must lie in [0, core.MaxProcesses):
// every caller has checked it against the acceptor set.
func (r *senderRec) add(from core.ProcessID, hop int) {
	if r.tr != nil {
		r.tr.Add(from)
	}
	if !r.seen.Contains(from) || hop < r.hops[from] {
		r.hops[from] = hop
	}
	r.seen = r.seen.Add(from)
}

// maxHopOver returns the largest hop among members of q: the message
// delay at which the triggering quorum completed.
func (r *senderRec) maxHopOver(q core.Set) int {
	hop := 0
	for v := uint64(q & r.seen); v != 0; v &= v - 1 {
		if h := r.hops[bits.TrailingZeros64(v)]; h > hop {
			hop = h
		}
	}
	return hop
}

// rec returns the record for k in *m, creating the map and a record
// with a quorum tracker over idx (none when idx is nil) if absent.
func rec[K comparable](m *map[K]*senderRec, k K, idx *core.QuorumIndex) *senderRec {
	r, ok := (*m)[k]
	if !ok {
		if *m == nil {
			*m = make(map[K]*senderRec)
		}
		r = &senderRec{}
		if idx != nil {
			r.tr = idx.NewTracker()
		}
		(*m)[k] = r
	}
	return r
}

// decision is a fired decision with its message-delay depth.
type decision struct {
	v    Value
	hops int
}

// record notes an update message from an acceptor and reports whether
// its record now satisfies that step's decision rule. Messages from
// processes outside the acceptor set are ignored. Callers record every
// update, so only the record the message lands in can newly satisfy a
// rule; the others were checked when they last changed.
func (d *decider) record(from core.ProcessID, m UpdateMsg, hop int) (decision, bool) {
	if !d.rqs.Universe().Contains(from) {
		return decision{}, false
	}
	switch m.Step {
	case 1:
		// Line 51: same update1 from a class-1 quorum.
		r := rec(&d.upd1, vwKey{m.V, m.View}, d.idx)
		r.add(from, hop)
		if q, ok := r.tr.Contained(core.Class1); ok {
			return decision{v: m.V, hops: r.maxHopOver(q)}, true
		}
	case 2:
		// Line 52: same update2〈v, view, Q2〉 from exactly the class-2
		// quorum Q2 named in the message — an O(1) subset test, so the
		// record needs no tracker.
		r := rec(&d.upd2, vwqKey{m.V, m.View, m.Q}, nil)
		r.add(from, hop)
		if cls, listed := d.idx.ClassOf(m.Q); listed && cls <= core.Class2 && m.Q.SubsetOf(r.seen) {
			return decision{v: m.V, hops: r.maxHopOver(m.Q)}, true
		}
	case 3:
		// Line 53: same update3 from any quorum.
		r := rec(&d.upd3, vwKey{m.V, m.View}, d.idx)
		r.add(from, hop)
		if q, ok := r.tr.Contained(core.Class3); ok {
			return decision{v: m.V, hops: r.maxHopOver(q)}, true
		}
	}
	return decision{}, false
}
