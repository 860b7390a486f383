package consensus

import "repro/internal/core"

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
//	update1〈v, view, *〉 from a class-1 quorum → decide v (step 1, 2 delays)
//	update2〈v, view, Q2〉 from exactly Q2 ∈ QC2 → decide v (step 2, 3 delays)
//	update3〈v, view, *〉 from any quorum       → decide v (step 3, 4 delays)
//
// Quorum containment is tracked incrementally per (value, view) key, so
// each received update costs O(quorums-containing-sender) instead of a
// rescan of the quorum list. The per-step maps are created on first
// write: a pipelined host builds one decider per slot and retires the
// slot once it decides, often before any step-2 or step-3 message.
type decider struct {
	rqs *core.RQS
	idx *core.QuorumIndex
	// upd<step>[key] records who sent which update.
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

// senderRec records who sent one particular update message.
// Tracker-backed records (upd1/upd3) also feed the senders to a quorum
// tracker; upd2 only needs an O(1) subset test against the named
// quorum, so it has none.
type senderRec struct {
	tr   *core.QuorumTracker // nil when containment isn't needed (upd2)
	seen core.Set
}

func newDecider(rqs *core.RQS) decider {
	return decider{rqs: rqs, idx: rqs.Index()}
}

// add records from's copy. from must lie in [0, core.MaxProcesses):
// every caller has checked it against the acceptor set.
func (r *senderRec) add(from core.ProcessID) {
	if r.tr != nil {
		r.tr.Add(from)
	}
	r.seen = r.seen.Add(from)
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

// record notes an update message from an acceptor and reports whether
// its record now satisfies the decision rule of step m.Step. Messages
// from processes outside the acceptor set are ignored. Callers record
// every update, so only the record the message lands in can newly
// satisfy a rule; the others were checked when they last changed.
func (d *decider) record(from core.ProcessID, m UpdateMsg) bool {
	if !d.rqs.Universe().Contains(from) {
		return false
	}
	switch m.Step {
	case 1:
		// Line 51: same update1 from a class-1 quorum.
		r := rec(&d.upd1, vwKey{m.V, m.View}, d.idx)
		r.add(from)
		_, ok := r.tr.Contained(core.Class1)
		return ok
	case 2:
		// Line 52: same update2〈v, view, Q2〉 from exactly the class-2
		// quorum Q2 named in the message — an O(1) subset test, so the
		// record needs no tracker.
		r := rec(&d.upd2, vwqKey{m.V, m.View, m.Q}, nil)
		r.add(from)
		cls, listed := d.idx.ClassOf(m.Q)
		return listed && cls <= core.Class2 && m.Q.SubsetOf(r.seen)
	case 3:
		// Line 53: same update3 from any quorum.
		r := rec(&d.upd3, vwKey{m.V, m.View}, d.idx)
		r.add(from)
		_, ok := r.tr.Contained(core.Class3)
		return ok
	}
	return false
}
