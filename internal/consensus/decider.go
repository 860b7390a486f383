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
// Quorum containment is tracked incrementally per (value, view) record,
// so each received update costs O(quorums-containing-sender) instead of
// a rescan of the quorum list. The records are short lists (flat.go): a
// pipelined host drives one decider per slot in flight, usually holding
// one record per step, and recycles it once the slot decides.
type decider struct {
	rqs *core.RQS
	idx *core.QuorumIndex
	// upd<step> records who sent which update. upd2 keeps a record per
	// attached class-1 or class-2 quorum and needs no tracker: its rule
	// is an O(1) subset test against the named quorum.
	upd1, upd2, upd3 votes
}

func newDecider(rqs *core.RQS) decider {
	idx := rqs.Index()
	return decider{rqs: rqs, idx: idx, upd1: votes{idx: idx}, upd3: votes{idx: idx}}
}

// reset empties the records for a recycled instance.
func (d *decider) reset() decider {
	return decider{rqs: d.rqs, idx: d.idx, upd1: d.upd1.reset(), upd2: d.upd2.reset(), upd3: d.upd3.reset()}
}

// record notes an update message from an acceptor and reports whether
// its record now satisfies the decision rule of step m.Step. Messages
// from processes outside the acceptor set are ignored, and so are the
// copies votes.count drops. Callers record every update, so only the
// record the message lands in can newly satisfy a rule; the others were
// checked when they last changed.
func (d *decider) record(from core.ProcessID, m UpdateMsg) bool {
	if !d.rqs.Universe().Contains(from) {
		return false
	}
	switch m.Step {
	case 1:
		// Line 51: same update1 from a class-1 quorum.
		r := d.upd1.count(from, voteKey{v: m.V, w: m.View})
		if r == nil {
			return false
		}
		_, ok := r.tr.Contained(core.Class1)
		return ok
	case 2:
		// Line 52: same update2〈v, view, Q2〉 from exactly the class-2
		// quorum Q2 named in the message. Any other attached set can
		// never satisfy the rule, so it is not recorded.
		if cls, listed := d.idx.ClassOf(m.Q); !listed || cls > core.Class2 {
			return false
		}
		r := d.upd2.count(from, voteKey{m.V, m.View, m.Q})
		return r != nil && m.Q.SubsetOf(r.seen)
	case 3:
		// Line 53: same update3 from any quorum.
		r := d.upd3.count(from, voteKey{v: m.V, w: m.View})
		if r == nil {
			return false
		}
		_, ok := r.tr.Contained(core.Class3)
		return ok
	}
	return false
}
