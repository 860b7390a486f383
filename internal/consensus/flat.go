package consensus

import (
	"slices"

	"repro/internal/core"
)

// Per-slot protocol state is kept in short slices scanned linearly, not
// in maps. A pipelined host drives one acceptor or learner per log slot
// in flight and recycles it with its lists (Acceptor.Reset), and a slot
// that decides in the initial view holds one key per step: checking one
// entry (an int compare, or a string compare that is immediate when
// both strings share a pointer) is cheaper than hashing a command, and a
// slice costs at most one allocation where a small map costs two, none
// once recycled. The lists stay short under Byzantine input too: votes
// counts a sender for one value in one view.

// flatSet is a small set kept as a slice in insertion order. Its first
// add reserves room for flatCap keys, so that one allocation holds the
// whole set in the common case: the update messages one view sends, or
// the quorums a view's update1 messages cover.
type flatSet[K comparable] []K

const flatCap = 4

func (s flatSet[K]) has(k K) bool { return slices.Contains(s, k) }

func (s *flatSet[K]) add(k K) {
	if s.has(k) {
		return
	}
	if cap(*s) == 0 {
		*s = make(flatSet[K], 0, flatCap)
	}
	*s = append(*s, k)
}

func (s *flatSet[K]) remove(k K) {
	if i := slices.Index(*s, k); i >= 0 {
		*s = slices.Delete(*s, i, i+1)
	}
}

// emptied returns s emptied for reuse, its whole backing array zeroed
// so that nothing of a recycled instance stays reachable through it.
func emptied[S ~[]E, E any](s S) S {
	clear(s[:cap(s)])
	return s[:0]
}

// voteKey names one message that votes are counted for: update_step〈v,
// w, q〉, with q zero where the attached quorum does not matter, or
// decision〈v〉 with w and q zero.
type voteKey struct {
	v Value
	w int
	q core.Set
}

// voteRec records who sent one particular message. A tracked record
// also feeds its senders to a quorum tracker.
type voteRec struct {
	voteKey
	seen core.Set
	tr   core.QuorumTracker // zero unless the list is tracked
}

// votes is the record list of one kind of message.
type votes struct {
	idx  *core.QuorumIndex // nil: records keep no tracker
	recs []voteRec
}

// reset empties the list for a recycled instance.
func (l *votes) reset() votes { return votes{idx: l.idx, recs: emptied(l.recs)} }

// find returns k's record, or nil if nobody has sent k.
func (l *votes) find(k voteKey) *voteRec {
	for i := range l.recs {
		if r := &l.recs[i]; r.w == k.w && r.q == k.q && r.v == k.v {
			return r
		}
	}
	return nil
}

// count records from's copy of k and returns k's record, or nil when it
// drops the copy. A sender counts for one value in one view: its
// latest. An honest acceptor sends one value per (step, view) and only
// moves to later views, so a copy naming another value of the view from
// counts in, or an earlier view, comes from an equivocator or from a
// sender that has moved on, and is dropped; a copy naming a later view
// moves from's vote there. Dropping votes can delay a decision but never
// make an unsafe one, and a list holds at most one (value, view) per
// sender. Copies of one value with different quorums are all counted.
// from must lie in [0, core.MaxProcesses): every caller has checked it
// against the acceptor set.
func (l *votes) count(from core.ProcessID, k voteKey) *voteRec {
	var r *voteRec
	for i := 0; i < len(l.recs); i++ {
		x := &l.recs[i]
		if x.w == k.w && x.v == k.v {
			if x.q == k.q {
				r = x
			}
			continue
		}
		if !x.seen.Contains(from) {
			continue
		}
		if x.w >= k.w {
			return nil
		}
		x.seen = x.seen.Remove(from)
		if x.seen.IsEmpty() {
			l.recs = slices.Delete(l.recs, i, i+1)
			i--
		} else if l.idx != nil {
			x.tr.Reset()
			x.tr.AddSet(x.seen)
		}
	}
	if r == nil {
		l.recs = append(l.recs, voteRec{voteKey: k})
		r = &l.recs[len(l.recs)-1]
		if l.idx != nil {
			r.tr = l.idx.Tracker()
		}
	}
	r.seen = r.seen.Add(from)
	if l.idx != nil {
		r.tr.Add(from)
	}
	return r
}
