package storage

import (
	"cmp"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/core"
)

// readState is the reader's view of the system during one read operation:
// the latest history suffix received from each server plus the
// bookkeeping of Figure 7 (Responded, QC'2, highest_ts). All the read
// predicates of lines 1-9 are methods on it.
//
// The histories hold only the rows at or above from, the timestamp of
// the reader's last completed atomic read. Every predicate on a pair c
// reads only rows at c.TS and pairs above it, and an atomic reader
// never selects a pair below its last return, so dropping the rows
// below from (and ⊥, when from > 0) leaves every selection as the full
// histories would make it (ARCHITECTURE.md, "Suffix read acks").
type readState struct {
	rqs  *core.RQS
	adv  core.Adversary
	elem []core.Set // enumeration of B, for valid3

	from        int64
	hist        [][]TSRow  // by server id: ts-ascending rows, all ≥ from
	respQuorums []core.Set // quorums among the servers that acked this read, refreshed once per round
	qc2prime    []core.Set // class-2 quorums that responded in round 1
	highestTS   int64

	// pairs memoizes observedPairs for the current round: the histories
	// only change in a query round, whose start invalidates it, and the
	// candidate-selection predicates re-enumerate the pairs many times
	// per round (highCand calls it once per candidate). The slice's
	// backing array is reused across rounds and reads.
	pairs      []Pair
	pairsValid bool

	// byTS and sameTS are observedPairs' dedup scratch, reused across
	// rounds and reads: byTS maps a timestamp to the index in pairs of
	// the last distinct pair collected with it, and sameTS[i] is the
	// index of the one collected before pairs[i] with the same
	// timestamp (-1 for none).
	byTS   map[int64]int
	sameTS []int
}

// slot returns the reader's local copy of server i's slot for (ts, rnd);
// unheard-from servers read as the initial state 〈〈0,⊥〉, ∅〉 exactly as
// the initialisation of line 10 prescribes.
func (st *readState) slot(i core.ProcessID, ts int64, rnd int) Slot {
	return rowSlot(st.hist[i], ts, rnd)
}

// readPred is read(c, i) (line 7): server i reported c in slot 1 or 2.
func (st *readState) readPred(c Pair, i core.ProcessID) bool {
	return st.slot(i, c.TS, 1).Pair == c || st.slot(i, c.TS, 2).Pair == c
}

// safe is safe(c) (line 8): the servers reporting c form a basic subset,
// so at least one benign server vouches for the pair — Byzantine servers
// alone cannot fabricate it.
func (st *readState) safe(c Pair) bool {
	var witnesses core.Set
	for v := uint64(st.rqs.Universe()); v != 0; v &= v - 1 {
		if i := bits.TrailingZeros64(v); st.readPred(c, i) {
			witnesses = witnesses.Add(i)
		}
	}
	return core.IsBasic(witnesses, st.adv)
}

// valid1 is valid1(c, Q) (line 3): a basic subset of Q reported c in
// slot 1. Checking the maximal witness set suffices because B is closed
// under subsets.
func (st *readState) valid1(c Pair, q core.Set) bool {
	var witnesses core.Set
	for v := uint64(q); v != 0; v &= v - 1 {
		if i := bits.TrailingZeros64(v); st.slot(i, c.TS, 1).Pair == c {
			witnesses = witnesses.Add(i)
		}
	}
	return core.IsBasic(witnesses, st.adv)
}

// valid2 is valid2(c, Q) (line 4): some server in Q reported c in slot 2.
func (st *readState) valid2(c Pair, q core.Set) bool {
	for v := uint64(q); v != 0; v &= v - 1 {
		if i := bits.TrailingZeros64(v); st.slot(i, c.TS, 2).Pair == c {
			return true
		}
	}
	return false
}

// valid3 is valid3(c, Q) (line 5): there are a class-2 quorum Q2 and an
// adversary set B with P3b(Q2, Q, B) such that every server in
// Q2 ∩ Q \ B reported c in slot 1 *with Q2 attached*. The ∃B is not
// monotone in B, so the full enumeration of B is scanned.
func (st *readState) valid3(c Pair, q core.Set) bool {
	for _, q2 := range st.rqs.QuorumsOfClass(core.Class2) {
		for _, b := range st.elem {
			if !st.rqs.P3b(q2, q, b) {
				continue
			}
			ok := true
			for v := uint64(q2.Intersect(q).Diff(b)); v != 0; v &= v - 1 {
				s := st.slot(bits.TrailingZeros64(v), c.TS, 1)
				if s.Pair != c || !s.HasSet(q2) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// invalid is invalid(c) (line 6): some responded quorum satisfies none of
// the valid predicates for c, or c's timestamp exceeds highest_ts. The
// responded quorums are precomputed once per round in respQuorums.
func (st *readState) invalid(c Pair) bool {
	if c.TS > st.highestTS {
		return true
	}
	for _, q := range st.respQuorums {
		if !st.valid1(c, q) && !st.valid2(c, q) && !st.valid3(c, q) {
			return true
		}
	}
	return false
}

// highCand is highCand(c) (line 9): every pair with a higher timestamp
// reported by any server is invalid.
func (st *readState) highCand(c Pair) bool {
	for _, other := range st.observedPairs() {
		if other.TS > c.TS && !st.invalid(other) {
			return false
		}
	}
	return true
}

// observedPairs collects every distinct pair appearing in slot 1 or 2 of
// any received history, plus the initial pair ⊥ unless from > 0, sorted
// by descending timestamp (ties by value). The result is memoized until
// the next query round refreshes the histories. Dedup is by timestamp, linear in
// the rows received: values are compared only among the pairs that
// share a timestamp — one in an honest execution, more only when
// Byzantine servers forge pairs, which must stay distinct.
func (st *readState) observedPairs() []Pair {
	if st.pairsValid {
		return st.pairs
	}
	if st.byTS == nil {
		st.byTS = make(map[int64]int)
	} else {
		clear(st.byTS)
	}
	out := st.pairs[:0]
	st.sameTS = st.sameTS[:0]
	if st.from == 0 {
		out = st.addPair(out, Bottom)
	}
	for _, rows := range st.hist {
		for _, r := range rows {
			if p := r.Row[0].Pair; p.TS == r.TS {
				out = st.addPair(out, p)
			}
			// A two-round write leaves its pair in both slots.
			if p := r.Row[1].Pair; p.TS == r.TS && p != r.Row[0].Pair {
				out = st.addPair(out, p)
			}
		}
	}
	// slices.SortFunc over sort.Slice: no reflect.Swapper allocation on
	// a path the candidate predicates hit once per round.
	slices.SortFunc(out, func(a, b Pair) int {
		if c := cmp.Compare(b.TS, a.TS); c != 0 {
			return c
		}
		return strings.Compare(a.Val, b.Val)
	})
	st.pairs = out
	st.pairsValid = true
	return out
}

// addPair appends p to out unless out already holds it.
func (st *readState) addPair(out []Pair, p Pair) []Pair {
	last, ok := st.byTS[p.TS]
	if ok {
		for i := last; i >= 0; i = st.sameTS[i] {
			if out[i] == p {
				return out
			}
		}
	} else {
		last = -1
	}
	st.byTS[p.TS] = len(out)
	st.sameTS = append(st.sameTS, last)
	return append(out, p)
}

// computeHighestTS is line 29: the highest timestamp of any pair read.
func (st *readState) computeHighestTS() int64 {
	var hts int64
	for _, p := range st.observedPairs() {
		if p.TS > hts {
			hts = p.TS
		}
	}
	return hts
}

// selectCandidate is lines 33-35: C = {c : safe(c) ∧ highCand(c)};
// the selected pair is the one with the highest timestamp.
func (st *readState) selectCandidate() (Pair, bool) {
	// observedPairs is sorted by descending timestamp, so the first
	// member of C is the selection.
	for _, c := range st.observedPairs() {
		if st.safe(c) && st.highCand(c) {
			return c, true
		}
	}
	return Pair{}, false
}

// bcd1Any is the line-40 query: BCD(c, 1, R) for some R ∈ {1,2,3}
// (line 1): there are a class-1 quorum Q1 and a class-R quorum QR such
// that every server in Q1 ∩ QR reported c in slot R — and for R = 2, with
// QR among the attached class-2 quorum ids.
func (st *readState) bcd1Any(c Pair) bool {
	for rnd := 1; rnd <= 3; rnd++ {
		if st.bcd1(c, rnd) {
			return true
		}
	}
	return false
}

func (st *readState) bcd1(c Pair, rnd int) bool {
	for _, q1 := range st.rqs.QuorumsOfClass(core.Class1) {
		for _, qr := range st.rqs.QuorumsOfClass(core.QuorumClass(rnd)) {
			ok := true
			for v := uint64(q1.Intersect(qr)); v != 0; v &= v - 1 {
				s := st.slot(bits.TrailingZeros64(v), c.TS, rnd)
				if s.Pair != c || (rnd == 2 && !s.HasSet(qr)) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// bcd2 is BCD(c, 2, R) (line 2): the class-2 quorums Q2 that responded in
// round 1 such that some class-R quorum QR has every server of Q2 ∩ QR
// reporting c in slot R.
func (st *readState) bcd2(c Pair, rnd int) []core.Set {
	var out []core.Set
	for _, q2 := range st.qc2prime {
		found := false
		for _, qr := range st.rqs.QuorumsOfClass(core.QuorumClass(rnd)) {
			ok := true
			for v := uint64(q2.Intersect(qr)); v != 0; v &= v - 1 {
				if st.slot(bits.TrailingZeros64(v), c.TS, rnd).Pair != c {
					ok = false
					break
				}
			}
			if ok {
				found = true
				break
			}
		}
		if found {
			out = append(out, q2)
		}
	}
	return out
}
