package core

import (
	"math/bits"
)

// This file is the incremental quorum engine: a precomputed QuorumIndex
// per RQS and per-operation QuorumTrackers built on it. Together they
// turn the protocols' innermost question — "did acks arrive from some
// class-c quorum yet?" — from an O(|quorums|) rescan on every message
// into O(quorums-containing-p) amortized work per ack, with an O(1)
// cardinality fast path for the threshold systems of Example 6.
//
// Every verdict (Contained, ContainedAll) is defined to agree exactly,
// including returned quorums and their order, with the reference scans
// RQS.ContainedQuorum and RQS.ContainedQuorums; the differential tests
// in tracker_test.go enforce this bit for bit.

// quorumBlock describes one contiguous run of same-size quorums in the
// quorum list of a threshold RQS (Example 6): all subsets of Size
// members, declared at Class, enumerated in lexicographic order.
// Blocks appear in list order with strictly increasing sizes, which is
// what makes the cardinality fast path exact: the first listed quorum
// of class ≤ c contained in a response set is the |responded|-smallest
// members once |responded| reaches the first eligible block's size.
type quorumBlock struct {
	size  int
	class QuorumClass
}

// thresholdContained is the O(1) fast path of ContainedQuorum for
// block-structured (threshold) systems. The returned quorum is the
// lexicographically first contained one, matching the reference scan.
func thresholdContained(blocks []quorumBlock, universe, responded Set, c QuorumClass) (Set, bool) {
	inter := responded.Intersect(universe)
	n := inter.Count()
	for _, blk := range blocks {
		if blk.class <= c {
			// Blocks are sorted by strictly increasing size, so the
			// first eligible block decides: later ones need even more
			// responses.
			if n >= blk.size {
				return inter.LowestK(blk.size), true
			}
			return 0, false
		}
	}
	return 0, false
}

// blocksMaybeContained is the O(1) early-out for list enumerations on
// threshold systems: no quorum of class ≥ c can be contained unless the
// response count reaches the first (smallest) eligible block's size.
// When it does, materializing the contained quorums costs a list scan
// anyway, so callers fall back to the reference scan — which is why
// there is no enumeration twin of thresholdContained.
func blocksMaybeContained(blocks []quorumBlock, universe, responded Set, c QuorumClass) bool {
	n := responded.Intersect(universe).Count()
	for _, blk := range blocks {
		if blk.class <= c {
			return n >= blk.size
		}
	}
	return false
}

// engineMode selects how an index answers containment queries. It is
// picked once at Index() time from the quorum list's shape.
type engineMode uint8

const (
	// modeThreshold: block-structured list (NewThresholdRQS); verdicts
	// are O(1) popcounts.
	modeThreshold engineMode = iota
	// modePostings: sparse list; per-ack postings updates make
	// verdicts O(1) lookups.
	modePostings
	// modeScan: dense list; a hot cached scan beats postings counters
	// (each process sits in most quorums, so Σ|postings[p]| per round
	// approaches acks × |quorums| with worse locality).
	modeScan
)

// QuorumIndex is the precomputed acceleration structure of one RQS:
// per-process postings lists (which quorums contain process p), quorum
// cardinalities, and the first-listed class of every quorum value. It is
// immutable and shared by every tracker of the RQS; obtain it with
// RQS.Index().
type QuorumIndex struct {
	universe Set
	quorums  []Set
	class    []QuorumClass
	classOf  map[Set]QuorumClass
	blocks   []quorumBlock // non-nil for threshold systems: O(1) path
	mode     engineMode

	// Postings data, non-nil only in modePostings.
	sizes    []int32   // sizes[i] = |quorums[i]|
	postings [][]int32 // postings[p] = indices of quorums containing p
}

// usePostings is the hybrid engine's density rule: postings pay off
// only when the average quorum covers less than half the universe,
// i.e. 2·Σ|q| < n·|quorums|. Denser lists (small universes, threshold
// layouts rebuilt as explicit configs) answer faster from the scan.
func usePostings(universe Set, quorums []Set) bool {
	sumQ := 0
	for _, q := range quorums {
		sumQ += q.Count()
	}
	return 2*sumQ < universe.Count()*len(quorums)
}

// detectBlocks recognizes block structure in a user-supplied quorum
// list: the list partitions into contiguous runs where each run is the
// COMPLETE lexicographic enumeration (Set.Subsets order) of all
// same-size subsets of the universe with one uniform declared class,
// and run sizes strictly increase in list order. Those are exactly the
// invariants thresholdContained relies on — the first eligible block
// decides, and its first contained member is the response set's
// lowest-k members — so a config that rebuilds a threshold layout
// explicitly (instead of via NewThresholdRQS) gets the same O(1)
// verdicts. Returns nil when the list is not block-structured. Cost is
// O(|quorums|): the enumeration replay bails at the first mismatch.
func detectBlocks(universe Set, quorums []Set, class []QuorumClass) []quorumBlock {
	var blocks []quorumBlock
	n := universe.Count()
	prevSize := -1
	for i := 0; i < len(quorums); {
		size := quorums[i].Count()
		if size <= prevSize || size > n {
			return nil
		}
		cls := class[i]
		j := i
		complete := universe.Subsets(size, func(s Set) bool {
			if j >= len(quorums) || quorums[j] != s || class[j] != cls {
				return false
			}
			j++
			return true
		})
		if !complete {
			return nil
		}
		blocks = append(blocks, quorumBlock{size: size, class: cls})
		prevSize = size
		i = j
	}
	return blocks
}

// buildIndex constructs the index; called once per RQS via RQS.Index.
func buildIndex(r *RQS) *QuorumIndex {
	idx := &QuorumIndex{
		universe: r.universe,
		quorums:  r.quorums,
		class:    r.class,
		classOf:  make(map[Set]QuorumClass, len(r.quorums)),
		blocks:   r.blocks,
	}
	for i, q := range r.quorums {
		if _, ok := idx.classOf[q]; !ok {
			idx.classOf[q] = r.class[i]
		}
	}
	if idx.blocks == nil {
		// NewThresholdRQS records its block structure at construction;
		// user-supplied configs earn the same O(1) fast path when their
		// quorum list is recognizably block-structured.
		idx.blocks = detectBlocks(r.universe, r.quorums, r.class)
	}
	if idx.blocks != nil {
		idx.mode = modeThreshold
		return idx
	}
	if !usePostings(r.universe, r.quorums) {
		idx.mode = modeScan
		return idx
	}
	idx.mode = modePostings
	idx.sizes = make([]int32, len(r.quorums))
	idx.postings = make([][]int32, MaxProcesses)
	// Size the postings lists exactly before filling them.
	var counts [MaxProcesses]int32
	for _, q := range r.quorums {
		for v := uint64(q); v != 0; v &= v - 1 {
			counts[bits.TrailingZeros64(v)]++
		}
	}
	for p, cnt := range counts {
		if cnt > 0 {
			idx.postings[p] = make([]int32, 0, cnt)
		}
	}
	for i, q := range r.quorums {
		idx.sizes[i] = int32(q.Count())
		for v := uint64(q); v != 0; v &= v - 1 {
			p := bits.TrailingZeros64(v)
			idx.postings[p] = append(idx.postings[p], int32(i))
		}
	}
	return idx
}

// EngineMode reports which engine the index picked at build time:
// "threshold" (O(1) block fast path), "postings" (incremental
// postings-list tracker) or "scan" (dense list, reference scan).
func (idx *QuorumIndex) EngineMode() string {
	switch idx.mode {
	case modeThreshold:
		return "threshold"
	case modePostings:
		return "postings"
	default:
		return "scan"
	}
}

// scanContained is the reference scan over the index's quorum list,
// used directly in modeScan; identical to RQS.scanContainedQuorum.
func (idx *QuorumIndex) scanContained(responded Set, c QuorumClass) (Set, bool) {
	for i, q := range idx.quorums {
		if idx.class[i] <= c && q.SubsetOf(responded) {
			return q, true
		}
	}
	return 0, false
}

// ClassOf returns the declared class of the first listed quorum equal to
// q and whether q is listed at all. It is the O(1) counterpart of
// RQS.ClassOfListed.
func (idx *QuorumIndex) ClassOf(q Set) (QuorumClass, bool) {
	c, ok := idx.classOf[q]
	return c, ok
}

// NewTracker creates a tracker over this index, ready to use.
func (idx *QuorumIndex) NewTracker() *QuorumTracker {
	t := idx.Tracker()
	return &t
}

// Tracker is NewTracker by value, for callers that keep trackers inside
// their own records. Once a copy is in use, the original must not be.
func (idx *QuorumIndex) Tracker() QuorumTracker {
	t := QuorumTracker{idx: idx}
	if idx.mode == modePostings {
		t.missing = make([]int32, len(idx.quorums))
		t.satisfied = make([]uint64, (len(idx.quorums)+63)/64)
	}
	t.Reset()
	return t
}

// trackerSentinel marks "no satisfied quorum of this class yet".
const trackerSentinel = int32(1 << 30)

// QuorumTracker accumulates one operation's responses and answers quorum
// containment incrementally. Add is O(quorums-containing-p) on general
// systems and O(1) on threshold systems; Contained and Complete are O(1)
// lookups. A tracker is not safe for concurrent use; Reset reuses its
// allocations for the next operation (round).
type QuorumTracker struct {
	idx       *QuorumIndex
	responded Set
	missing   []int32  // per quorum: members not yet responded
	satisfied []uint64 // bitset over quorum indices
	minSat    [4]int32 // per declared class: min satisfied quorum index
}

// Reset clears the tracker for a fresh round, keeping its allocations.
func (t *QuorumTracker) Reset() {
	t.responded = 0
	for i := range t.minSat {
		t.minSat[i] = trackerSentinel
	}
	if t.missing == nil {
		return
	}
	copy(t.missing, t.idx.sizes)
	for i := range t.satisfied {
		t.satisfied[i] = 0
	}
	// A listed empty quorum is vacuously contained from the start.
	for i, sz := range t.idx.sizes {
		if sz == 0 {
			t.markSatisfied(int32(i))
		}
	}
}

func (t *QuorumTracker) markSatisfied(qi int32) {
	t.satisfied[qi>>6] |= 1 << (uint(qi) & 63)
	cl := t.idx.class[qi]
	if qi < t.minSat[cl] {
		t.minSat[cl] = qi
	}
}

// Add records a response from process p. It reports whether the tracker
// state changed (p had not responded yet), which is what the protocol
// wait loops use to skip redundant quorum re-checks on duplicate or
// stale messages.
func (t *QuorumTracker) Add(p ProcessID) bool {
	if p < 0 || p >= MaxProcesses || t.responded.Contains(p) {
		return false
	}
	t.responded = t.responded.Add(p)
	if t.idx.postings == nil || !t.idx.universe.Contains(p) {
		return true
	}
	for _, qi := range t.idx.postings[p] {
		t.missing[qi]--
		if t.missing[qi] == 0 {
			t.markSatisfied(qi)
		}
	}
	return true
}

// AddSet records responses from every member of s, reporting whether any
// of them was new.
func (t *QuorumTracker) AddSet(s Set) bool {
	changed := false
	for v := uint64(s); v != 0; v &= v - 1 {
		if t.Add(bits.TrailingZeros64(v)) {
			changed = true
		}
	}
	return changed
}

// Responded returns the set of processes recorded so far.
func (t *QuorumTracker) Responded() Set { return t.responded }

// Complete reports whether every process of the universe has responded.
// Once true, no further message can change any quorum verdict — the
// protocols use this to cut their 2Δ timers short.
func (t *QuorumTracker) Complete() bool {
	return t.idx.universe.SubsetOf(t.responded)
}

// Contained reports whether the responses cover some quorum of class at
// least c, returning the same quorum as the reference scan
// RQS.ContainedQuorum (the first listed contained one).
func (t *QuorumTracker) Contained(c QuorumClass) (Set, bool) {
	if t.idx.blocks != nil {
		return thresholdContained(t.idx.blocks, t.idx.universe, t.responded, c)
	}
	if t.idx.mode == modeScan {
		return t.idx.scanContained(t.responded, c)
	}
	best := trackerSentinel
	for cl := Class1; cl <= c && cl <= Class3; cl++ {
		if m := t.minSat[cl]; m < best {
			best = m
		}
	}
	if best == trackerSentinel {
		return 0, false
	}
	return t.idx.quorums[best], true
}

// ContainedAll returns, in list order, every quorum of class at least c
// covered by the responses — the incremental counterpart of
// RQS.ContainedQuorums.
func (t *QuorumTracker) ContainedAll(c QuorumClass) []Set {
	return t.AppendContained(nil, c)
}

// AppendContained is ContainedAll appending into dst, so per-round
// callers can reuse one backing array across operations. The appended
// Sets are shared index state (values, immutable); only the dst slice
// header is the caller's to reuse.
func (t *QuorumTracker) AppendContained(dst []Set, c QuorumClass) []Set {
	if t.idx.blocks != nil {
		if !blocksMaybeContained(t.idx.blocks, t.idx.universe, t.responded, c) {
			return dst
		}
	}
	if t.idx.blocks != nil || t.idx.mode == modeScan {
		for i, q := range t.idx.quorums {
			if t.idx.class[i] <= c && q.SubsetOf(t.responded) {
				dst = append(dst, q)
			}
		}
		return dst
	}
	for wi, w := range t.satisfied {
		for w != 0 {
			qi := wi<<6 + bits.TrailingZeros64(w)
			w &= w - 1
			if t.idx.class[qi] <= c {
				dst = append(dst, t.idx.quorums[qi])
			}
		}
	}
	return dst
}
