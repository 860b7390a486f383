package core

import (
	"errors"
	"fmt"
	"sync"
)

// QuorumClass labels the three nested classes of a refined quorum system.
// Class 1 ⊆ Class 2 ⊆ Class 3; class 3 quorums are ordinary quorums.
type QuorumClass int

// Quorum classes, ordered from the strongest (fastest) to the weakest.
const (
	Class1 QuorumClass = 1
	Class2 QuorumClass = 2
	Class3 QuorumClass = 3
)

// String renders the class as "class 1", "class 2" or "class 3".
func (c QuorumClass) String() string { return fmt.Sprintf("class %d", int(c)) }

// Errors reported by Verify, matching the three properties of Definition 2.
var (
	ErrProperty1 = errors.New("rqs: Property 1 violated (some quorum intersection is in B)")
	ErrProperty2 = errors.New("rqs: Property 2 violated (class-1 pair intersection with a quorum is covered by two adversary sets)")
	ErrProperty3 = errors.New("rqs: Property 3 violated (neither P3a nor P3b holds for some class-2 quorum)")
	ErrClassNest = errors.New("rqs: class-1 quorums must also be class-2 quorums")
	ErrNoQuorums = errors.New("rqs: no quorums")
	ErrUniverse  = errors.New("rqs: quorum not contained in universe")
)

// RQS is a refined quorum system over a universe of processes and an
// adversary structure (Definition 2). Quorums are held explicitly; the
// class-2 and class-1 subsets are flagged per quorum.
//
// An RQS value is immutable after construction.
type RQS struct {
	universe Set
	adv      Adversary
	quorums  []Set
	class    []QuorumClass // class[i] is the class of quorums[i]

	// blocks is non-nil for threshold systems built by NewThresholdRQS;
	// it enables the O(1) cardinality fast path of the quorum engine.
	blocks []quorumBlock

	idxOnce sync.Once
	idx     *QuorumIndex

	elemsOnce sync.Once
	elems     []Set
}

// Config describes a refined quorum system to be built by New.
type Config struct {
	// Universe is the set S of processes.
	Universe Set
	// Adversary is the adversary structure B for S.
	Adversary Adversary
	// Quorums lists all (minimal) quorums; every entry is a class-3
	// quorum at least.
	Quorums []Set
	// Class2 and Class1 are indices into Quorums flagging the stronger
	// classes. Class1 indices must also appear in Class2 (class nesting);
	// New adds them automatically if omitted.
	Class2 []int
	Class1 []int
}

// New builds a refined quorum system from cfg without verifying the
// intersection properties; call Verify to check them. It returns an error
// only on structural problems (no quorums, indices out of range, quorums
// escaping the universe).
func New(cfg Config) (*RQS, error) {
	if len(cfg.Quorums) == 0 {
		return nil, ErrNoQuorums
	}
	if cfg.Adversary == nil {
		cfg.Adversary = NewStructured()
	}
	r := &RQS{
		universe: cfg.Universe,
		adv:      cfg.Adversary,
		quorums:  make([]Set, len(cfg.Quorums)),
		class:    make([]QuorumClass, len(cfg.Quorums)),
	}
	copy(r.quorums, cfg.Quorums)
	for i, q := range r.quorums {
		if !q.SubsetOf(cfg.Universe) {
			return nil, fmt.Errorf("%w: quorum %d = %v", ErrUniverse, i, q)
		}
		r.class[i] = Class3
	}
	for _, i := range cfg.Class2 {
		if i < 0 || i >= len(r.quorums) {
			return nil, fmt.Errorf("rqs: class-2 index %d out of range", i)
		}
		r.class[i] = Class2
	}
	for _, i := range cfg.Class1 {
		if i < 0 || i >= len(r.quorums) {
			return nil, fmt.Errorf("rqs: class-1 index %d out of range", i)
		}
		r.class[i] = Class1
	}
	return r, nil
}

// MustNew is New for statically known-good configurations; it panics on a
// structural error. Intended for package-level example constructors.
func MustNew(cfg Config) *RQS {
	r, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

// Universe returns the set S.
func (r *RQS) Universe() Set { return r.universe }

// N returns |S|.
func (r *RQS) N() int { return r.universe.Count() }

// Adversary returns the adversary structure B.
func (r *RQS) Adversary() Adversary { return r.adv }

// Quorums returns all quorums (class 3 = RQS). The caller must not mutate
// the result.
func (r *RQS) Quorums() []Set { return r.quorums }

// QuorumsOfClass returns the quorums whose class is at least as strong as
// c (so QuorumsOfClass(Class3) returns everything, QuorumsOfClass(Class1)
// only the class-1 quorums), reflecting QC1 ⊆ QC2 ⊆ RQS.
func (r *RQS) QuorumsOfClass(c QuorumClass) []Set {
	var out []Set
	for i, q := range r.quorums {
		if r.class[i] <= c {
			out = append(out, q)
		}
	}
	return out
}

// ClassOfListed returns the declared class of a listed quorum and whether
// q is listed at all.
func (r *RQS) ClassOfListed(q Set) (QuorumClass, bool) {
	for i, lq := range r.quorums {
		if lq == q {
			return r.class[i], true
		}
	}
	return 0, false
}

// Index returns the RQS's precomputed quorum index, building it on
// first use. The index is immutable and safe for concurrent use.
func (r *RQS) Index() *QuorumIndex {
	r.idxOnce.Do(func() { r.idx = buildIndex(r) })
	return r.idx
}

// AdversaryElements returns Elements(r.Adversary()), enumerating it on
// first use. The result is shared and must not be mutated.
func (r *RQS) AdversaryElements() []Set {
	r.elemsOnce.Do(func() { r.elems = Elements(r.adv) })
	return r.elems
}

// NewTracker creates an incremental quorum tracker for one protocol
// operation over this RQS.
func (r *RQS) NewTracker() *QuorumTracker { return r.Index().NewTracker() }

// ContainedQuorum reports whether responded ⊇ some quorum of class at
// least c, returning the first-listed contained quorum. This is the
// primitive protocols use to decide "acks received from some class-c
// quorum". Threshold systems answer in O(1); others scan the quorum
// list (use a QuorumTracker for per-ack incremental checks).
func (r *RQS) ContainedQuorum(responded Set, c QuorumClass) (Set, bool) {
	if r.blocks != nil {
		return thresholdContained(r.blocks, r.universe, responded, c)
	}
	return r.scanContainedQuorum(responded, c)
}

// scanContainedQuorum is the reference linear scan; the fast paths and
// trackers are differentially tested against it.
func (r *RQS) scanContainedQuorum(responded Set, c QuorumClass) (Set, bool) {
	for i, q := range r.quorums {
		if r.class[i] <= c && q.SubsetOf(responded) {
			return q, true
		}
	}
	return 0, false
}

// ContainedQuorums returns every listed quorum of class at least c that is
// a subset of responded, in list order. The storage protocol uses this to
// compute the set QC'2 of class-2 quorums that responded in round 1.
func (r *RQS) ContainedQuorums(responded Set, c QuorumClass) []Set {
	if r.blocks != nil && !blocksMaybeContained(r.blocks, r.universe, responded, c) {
		return nil
	}
	return r.scanContainedQuorums(responded, c)
}

// scanContainedQuorums is the reference linear scan behind
// ContainedQuorums.
func (r *RQS) scanContainedQuorums(responded Set, c QuorumClass) []Set {
	var out []Set
	for i, q := range r.quorums {
		if r.class[i] <= c && q.SubsetOf(responded) {
			out = append(out, q)
		}
	}
	return out
}

// HasClass1 reports whether QC1 is non-empty.
func (r *RQS) HasClass1() bool {
	for _, c := range r.class {
		if c == Class1 {
			return true
		}
	}
	return false
}

// P3a reports whether P3a(q2, q, b) holds: (q2 ∩ q) \ b ∉ B.
func (r *RQS) P3a(q2, q, b Set) bool {
	return !r.adv.Contains(q2.Intersect(q).Diff(b))
}

// P3b reports whether P3b(q2, q, b) holds: QC1 ≠ ∅ and for every class-1
// quorum q1, q1 ∩ q2 ∩ q \ b ≠ ∅.
func (r *RQS) P3b(q2, q, b Set) bool {
	any := false
	for i, q1 := range r.quorums {
		if r.class[i] != Class1 {
			continue
		}
		any = true
		if q1.Intersect(q2).Intersect(q).Diff(b).IsEmpty() {
			return false
		}
	}
	return any
}

// Verify checks the three properties of Definition 2 and returns nil iff
// this is a valid refined quorum system. Property 3 is checked against the
// maximal elements of B only, which suffices because both P3a and P3b are
// antitone in B (shrinking B can only help).
func (r *RQS) Verify() error {
	q3 := r.quorums
	// Property 1: ∀Q,Q' ∈ RQS: Q ∩ Q' ∉ B.
	for i, q := range q3 {
		for _, q2 := range q3[i:] {
			if r.adv.Contains(q.Intersect(q2)) {
				return fmt.Errorf("%w: %v ∩ %v = %v", ErrProperty1, q, q2, q.Intersect(q2))
			}
		}
	}
	// Property 2: ∀Q1,Q1' ∈ QC1, ∀Q: Q1 ∩ Q1' ∩ Q ⊄ B1 ∪ B2.
	c1 := r.QuorumsOfClass(Class1)
	for i, q1 := range c1 {
		for _, q1b := range c1[i:] {
			for _, q := range q3 {
				x := q1.Intersect(q1b).Intersect(q)
				if r.adv.CoveredByTwo(x) {
					return fmt.Errorf("%w: %v ∩ %v ∩ %v = %v", ErrProperty2, q1, q1b, q, x)
				}
			}
		}
	}
	// Property 3: ∀Q2 ∈ QC2, ∀Q ∈ RQS, ∀B ∈ B: P3a ∨ P3b.
	maximal := r.adv.MaximalSets()
	if len(maximal) == 0 {
		maximal = []Set{EmptySet}
	}
	for _, q2 := range r.QuorumsOfClass(Class2) {
		for _, q := range q3 {
			for _, b := range maximal {
				if !r.P3a(q2, q, b) && !r.P3b(q2, q, b) {
					return fmt.Errorf("%w: Q2=%v Q=%v B=%v", ErrProperty3, q2, q, b)
				}
			}
		}
	}
	return nil
}

// LivenessQuorum returns a quorum contained in the given correct set, if
// one exists. The paper's liveness condition is the existence of a quorum
// of correct servers.
func (r *RQS) LivenessQuorum(correct Set) (Set, bool) {
	return r.ContainedQuorum(correct, Class3)
}

// String summarises the RQS.
func (r *RQS) String() string {
	n1 := len(r.QuorumsOfClass(Class1))
	n2 := len(r.QuorumsOfClass(Class2))
	return fmt.Sprintf("RQS{n=%d, quorums=%d, class2=%d, class1=%d, adv=%v}",
		r.N(), len(r.quorums), n2, n1, r.adv)
}
