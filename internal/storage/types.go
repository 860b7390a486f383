// Package storage implements the paper's Byzantine-resilient SWMR atomic
// storage (Section 3) — a writer (Figure 5), servers (Figure 6) and
// readers (Figure 7) built over a refined quorum system — plus an MWMR
// (multi-writer multi-reader) variant layered on the same servers and
// quorum engine (mwmr.go).
//
// The SWMR algorithm is (m, QCm)-fast for m ∈ {1,2,3}: a synchronous,
// uncontended operation completes in one round if a class-1 quorum of
// correct servers responds, two rounds for class 2, three rounds
// otherwise. No data authentication is used.
//
// The MWMR variant is an asynchronous, crash-tolerant ABD-style
// emulation over the system's class-3 quorums: writes are ordered by
// 〈timestamp, writer-id〉 tags, every write runs a read phase to
// discover the maximum tag before storing, and reads complete in a
// single round-trip when a full quorum reports the same tag.
//
// Conventions: servers occupy process IDs 0..n-1 (matching the RQS
// universe); clients use IDs ≥ n. One storage.Server hosts both
// registers over a single port.
package storage

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
)

// NoValue is the initial value ⊥ of the storage; it is outside the domain
// of valid written values.
const NoValue = ""

// Pair is a timestamp/value pair 〈ts, val〉. The zero Pair is 〈0, ⊥〉.
type Pair struct {
	TS  int64
	Val string
}

// Bottom is the initial pair 〈0, ⊥〉.
var Bottom = Pair{}

// IsBottom reports whether p is the initial pair.
func (p Pair) IsBottom() bool { return p == Bottom }

// String renders the pair.
func (p Pair) String() string {
	if p.IsBottom() {
		return "〈0,⊥〉"
	}
	return fmt.Sprintf("〈%d,%q〉", p.TS, p.Val)
}

// Slot is one round-slot of a server's history for one timestamp:
// the stored pair plus the set of class-2 quorum ids attached to it
// (history[ts, rnd].pair and history[ts, rnd].sets in Figure 6).
type Slot struct {
	Pair Pair
	Sets []core.Set
}

// HasSet reports whether q ∈ slot.Sets.
func (s Slot) HasSet(q core.Set) bool {
	for _, x := range s.Sets {
		if x == q {
			return true
		}
	}
	return false
}

// addSets adds every q of qs absent from Sets and reports whether any
// was. The first append copies Sets, so a slice shared with an
// outstanding read ack is never written through.
func (s *Slot) addSets(qs []core.Set) bool {
	added := false
	for _, q := range qs {
		if s.HasSet(q) {
			continue
		}
		if !added {
			s.Sets = s.Sets[:len(s.Sets):len(s.Sets)]
			added = true
		}
		s.Sets = append(s.Sets, q)
	}
	return added
}

// Row is a server's history row for one timestamp: slots for rounds 1..3,
// indexed by round-1.
type Row [3]Slot

// clone deep-copies the row's quorum-id sets.
func (r Row) clone() Row {
	for i := range r {
		r[i].Sets = slices.Clone(r[i].Sets)
	}
	return r
}

// TSRow is one history row with its timestamp: the unit a server keeps
// its history in, ts-ascending, and ships in read acks.
type TSRow struct {
	TS  int64
	Row Row
}

// cmpRowTS orders a ts-ascending row slice against a timestamp, for
// binary search.
func cmpRowTS(r TSRow, ts int64) int { return cmp.Compare(r.TS, ts) }

// rowsFrom returns the suffix of the ts-ascending rows whose
// timestamps are at least from.
func rowsFrom(rows []TSRow, from int64) []TSRow {
	i, _ := slices.BinarySearchFunc(rows, from, cmpRowTS)
	return rows[i:]
}

// rowSlot returns the slot for (ts, rnd) of the ts-ascending rows;
// rnd ∈ {1,2,3}. An absent row reads as 〈〈0,⊥〉, ∅〉.
func rowSlot(rows []TSRow, ts int64, rnd int) Slot {
	if i, ok := slices.BinarySearchFunc(rows, ts, cmpRowTS); ok {
		return rows[i].Row[rnd-1]
	}
	return Slot{}
}

// ascending reports whether the rows' timestamps strictly increase —
// the shape every honest read ack has.
func ascending(rows []TSRow) bool {
	for i := 1; i < len(rows); i++ {
		if rows[i].TS <= rows[i-1].TS {
			return false
		}
	}
	return true
}

// History is a server's entire history of the shared variable, keyed by
// timestamp: the form state snapshots use. Absent rows mean 〈〈0,⊥〉, ∅〉
// everywhere, matching the initialisation of Figure 6.
type History map[int64]Row

// Slot returns the slot for (ts, rnd); rnd ∈ {1,2,3}.
func (h History) Slot(ts int64, rnd int) Slot {
	if h == nil {
		return Slot{}
	}
	return h[ts][rnd-1]
}

// historyOf deep-copies ts-ascending rows into a History.
func historyOf(rows []TSRow) History {
	h := make(History, len(rows))
	for _, r := range rows {
		h[r.TS] = r.Row.clone()
	}
	return h
}

// Rows deep-copies the rows with timestamps at least from,
// ts-ascending.
func (h History) Rows(from int64) []TSRow {
	var out []TSRow
	for ts, row := range h {
		if ts >= from {
			out = append(out, TSRow{TS: ts, Row: row.clone()})
		}
	}
	slices.SortFunc(out, func(a, b TSRow) int { return cmp.Compare(a.TS, b.TS) })
	return out
}

// Messages of the protocol.

// WriteReq is the wr〈ts, v, QC'2, rnd〉 message of Figures 5 and 7.
// Readers use it for writebacks as well. Key addresses one register of
// the server's keyspace; the key-less SWMR clients use "" (the legacy
// single register).
type WriteReq struct {
	TS    int64
	Val   string
	Sets  []core.Set // class-2 quorum ids (QC'2); nil in rounds 1 and 3
	Round int        // 1, 2 or 3
	Key   string
}

// WriteAck is the wr_ack〈ts, rnd〉 reply.
type WriteAck struct {
	TS    int64
	Round int
}

// ReadReq is the rd〈read_no, read_rnd〉 message. Key addresses one
// register of the server's keyspace ("" = the legacy single register).
// From is the timestamp of the reader's last completed atomic read (0
// for a new reader, and always 0 for a regular one, which may return
// below it): the server ships only the history rows at or above it.
type ReadReq struct {
	ReadNo int64
	Round  int
	Key    string
	From   int64
}

// ReadAck is the rd_ack〈read_no, read_rnd, history〉 reply. The paper's
// servers ship their entire history (footnote 4: servers keep the full
// history to keep the algorithm simple); Rows carries only its suffix
// from the request's From on, ts-ascending. No Figure 7 predicate on a
// pair reads a row below the pair's timestamp, and an atomic reader
// never again selects a pair below its last return, so the rows below
// From cannot change what the reader selects (ARCHITECTURE.md, "Suffix
// read acks"). The rows are immutable once sent.
type ReadAck struct {
	ReadNo int64
	Round  int
	Rows   []TSRow
}
