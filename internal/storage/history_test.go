package storage

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// TestObservedPairsKeepsForgedPairsAtOneTS: pairs are deduplicated by
// timestamp, but two values at one timestamp — the forgery a Byzantine
// server may send — stay distinct, ⊥ included, and a row whose pair
// carries another timestamp is ignored. The scratch state is reused
// across reads, so a second read over other histories must not see the
// first one's pairs.
func TestObservedPairsKeepsForgedPairsAtOneTS(t *testing.T) {
	a, b, c := Pair{TS: 5, Val: "a"}, Pair{TS: 5, Val: "b"}, Pair{TS: 3, Val: "c"}
	z := Pair{TS: 0, Val: "z"}
	st := &readState{hist: [][]TSRow{
		0: {{TS: 5, Row: Row{{Pair: a}}}},
		1: {{TS: 0, Row: Row{{Pair: z}}}, {TS: 5, Row: Row{{Pair: b}, {Pair: a}}}},
		2: {{TS: 3, Row: Row{{Pair: c}, {Pair: c}}}, {TS: 5, Row: Row{{Pair: b}}}, {TS: 7, Row: Row{{Pair: Pair{TS: 6, Val: "x"}}}}},
		4: nil,
	}}
	want := []Pair{a, b, c, Bottom, z}
	if got := st.observedPairs(); !slices.Equal(got, want) {
		t.Fatalf("observedPairs = %v, want %v", got, want)
	}

	clear(st.hist)
	st.hist[4] = []TSRow{{TS: 3, Row: Row{{Pair: c}}}}
	st.pairsValid = false
	if got, want := st.observedPairs(), []Pair{c, Bottom}; !slices.Equal(got, want) {
		t.Fatalf("next read's observedPairs = %v, want %v", got, want)
	}
}

// BenchmarkObservedPairs enumerates the pairs of five histories of the
// degraded SWMR workload's shape: every row holds its pair in slots 1
// and 2 (two-round writes), and the servers report the same pairs.
// rows=2 is the suffix a reader receives once it has returned a value:
// the row it returned and the one being written.
func BenchmarkObservedPairs(b *testing.B) {
	for _, rows := range []int{2, 100, 700, 2000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			h := make([]TSRow, 0, rows)
			for ts := int64(1); ts <= int64(rows); ts++ {
				p := Pair{TS: ts, Val: fmt.Sprintf("%d%s", ts, strings.Repeat("v", 120))}
				h = append(h, TSRow{TS: ts, Row: Row{{Pair: p}, {Pair: p}}})
			}
			st := &readState{hist: make([][]TSRow, 6)}
			for id := core.ProcessID(0); id < 5; id++ {
				st.hist[id] = h
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st.pairsValid = false
				if got := st.observedPairs(); len(got) != rows+1 {
					b.Fatalf("%d pairs, want %d", len(got), rows+1)
				}
			}
		})
	}
}

// TestApplyWriteLeavesReadAckHistory: writes mutate the register's
// history in place, so a read ack must carry its own copy of the rows.
// A later round-2 write that merges class-2 quorum ids into the same
// row must leave the handed-out ack's rows as they were — including
// the spare capacity of the Sets slice the ack shares with the
// register.
func TestApplyWriteLeavesReadAckHistory(t *testing.T) {
	net := transport.NewNetwork(1)
	defer net.Close()
	s := NewServer(net.Port(0), Hooks{})
	qs := []core.Set{core.NewSet(0, 1, 2), core.NewSet(1, 2, 3), core.NewSet(2, 3, 4), core.NewSet(3, 4, 5)}
	for _, q := range qs[:3] {
		s.applyWrite(WriteReq{TS: 1, Val: "v", Sets: []core.Set{q}, Round: 2})
	}
	ack := s.suffix("", 0)
	want := historyOf(ack).Rows(0)
	held := ack[0].Row[1].Sets
	if !s.applyWrite(WriteReq{TS: 1, Val: "v", Sets: qs[3:], Round: 2}) {
		t.Fatal("merging a new quorum id changed nothing")
	}
	if !reflect.DeepEqual(ack, want) {
		t.Fatalf("read ack's rows changed to %v, want %v", ack, want)
	}
	if spare := held[len(held):cap(held)]; slices.Contains(spare, qs[3]) {
		t.Fatalf("the write appended into the Sets array the ack holds: %v", held[:cap(held)])
	}
	if live := s.HistorySnapshot()[1][1].Sets; !slices.Equal(live, qs) {
		t.Fatalf("register's slot-2 sets = %v, want %v", live, qs)
	}
}
