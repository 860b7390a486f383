package storage

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/transport"
)

// These tests pin the suffix read: a reader whose last atomic read
// returned timestamp L asks only for the history rows at or above L
// (ReadReq.From), and must select exactly what it would over the full
// histories.

// TestReadAckUntrustedRows hands a reader acks no honest server sends.
// Rows repeated or out of order make the ack count as not received —
// silence: the server is not added to Responded, so the round-1 query
// still waits once the other five answered. Rows below From are
// skipped: neither they nor ⊥ reach observedPairs.
func TestReadAckUntrustedRows(t *testing.T) {
	r := NewReader(core.Example7RQS(), nil, 0)
	r.st.from = 5 // as if its last read returned ts 5
	st := r.StartRead()
	rd, ok := st.Send.(ReadReq)
	if !ok || rd.From != 5 {
		t.Fatalf("first step %+v, want a query from ts 5", st)
	}
	v, w := Pair{TS: 5, Val: "v"}, Pair{TS: 6, Val: "w"}
	row := func(p Pair) TSRow { return TSRow{TS: p.TS, Row: Row{{Pair: p}}} }
	deliver := func(from core.ProcessID, rows ...TSRow) Step {
		return r.Deliver(transport.Envelope{From: from, Payload: ReadAck{ReadNo: rd.ReadNo, Round: 1, Rows: rows}})
	}

	below := []TSRow{row(Pair{TS: 3, Val: "old"}), row(Pair{TS: 4, Val: "older"}), row(v)}
	for id := core.ProcessID(0); id < 5; id++ {
		rows := []TSRow{row(v)}
		if id == 4 {
			rows = below
		}
		if st := deliver(id, rows...); st != (Step{}) {
			t.Fatalf("ack from %d: step %+v, want to keep waiting", id, st)
		}
	}
	for name, rows := range map[string][]TSRow{
		"duplicated":              {row(v), row(v)},
		"out of order":            {row(w), row(v)},
		"below From and unsorted": {row(v), row(Pair{TS: 3, Val: "old"})},
	} {
		if st := deliver(5, rows...); st != (Step{}) {
			t.Fatalf("%s rows from s6: step %+v, want the ack ignored", name, st)
		}
	}
	if got, want := r.trResp.Responded(), core.NewSet(0, 1, 2, 3, 4); got != want {
		t.Fatalf("Responded = %v, want %v", got, want)
	}
	if got := r.st.observedPairs(); !slices.Equal(got, []Pair{v}) {
		t.Fatalf("observedPairs = %v, want only %v", got, v)
	}
	r.st.pairsValid = false

	// The same server's honest ack counts: every server has answered,
	// so the round ends before its timer.
	if st := deliver(5, row(v)); st == (Step{}) {
		t.Fatal("honest ack from s6 after its malformed ones: still waiting")
	}
	if r.res.TS != 5 || r.res.Val != "v" {
		t.Fatalf("selected %+v, want %v", r.res, v)
	}
}

// suffixServers are the servers of one random execution on Example 7:
// writes of timestamps 1..k, each reaching a random subset of servers
// in each of its rounds, with class-2 quorum ids in round 2 and in
// reader write-backs. The servers are never started: net only names
// them.
func suffixServers(rqs *core.RQS, net *transport.Network, rng *rand.Rand) ([]*Server, int64) {
	srvs := make([]*Server, rqs.N())
	for i := range srvs {
		srvs[i] = NewServer(net.Port(i), Hooks{})
	}
	class2 := rqs.QuorumsOfClass(core.Class2)
	someSets := func() []core.Set {
		var out []core.Set
		for _, q := range class2 {
			if rng.Intn(2) == 0 {
				out = append(out, q)
			}
		}
		return out
	}
	k := int64(1 + rng.Intn(5))
	for ts := int64(1); ts <= k; ts++ {
		val := fmt.Sprintf("v%d", ts)
		rounds := 1 + rng.Intn(3)
		for rnd := 1; rnd <= rounds; rnd++ {
			req := WriteReq{TS: ts, Val: val, Round: rnd}
			if rnd == 2 {
				req.Sets = someSets()
			}
			for _, s := range srvs {
				if rng.Intn(10) < 7 {
					s.applyWrite(req)
				}
			}
		}
		if rng.Intn(3) == 0 { // a reader's R = 1 write-back with X
			req := WriteReq{TS: ts, Val: val, Round: 1, Sets: someSets()}
			for _, s := range srvs {
				if rng.Intn(2) == 0 {
					s.applyWrite(req)
				}
			}
		}
	}
	return srvs, k
}

// newSuffixState is a reader's state after a round-1 query that resp
// answered with hist: Responded and the round-1 responders are both
// resp, and highest_ts is computed from hist as line 29 does.
func newSuffixState(rqs *core.RQS, from int64, resp core.Set, hist [][]TSRow) *readState {
	tr := rqs.NewTracker()
	tr.AddSet(resp)
	st := &readState{
		rqs:         rqs,
		adv:         rqs.Adversary(),
		elem:        core.Elements(rqs.Adversary()),
		from:        from,
		hist:        hist,
		respQuorums: tr.AppendContained(nil, core.Class3),
		qc2prime:    tr.AppendContained(nil, core.Class2),
	}
	st.highestTS = st.computeHighestTS()
	return st
}

// TestSuffixSelectionMatchesFullHistory is the differential check of
// the suffix read's safety argument. Over random Example 7 executions,
// with one server of a basic subset forging — reverting to σ0 or
// fabricating a pair above the last write — the same acks are fed to a
// reader state over the full histories (from = 0) and one over the
// suffixes from L, as the servers ship them. Whenever the full reader
// selects a pair at or above L, the suffix reader selects the same
// pair, with the same BCD outcomes; otherwise it selects nothing (an
// atomic reader whose last return is L never selects below L, so that
// case is a further round for both).
func TestSuffixSelectionMatchesFullHistory(t *testing.T) {
	rqs := core.Example7RQS()
	rng := rand.New(rand.NewSource(1))
	net := transport.NewNetwork(rqs.N())
	defer net.Close()
	var same, none int
	for exec := 0; exec < 1000; exec++ {
		srvs, k := suffixServers(rqs, net, rng)
		forger := core.ProcessID(rng.Intn(4)) // s1..s4 lie in basic subsets
		var forged History
		switch rng.Intn(3) {
		case 1: // σ0
			forged = History{}
		case 2: // a fabricated pair above the last write
			p := Pair{TS: k + 1, Val: "forged"}
			forged = History{k + 1: {{Pair: p}, {Pair: p}}}
		}
		var resp core.Set // some servers that include a quorum
		for {
			resp = core.Set(rng.Uint64()) & rqs.Universe()
			if _, ok := rqs.ContainedQuorum(resp, core.Class3); ok {
				break
			}
		}
		acks := func(from int64) [][]TSRow {
			hist := make([][]TSRow, rqs.N())
			for i, s := range srvs {
				if !resp.Contains(i) {
					continue
				}
				if i == forger && forged != nil {
					hist[i] = forged.Rows(from)
				} else {
					hist[i] = s.suffix("", from)
				}
			}
			return hist
		}
		full := newSuffixState(rqs, 0, resp, acks(0))
		c, ok := full.selectCandidate()
		for L := int64(1); L <= k+1; L++ {
			suf := newSuffixState(rqs, L, resp, acks(L))
			cs, oks := suf.selectCandidate()
			if !ok || c.TS < L {
				if oks {
					t.Fatalf("exec %d, L=%d: full reader selects %v (ok=%v), suffix reader %v", exec, L, c, ok, cs)
				}
				none++
				continue
			}
			if !oks || cs != c {
				t.Fatalf("exec %d, L=%d: full reader selects %v, suffix reader %v (ok=%v)", exec, L, c, cs, oks)
			}
			if full.bcd1Any(c) != suf.bcd1Any(c) {
				t.Fatalf("exec %d, L=%d: bcd1Any(%v) differs", exec, L, c)
			}
			for rnd := 1; rnd <= 3; rnd++ {
				if a, b := full.bcd2(c, rnd), suf.bcd2(c, rnd); !slices.Equal(a, b) {
					t.Fatalf("exec %d, L=%d: bcd2(%v, %d) = %v full, %v suffix", exec, L, c, rnd, a, b)
				}
			}
			same++
		}
	}
	if same < 200 || none < 200 {
		t.Fatalf("only %d equal selections and %d empty ones: the executions are too uniform", same, none)
	}
	t.Logf("%d equal selections, %d selections below L or none", same, none)
}
